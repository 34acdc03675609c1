"""Synthetic objectives: Shekel, Hartmann-6, Michalewicz, and GP prior draws.

All three classical benchmarks are minimization problems; the optimizer
maximizes their negation, so `minimize=True` tells the engine to flip signs.
Constants are the standard published tables; construction-time validation is
left to the test suite, which checks each function reproduces its known
optimum.

    Shekel (m=10, d=4, box [0,10]^4):
        f(x) = -sum_i 1 / (beta_i + sum_j (x_j - C_ji)^2),  f(x*) ~ -10.5364
    Hartmann-6 (box [0,1]^6):
        f(x) = -sum_i alpha_i exp(-sum_j A_ij (x_j - P_ij)^2),  f(x*) ~ -3.32237
    Michalewicz (d=10, m=10, box [0,pi]^10):
        f(x) = -sum_i sin(x_i) sin(i x_i^2 / pi)^(2m),  f(x*) ~ -9.66015
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConfigurationError,
    ContractViolationError,
    check_array,
    check_counts,
    check_real,
)
from .gp import dense_cholesky_with_jitter
from .kernels import AdditiveKernel, cross_factor


SHEKEL_BETA = 0.1 * np.array([1.0, 2.0, 2.0, 4.0, 4.0, 6.0, 3.0, 7.0, 5.0, 5.0])
SHEKEL_C = np.array(
    [
        [4.0, 1.0, 8.0, 6.0, 3.0, 2.0, 5.0, 8.0, 6.0, 7.0],
        [4.0, 1.0, 8.0, 6.0, 7.0, 9.0, 3.0, 1.0, 2.0, 3.6],
        [4.0, 1.0, 8.0, 6.0, 3.0, 2.0, 5.0, 8.0, 6.0, 7.0],
        [4.0, 1.0, 8.0, 6.0, 7.0, 9.0, 3.0, 1.0, 2.0, 3.6],
    ]
)  # (4 dims, 10 columns)

HARTMANN6_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
HARTMANN6_A = np.array(
    [
        [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
    ]
)
HARTMANN6_P = 1e-4 * np.array(
    [
        [1312.0, 1696.0, 5569.0, 124.0, 8283.0, 5886.0],
        [2329.0, 4135.0, 8307.0, 3736.0, 1004.0, 9991.0],
        [2348.0, 1451.0, 3522.0, 2883.0, 3047.0, 6650.0],
        [4047.0, 8828.0, 8732.0, 5743.0, 1091.0, 381.0],
    ]
)
HARTMANN6_ARGMIN = (0.20169, 0.150011, 0.476874, 0.275332, 0.311652, 0.6573)

MICHALEWICZ_M = 10
MICHALEWICZ_D = 10

SHEKEL_OPTIMUM = -10.5364
HARTMANN6_OPTIMUM = -3.32237
MICHALEWICZ_OPTIMUM = -9.66015


@dataclass(frozen=True)
class SyntheticObjective:
    """A deterministic closed-form objective over a box domain."""

    kind: str  # the config's objective name, or "prior_sample"
    box: tuple[tuple[float, float], ...]
    minimize: bool
    known_optimum: float | None = None
    known_argmin: tuple[float, ...] | None = None
    batch_fn: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def dims(self) -> int:
        return len(self.box)


def _check_box(obj: SyntheticObjective, X: np.ndarray):
    for j, (lo, hi) in enumerate(obj.box):
        tol = 1e-9 * (hi - lo)
        col = X[:, j]
        if not np.all((col >= lo - tol) & (col <= hi + tol)):  # NaN fails, no rows pass
            raise ContractViolationError(
                f"input coordinate {j} outside box [{lo}, {hi}]"
            )


def evaluate_batch(obj: SyntheticObjective, X: np.ndarray) -> np.ndarray:
    """The objective at each row of X (m, dims); X must be a numeric array
    inside the box, else ContractViolationError."""
    X = np.atleast_2d(check_array("X", X))
    if X.ndim != 2 or X.shape[1] != obj.dims:
        raise ContractViolationError(
            f"inputs must be an (m, {obj.dims}) array, got shape {X.shape}"
        )
    _check_box(obj, X)
    return obj.batch_fn(X)


def evaluate(obj: SyntheticObjective, x) -> float:
    return float(evaluate_batch(obj, check_array("x", x).reshape(1, -1))[0])


def noisy_evaluate(
    obj: SyntheticObjective, x, noise_variance: float, rng: np.random.Generator
) -> float:
    """evaluate(x) plus a Normal(0, noise_variance) draw from rng, a numpy
    Generator."""
    if not 0 <= check_real(ContractViolationError, "noise_variance", noise_variance) < math.inf:
        raise ContractViolationError("noise variance must be >= 0 and finite")
    if not isinstance(rng, np.random.Generator):
        raise ContractViolationError(f"rng must be a numpy Generator, got {rng!r}")
    value = evaluate(obj, x)
    if noise_variance == 0:
        return value
    return value + float(rng.normal(0.0, math.sqrt(noise_variance)))


def shekel4() -> SyntheticObjective:
    def fn(X: np.ndarray) -> np.ndarray:
        d2 = ((X[:, :, None] - SHEKEL_C[None, :, :]) ** 2).sum(axis=1)
        return -(1.0 / (SHEKEL_BETA[None, :] + d2)).sum(axis=1)

    return SyntheticObjective(
        kind="shekel4",
        box=((0.0, 10.0),) * 4,
        minimize=True,
        known_optimum=SHEKEL_OPTIMUM,
        known_argmin=(4.0, 4.0, 4.0, 4.0),
        batch_fn=fn,
    )


def hartmann6() -> SyntheticObjective:
    def fn(X: np.ndarray) -> np.ndarray:
        d2 = (HARTMANN6_A[None, :, :] * (X[:, None, :] - HARTMANN6_P[None, :, :]) ** 2).sum(
            axis=2
        )
        return -(HARTMANN6_ALPHA[None, :] * np.exp(-d2)).sum(axis=1)

    return SyntheticObjective(
        kind="hartmann6",
        box=((0.0, 1.0),) * 6,
        minimize=True,
        known_optimum=HARTMANN6_OPTIMUM,
        known_argmin=HARTMANN6_ARGMIN,
        batch_fn=fn,
    )


def michalewicz10() -> SyntheticObjective:
    idx = np.arange(1, MICHALEWICZ_D + 1, dtype=float)

    def fn(X: np.ndarray) -> np.ndarray:
        terms = np.sin(X) * np.sin(idx[None, :] * X**2 / math.pi) ** (2 * MICHALEWICZ_M)
        return -terms.sum(axis=1)

    return SyntheticObjective(
        kind="michalewicz10",
        box=((0.0, math.pi),) * MICHALEWICZ_D,
        minimize=True,
        known_optimum=MICHALEWICZ_OPTIMUM,
        known_argmin=None,  # not published; tests recover it per dimension
        batch_fn=fn,
    )


MAX_SAMPLE_GRID = 4000


def prior_sample_objective(
    kernel: AdditiveKernel,
    box: tuple[tuple[float, float], ...],
    grid_points: int,
    rng: np.random.Generator,
) -> SyntheticObjective:
    """A function drawn from the additive GP prior on a small grid.

    The grid has grid_points linspace values per dimension of the box.
    Factor values are sampled exactly on each factor's sub-grid
    (independent draws, matching the additive prior) and extended off-grid
    by noiseless posterior-mean interpolation, so on-grid evaluations
    reproduce the draws up to jitter.  Each factor's sub-grid may hold at
    most MAX_SAMPLE_GRID points; the joint grid over all d dimensions is
    never built, so d is unbounded.
    """
    check_counts(ContractViolationError, 1, grid_points=grid_points)
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    d = len(box)
    values = [np.linspace(lo, hi, grid_points) for lo, hi in box]
    interpolants = []
    for f in kernel.factors:
        if f.subset[-1] >= d:
            raise ContractViolationError(
                f"kernel subset {f.subset} outside the {d}-dimensional box"
            )
        if grid_points**f.arity > MAX_SAMPLE_GRID:
            raise ContractViolationError(
                f"factor {f.subset} samples {grid_points**f.arity} grid points, "
                f"limit {MAX_SAMPLE_GRID}"
            )
        mesh = np.meshgrid(*(values[j] for j in f.subset), indexing="ij")
        U = np.stack([m.ravel() for m in mesh], axis=-1)
        K = cross_factor(f, U, U)
        L, _ = dense_cholesky_with_jitter(K)
        draws = L @ rng.standard_normal(len(U))
        weights = np.linalg.solve(L.T, np.linalg.solve(L, draws))
        interpolants.append((f, U, weights))

    def fn(X: np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape[0])
        for fac, U, w in interpolants:
            out += cross_factor(fac, fac.restrict(X), U) @ w
        return out

    return SyntheticObjective(
        kind="prior_sample",
        box=box,
        minimize=False,
        known_optimum=None,
        batch_fn=fn,
    )


OBJECTIVES = {
    "shekel4": shekel4,
    "hartmann6": hartmann6,
    "michalewicz10": michalewicz10,
}


def make_objective(name: str) -> SyntheticObjective:
    try:
        return OBJECTIVES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown objective {name!r}; choose from {sorted(OBJECTIVES)}"
        )


def benchmark_constants() -> dict:
    """All embedded benchmark tables, for audit dumps."""
    return {
        "shekel4": {
            "beta": SHEKEL_BETA.tolist(),
            "C": SHEKEL_C.tolist(),
            "box": [[0.0, 10.0]] * 4,
            "published_optimum": SHEKEL_OPTIMUM,
        },
        "hartmann6": {
            "alpha": HARTMANN6_ALPHA.tolist(),
            "A": HARTMANN6_A.tolist(),
            "P": HARTMANN6_P.tolist(),
            "box": [[0.0, 1.0]] * 6,
            "published_optimum": HARTMANN6_OPTIMUM,
            "argmin": list(HARTMANN6_ARGMIN),
        },
        "michalewicz10": {
            "m": MICHALEWICZ_M,
            "d": MICHALEWICZ_D,
            "box": [[0.0, math.pi]] * MICHALEWICZ_D,
            "published_optimum": MICHALEWICZ_OPTIMUM,
        },
    }
