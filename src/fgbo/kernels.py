"""Factor-restricted covariance functions and their additive composition.

A :class:`FactorKernel` is a squared-exponential (RBF) covariance acting on a
small subset of the input coordinates; an :class:`AdditiveKernel` is a plain
sum of factor kernels, each evaluated on its own sub-vector:

    k(x, x') = sum_I  s2_I * exp(-0.5 * sum_{j in I} ((x_j - x'_j) / l_j)^2)

Inputs are dense real vectors in natural (unnormalized) coordinates; callers
that want unit-box behaviour normalize before building kernels.  All
functions here are pure and operate on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError


@dataclass(frozen=True)
class FactorKernel:
    """Covariance for one latent factor, restricted to coordinate subset.

    subset          0-based input coordinate indices, strictly increasing
    signal_variance prior variance s2 at zero distance
    lengthscales    one positive ARD lengthscale per subset coordinate
    """

    subset: tuple[int, ...]
    signal_variance: float
    lengthscales: tuple[float, ...]

    def __post_init__(self):
        subset = tuple(int(i) for i in self.subset)
        lengthscales = tuple(float(l) for l in self.lengthscales)
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "lengthscales", lengthscales)
        if len(subset) == 0:
            raise ContractViolationError("factor subset must be nonempty")
        if any(b <= a for a, b in zip(subset, subset[1:])):
            raise ContractViolationError(
                f"subset indices must be strictly increasing, got {subset}"
            )
        if subset[0] < 0:
            raise ContractViolationError("subset indices must be >= 0")
        if len(lengthscales) != len(subset):
            raise ContractViolationError(
                f"need one lengthscale per subset index: "
                f"{len(lengthscales)} != {len(subset)}"
            )
        if any(l <= 0 for l in lengthscales) or self.signal_variance <= 0:
            raise ContractViolationError(
                "lengthscales and signal variance must be positive"
            )

    @property
    def arity(self) -> int:
        return len(self.subset)

    def restrict(self, X: np.ndarray) -> np.ndarray:
        """Select this factor's coordinates from full inputs (..., d)."""
        X = np.asarray(X, dtype=float)
        if X.shape[-1] <= self.subset[-1]:
            raise ContractViolationError(
                f"input dimension {X.shape[-1]} too small for subset {self.subset}"
            )
        return X[..., list(self.subset)]


@dataclass(frozen=True)
class AdditiveKernel:
    """Sum of factor kernels; evaluation is the sum of factor evaluations."""

    factors: tuple[FactorKernel, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) == 0:
            raise ContractViolationError("additive kernel needs >= 1 factor")

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def prior_variance(self, x: np.ndarray) -> float:
        """k(x, x) = sum of factor signal variances (SE kernels)."""
        return float(sum(f.signal_variance for f in self.factors))


def eval_factor(kernel: FactorKernel, u, v) -> float:
    """Evaluate one factor kernel on two sub-vectors of length |subset|."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != (kernel.arity,) or v.shape != (kernel.arity,):
        raise ContractViolationError(
            f"sub-vectors must have length {kernel.arity}, "
            f"got {u.shape} and {v.shape}"
        )
    z = (u - v) / np.asarray(kernel.lengthscales)
    return float(kernel.signal_variance * np.exp(-0.5 * np.dot(z, z)))


def cross_factor(kernel: FactorKernel, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix of one factor between two sub-input sets.

    U: (m, arity), V: (n, arity) -> (m, n).
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if U.shape[1] != kernel.arity or V.shape[1] != kernel.arity:
        raise ContractViolationError(
            f"sub-inputs must have {kernel.arity} columns"
        )
    ls = np.asarray(kernel.lengthscales)
    diff = U[:, None, :] / ls - V[None, :, :] / ls
    return kernel.signal_variance * np.exp(-0.5 * np.einsum("mnk,mnk->mn", diff, diff))


def eval_additive(kernel: AdditiveKernel, x, y) -> float:
    """Evaluate the additive kernel on two full d-dimensional inputs."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ContractViolationError(
            f"inputs must share a length, got {x.shape} and {y.shape}"
        )
    total = 0.0
    for f in kernel.factors:
        total += eval_factor(f, f.restrict(x), f.restrict(y))
    return total


def gram(kernel: AdditiveKernel, X: np.ndarray) -> np.ndarray:
    """Symmetric Gram matrix of the additive kernel over inputs X (n, d)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    K = np.zeros((n, n))
    for f in kernel.factors:
        U = f.restrict(X)
        K += cross_factor(f, U, U)
    # exact symmetry despite float reduction order
    return 0.5 * (K + K.T)


def cross_additive(kernel: AdditiveKernel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Cross-covariance of the additive kernel, (m, d) x (n, d) -> (m, n)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    K = np.zeros((X.shape[0], Y.shape[0]))
    for f in kernel.factors:
        K += cross_factor(f, f.restrict(X), f.restrict(Y))
    return K
