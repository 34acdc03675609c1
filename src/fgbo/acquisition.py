"""Additive UCB acquisition, exploration schedule, and domain discretization.

Each factor I gets its own upper-confidence surrogate

    phi_I(u) = mean_I(u) + sqrt(beta) * std_I(u)

tabulated over the factor's sub-grid of a shared per-dimension grid.  The
exploration coefficient beta_t comes from one of three schedules:

    DiscreteDomain      beta_t = 2 log(|D| |U| pi_t / delta),  pi_t = pi^2 t^2 / 6
    ContinuousLipschitz beta_t = 2 log(2 |U| pi_t / delta)
                                 + 2 d log(r d b t^2 sqrt(log(2 |U| a / delta)))
    FixedConstant       beta_t = c

and the per-dimension grid resolution follows

    tau_t = ceil(r d b t^2 sqrt(log(2 |U| a / delta)))

clamped to configured caps, since the uncapped value is astronomically large
for honest Lipschitz constants while the guarantee degrades gracefully to the
grid resolution.  Grids are linspace-style and include both box endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .gp import FactorPosterior


class BetaMode(Enum):
    DISCRETE_DOMAIN = "discrete_domain"
    CONTINUOUS_LIPSCHITZ = "continuous_lipschitz"
    FIXED_CONSTANT = "fixed_constant"


@dataclass(frozen=True)
class BetaSchedule:
    """Parameters of the exploration schedule.

    domain_size is the joint domain cardinality |D| and only feeds the
    DiscreteDomain mode; on a grid it is tau_t^d, so callers re-derive it per
    iteration (see engine).  dims, box_edge and the Lipschitz constants feed
    the ContinuousLipschitz mode and the grid schedule.  a and b default to
    1.0 when unknown; they only shift beta by a constant.
    """

    mode: BetaMode
    delta: float
    num_factors: int
    domain_size: int | None = None
    dims: int | None = None
    box_edge: float = 1.0
    lipschitz_a: float = 1.0
    lipschitz_b: float = 1.0
    fixed_value: float | None = None

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must lie in (0,1), got {self.delta}")
        if self.num_factors < 1:
            raise ConfigurationError("num_factors must be >= 1")
        if self.domain_size is not None and self.domain_size < 1:
            raise ConfigurationError("domain_size must be a positive integer")
        if self.dims is not None and self.dims < 1:
            raise ConfigurationError("dims must be a positive integer")
        if self.box_edge <= 0 or self.lipschitz_a <= 0 or self.lipschitz_b <= 0:
            raise ConfigurationError("box_edge, a and b must be positive")
        if self.mode is BetaMode.FIXED_CONSTANT:
            if self.fixed_value is None or self.fixed_value <= 0:
                raise ConfigurationError(
                    "FixedConstant mode needs a positive fixed_value"
                )


def _log_arg(value: float, what: str) -> float:
    if value <= 0:
        raise ConfigurationError(f"nonpositive argument inside log for {what}")
    return math.log(value)


def beta(schedule: BetaSchedule, t: int) -> float:
    """Exploration coefficient at iteration t >= 1."""
    if t < 1:
        raise ContractViolationError(f"iteration must be >= 1, got {t}")
    if schedule.mode is BetaMode.FIXED_CONSTANT:
        return float(schedule.fixed_value)
    pi_t = math.pi * math.pi * t * t / 6.0
    if schedule.mode is BetaMode.DISCRETE_DOMAIN:
        if schedule.domain_size is None:
            raise ConfigurationError("DiscreteDomain mode needs domain_size")
        # sum of logs: |D| = tau^d may overflow a float as a product
        return 2.0 * (
            _log_arg(schedule.domain_size, "domain size")
            + math.log(schedule.num_factors)
            + math.log(pi_t)
            - math.log(schedule.delta)
        )
    if schedule.dims is None:
        raise ConfigurationError("ContinuousLipschitz mode needs dims")
    inner = _log_arg(
        2.0 * schedule.num_factors * schedule.lipschitz_a / schedule.delta,
        "Lipschitz confidence term",
    )
    if inner <= 0:
        raise ConfigurationError("log(2|U|a/delta) must be positive")
    first = 2.0 * _log_arg(
        2.0 * schedule.num_factors * pi_t / schedule.delta, "confidence term"
    )
    arg = (
        schedule.box_edge
        * schedule.dims
        * schedule.lipschitz_b
        * t
        * t
        * math.sqrt(inner)
    )
    return first + 2.0 * schedule.dims * _log_arg(arg, "discretization term")


@dataclass(frozen=True)
class GridSpec:
    """Uniform per-dimension grid over a box, endpoints included.

    The per-dimension axes are built once, as read-only arrays.
    """

    per_dim_points: int
    box: tuple[tuple[float, float], ...]
    _axes: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        object.__setattr__(self, "box", box)
        if self.per_dim_points < 2:
            raise ContractViolationError("grids need >= 2 points per dimension")
        if any(hi <= lo for lo, hi in box):
            raise ContractViolationError("box bounds must satisfy low < high")
        axes = tuple(np.linspace(lo, hi, self.per_dim_points) for lo, hi in box)
        for axis in axes:
            axis.flags.writeable = False
        object.__setattr__(self, "_axes", axes)

    @property
    def num_dims(self) -> int:
        return len(self.box)

    @property
    def joint_size(self) -> int:
        return self.per_dim_points ** self.num_dims

    def values(self, dim: int) -> np.ndarray:
        return self._axes[dim]

    def axes(self, dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """The per-dim grids of `dims`, standing for their Cartesian product.

        This is the axes form of subgrid(dims) that kernels and gp accept.
        """
        return tuple(self._axes[j] for j in dims)

    def subgrid(self, dims: tuple[int, ...]) -> np.ndarray:
        """Cartesian product of the per-dim grids of `dims`.

        Rows are in C order over the index tuple: row r holds the point whose
        indices are np.unravel_index(r, (tau,)*len(dims)).
        """
        mesh = np.meshgrid(*self.axes(dims), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def point_at(self, indices) -> np.ndarray:
        return np.array(
            [self._axes[j][i] for j, i in enumerate(indices)], dtype=float
        )

    def nearest_indices(self, x) -> tuple[int, ...]:
        """Per-dimension index of the grid point nearest to x."""
        x = np.asarray(x, dtype=float).ravel()
        if x.shape != (self.num_dims,):
            raise ContractViolationError(
                f"point has {x.shape} coordinates, grid has {self.num_dims} dims"
            )
        out = []
        for j, v in enumerate(x):
            lo, hi = self.box[j]
            step = (hi - lo) / (self.per_dim_points - 1)
            i = int(round((v - lo) / step))
            out.append(min(max(i, 0), self.per_dim_points - 1))
        return tuple(out)


def grid_for_iteration(
    schedule: BetaSchedule, t: int, caps: tuple[int, int]
) -> GridSpec:
    """Per-dimension resolution tau_t, clamped to caps, on the unit box."""
    if t < 1:
        raise ContractViolationError(f"iteration must be >= 1, got {t}")
    min_pts, max_pts = int(caps[0]), int(caps[1])
    if min_pts < 2:
        raise ContractViolationError("caps.min must be >= 2")
    if max_pts < min_pts:
        raise ContractViolationError("caps.max must be >= caps.min")
    if schedule.dims is None:
        raise ConfigurationError("grid schedule needs dims")
    inner = _log_arg(
        2.0 * schedule.num_factors * schedule.lipschitz_a / schedule.delta,
        "Lipschitz confidence term",
    )
    raw = (
        schedule.box_edge
        * schedule.dims
        * schedule.lipschitz_b
        * t
        * t
        * math.sqrt(inner)
    )
    tau = min(max(math.ceil(raw), min_pts), max_pts)
    return GridSpec(per_dim_points=tau, box=((0.0, 1.0),) * schedule.dims)


@dataclass(frozen=True)
class DiscretizedAcquisition:
    """Per-factor UCB tables over the factor sub-grids.

    tables[i] has shape (tau,)*|subset_i| and holds raw phi values; weights,
    when present, scale each factor's contribution to the summed objective
    (used when averaging acquisitions across sampled decompositions) and are
    applied by the solver, never baked into the tables.
    """

    subsets: tuple[tuple[int, ...], ...]
    tables: tuple[np.ndarray, ...]
    grid: GridSpec
    beta_used: float
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "subsets", tuple(tuple(s) for s in self.subsets))
        object.__setattr__(self, "tables", tuple(self.tables))
        if len(self.subsets) != len(self.tables):
            raise ContractViolationError("one table per subset required")
        tau = self.grid.per_dim_points
        for s, tab in zip(self.subsets, self.tables):
            if tab.shape != (tau,) * len(s):
                raise ContractViolationError(
                    f"table for subset {s} has shape {tab.shape}, "
                    f"expected {(tau,) * len(s)}"
                )
        if self.weights is not None:
            w = tuple(float(v) for v in self.weights)
            object.__setattr__(self, "weights", w)
            if len(w) != len(self.subsets):
                raise ContractViolationError("one weight per factor required")

    @property
    def num_factors(self) -> int:
        return len(self.subsets)

    def factor_weight(self, i: int) -> float:
        return 1.0 if self.weights is None else self.weights[i]


def tabulate(
    posterior: FactorPosterior, grid: GridSpec, beta_value: float
) -> DiscretizedAcquisition:
    """Fill every factor's phi table on its sub-grid.

    Each factor's sub-grid travels as axes, so its cross-covariance costs
    O(|I| tau t) exponentials and tau^|I| t products (kernels), and its
    variances one (tau^|I| x t)(t x t) GEMM against the cached L^-1 (gp).
    """
    if beta_value <= 0:
        raise ContractViolationError("beta must be positive")
    root_beta = math.sqrt(beta_value)
    tau = grid.per_dim_points
    subsets = []
    tables = []
    for i, f in enumerate(posterior.kernel.factors):
        mean, var = posterior.factor_mean_var_batch(i, grid.axes(f.subset))
        phi = mean + root_beta * np.sqrt(var)
        subsets.append(f.subset)
        tables.append(phi.reshape((tau,) * f.arity))
    return DiscretizedAcquisition(
        subsets=tuple(subsets),
        tables=tuple(tables),
        grid=grid,
        beta_used=float(beta_value),
    )
