"""Additive UCB acquisition, exploration schedule, and domain discretization.

Each factor I gets its own upper-confidence surrogate

    phi_I(u) = mean_I(u) + sqrt(beta) * std_I(u)

tabulated over the factor's sub-grid of a shared per-dimension grid.  The
tables are the factors of the maxsum.FactorGraph that tabulate returns, so
the solver runs on them as they are; GP-UCB over the joint grid (the
centralized baseline) is the graph of one factor over all d inputs.  The
exploration coefficient beta_t comes from one of three schedules:

    DiscreteDomain      beta_t = 2 log(|D| |U| pi_t / delta),  pi_t = pi^2 t^2 / 6
    ContinuousLipschitz beta_t = 2 log(2 |U| pi_t / delta) + 2 d log(Delta_t)
    FixedConstant       beta_t = c

and the per-dimension grid resolution follows

    tau_t = ceil(Delta_t),  Delta_t = r d b t^2 sqrt(log(2 |U| a / delta))

clamped to configured caps, since the uncapped value is astronomically large
for honest Lipschitz constants while the guarantee degrades gracefully to the
grid resolution.  Everything runs on the unit box, so the box edge r is 1,
and Delta_t, the one discretization term of beta and tau, is computed in one
place.  Grids are linspace-style and include both endpoints 0 and 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .gp import FactorPosterior
from .maxsum import FactorGraph


class BetaMode(Enum):
    DISCRETE_DOMAIN = "discrete_domain"
    CONTINUOUS_LIPSCHITZ = "continuous_lipschitz"
    FIXED_CONSTANT = "fixed_constant"


@dataclass(frozen=True)
class BetaSchedule:
    """Parameters of the exploration schedule.

    mode is a BetaMode or its value, so a run config's beta section passes
    straight through: BetaSchedule(**config.beta, num_factors=u, dims=d).
    dims and the Lipschitz constants a and b feed the ContinuousLipschitz
    mode and the grid schedule; a and b default to 1.0 when unknown, and only
    shift beta by a constant.  The joint domain size |D| of the
    DiscreteDomain mode is tau_t^d, so it is an argument of beta.
    """

    mode: BetaMode | str
    delta: float
    num_factors: int
    dims: int
    lipschitz_a: float = 1.0
    lipschitz_b: float = 1.0
    fixed_value: float | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "mode", BetaMode(self.mode))
        except ValueError:
            raise ConfigurationError(f"unknown beta mode {self.mode!r}") from None
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must lie in (0,1), got {self.delta}")
        if self.num_factors < 1:
            raise ConfigurationError("num_factors must be >= 1")
        if self.dims < 1:
            raise ConfigurationError("dims must be a positive integer")
        if self.lipschitz_a <= 0 or self.lipschitz_b <= 0:
            raise ConfigurationError("a and b must be positive")
        if self.mode is BetaMode.FIXED_CONSTANT:
            if self.fixed_value is None or self.fixed_value <= 0:
                raise ConfigurationError(
                    "FixedConstant mode needs a positive fixed_value"
                )


def _log_arg(value: float, what: str) -> float:
    if value <= 0:
        raise ConfigurationError(f"nonpositive argument inside log for {what}")
    return math.log(value)


def _discretization(schedule: BetaSchedule, t: int) -> float:
    """The term d b t^2 sqrt(log(2 |U| a / delta)) shared by beta and tau."""
    inner = math.log(2.0 * schedule.num_factors * schedule.lipschitz_a / schedule.delta)
    if inner <= 0:
        raise ConfigurationError(
            f"log(2|U|a/delta) = {inner:.3g} must be positive; raise lipschitz_a"
        )
    return schedule.dims * schedule.lipschitz_b * t * t * math.sqrt(inner)


def beta(schedule: BetaSchedule, t: int, domain_size: int | None = None) -> float:
    """Exploration coefficient at iteration t >= 1.

    domain_size is |D|, which only the DiscreteDomain mode reads.  Raises
    ConfigurationError when the value is not finite (a huge lipschitz_b
    overflows the discretization term).
    """
    if t < 1:
        raise ContractViolationError(f"iteration must be >= 1, got {t}")
    if schedule.mode is BetaMode.FIXED_CONSTANT:
        return float(schedule.fixed_value)
    pi_t = math.pi * math.pi * t * t / 6.0
    if schedule.mode is BetaMode.DISCRETE_DOMAIN:
        if domain_size is None:
            raise ContractViolationError("DiscreteDomain mode needs the domain size")
        # sum of logs: |D| = tau^d may overflow a float as a product
        value = 2.0 * (
            _log_arg(domain_size, "domain size")
            + math.log(schedule.num_factors)
            + math.log(pi_t)
            - math.log(schedule.delta)
        )
    else:
        first = 2.0 * _log_arg(
            2.0 * schedule.num_factors * pi_t / schedule.delta, "confidence term"
        )
        value = first + 2.0 * schedule.dims * _log_arg(
            _discretization(schedule, t), "discretization term"
        )
    if not math.isfinite(value):
        raise ConfigurationError(
            f"beta at iteration {t} is {value}; lower lipschitz_b"
        )
    return value


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over the unit box [0, 1]^num_dims, endpoints included.

    Every dimension shares one read-only axis, built once.
    """

    per_dim_points: int
    num_dims: int
    axis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.per_dim_points < 2:
            raise ContractViolationError("grids need >= 2 points per dimension")
        if self.num_dims < 1:
            raise ContractViolationError("grids need >= 1 dimension")
        axis = np.linspace(0.0, 1.0, self.per_dim_points)
        axis.flags.writeable = False
        object.__setattr__(self, "axis", axis)

    @property
    def joint_size(self) -> int:
        return self.per_dim_points ** self.num_dims

    def axes(self, dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """The grids of `dims`, standing for their Cartesian product in C
        order (the axes form that kernels.cross_factor accepts)."""
        return (self.axis,) * len(dims)

    def point_at(self, indices) -> np.ndarray:
        return self.axis[list(indices)]


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
    raw = _discretization(schedule, t)
    # compare before ceil: an overflowed raw is inf, which ceil refuses
    tau = max_pts if raw >= max_pts else max(math.ceil(raw), min_pts)
    return GridSpec(per_dim_points=tau, num_dims=schedule.dims)


def tabulate(
    posterior: FactorPosterior, grid: GridSpec, beta_value: float, weights=None
) -> FactorGraph:
    """The acquisition factor graph: every factor's phi table on its sub-grid.

    Each factor's sub-grid travels as axes, so its cross-covariance costs
    O(|I| tau t) exponentials per row block and tau^|I| t products (kernels),
    and its variances tau^|I| t^2 multiply-adds against the cached L^-1 (gp).
    The posterior is built in row blocks of at least gp.BLOCK_ROWS rows, so
    its temporaries are a few (block x t) arrays, not (tau^|I| x t) ones;
    the tables hold tau^|I| floats per factor.
    weights, one per factor, scale the tables (averaging acquisitions over
    sampled decompositions).  A kernel with one factor over all d inputs
    gives the centralized GP-UCB table over the joint grid.
    """
    if beta_value <= 0:
        raise ContractViolationError("beta must be positive")
    factors = posterior.kernel.factors
    root_beta = math.sqrt(beta_value)
    tau = grid.per_dim_points
    tables = []
    for i, f in enumerate(factors):
        mean, var = posterior.factor_mean_var_batch(i, grid.axes(f.subset))
        phi = (mean + root_beta * np.sqrt(var)).reshape((tau,) * f.arity)
        tables.append(phi if weights is None else float(weights[i]) * phi)
    return FactorGraph(
        num_variables=grid.num_dims,
        num_values=tau,
        subsets=[f.subset for f in factors],
        tables=tables,
    )
