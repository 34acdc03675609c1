"""Additive UCB acquisition, exploration schedule, and domain discretization.

Each factor I gets its own upper-confidence surrogate

    phi_I(u) = mean_I(u) + sqrt(beta) * std_I(u)

tabulated over the factor's sub-grid of a shared per-dimension grid.  The
tables are the factors of the maxsum.FactorGraph that tabulate returns, so
the solver runs on them as they are; GP-UCB over the joint grid (the
centralized baseline) is the graph of one factor over all d inputs.  The
exploration coefficient beta_t follows one of the three config.BETA_MODES:

    discrete_domain       beta_t = 2 log(|D| |U| pi_t / delta),  pi_t = pi^2 t^2 / 6
    continuous_lipschitz  beta_t = 2 log(2 |U| pi_t / delta) + 2 d log(Delta_t)
    fixed_constant        beta_t = c

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

import numpy as np

from .config import BETA_MODES
from .errors import (
    ConfigurationError,
    ContractViolationError,
    check_counts,
    check_indices,
    check_real,
)
from .gp import FactorPosterior
from .maxsum import FactorGraph


@dataclass(frozen=True)
class BetaSchedule:
    """Parameters of the exploration schedule.

    mode is one of config.BETA_MODES, so a run config's beta section passes
    straight through: BetaSchedule(**config.beta, num_factors=u, dims=d).
    dims and the Lipschitz constants a and b feed the continuous_lipschitz
    mode and the grid schedule; a and b default to 1.0 when unknown, and only
    shift beta by a constant.  The joint domain size |D| of the
    discrete_domain mode is tau_t^d, so it is an argument of beta.
    """

    mode: str
    delta: float
    num_factors: int
    dims: int
    lipschitz_a: float = 1.0
    lipschitz_b: float = 1.0
    fixed_value: float | None = None

    def __post_init__(self):
        if self.mode not in BETA_MODES:
            raise ConfigurationError(f"unknown beta mode {self.mode!r}")
        delta = check_real(ConfigurationError, "delta", self.delta)
        a = check_real(ConfigurationError, "lipschitz_a", self.lipschitz_a)
        b = check_real(ConfigurationError, "lipschitz_b", self.lipschitz_b)
        if not 0.0 < delta < 1.0:
            raise ConfigurationError(f"delta must lie in (0,1), got {self.delta}")
        check_counts(ConfigurationError, 1, num_factors=self.num_factors, dims=self.dims)
        if not (0 < a < math.inf and 0 < b < math.inf):
            raise ConfigurationError("a and b must be positive and finite")
        if self.mode == "fixed_constant":
            if self.fixed_value is None or not (
                0 < check_real(ConfigurationError, "fixed_value", self.fixed_value) < math.inf
            ):
                raise ConfigurationError(
                    "FixedConstant mode needs a positive finite fixed_value"
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

    domain_size is |D|, which only the discrete_domain mode reads.  Raises
    ConfigurationError when the value is not finite (a huge lipschitz_b
    overflows the discretization term).
    """
    if t < 1:
        raise ContractViolationError(f"iteration must be >= 1, got {t}")
    if schedule.mode == "fixed_constant":
        return float(schedule.fixed_value)
    pi_t = math.pi * math.pi * t * t / 6.0
    if schedule.mode == "discrete_domain":
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
        check_counts(ContractViolationError, 2, per_dim_points=self.per_dim_points)
        check_counts(ContractViolationError, 1, num_dims=self.num_dims)
        axis = np.linspace(0.0, 1.0, self.per_dim_points)
        axis.flags.writeable = False
        object.__setattr__(self, "axis", axis)

    @property
    def joint_size(self) -> int:
        return self.per_dim_points ** self.num_dims

    def point_at(self, indices) -> np.ndarray:
        """The grid point at one integer index per dimension."""
        return self.axis[list(check_indices(indices, self.num_dims, self.per_dim_points))]


def grid_for_iteration(
    schedule: BetaSchedule, t: int, caps: tuple[int, int]
) -> GridSpec:
    """Per-dimension resolution tau_t, clamped to caps, on the unit box."""
    if t < 1:
        raise ContractViolationError(f"iteration must be >= 1, got {t}")
    if len(caps) != 2:
        raise ContractViolationError(f"caps must be (min, max), got {tuple(caps)}")
    min_pts, max_pts = caps[0], caps[1]
    check_counts(ContractViolationError, 2, **{"caps.min": min_pts})
    check_counts(ContractViolationError, min_pts, **{"caps.max": max_pts})
    raw = _discretization(schedule, t)
    # compare before ceil: an overflowed raw is inf, which ceil refuses
    tau = max_pts if raw >= max_pts else max(math.ceil(raw), min_pts)
    return GridSpec(per_dim_points=tau, num_dims=schedule.dims)


def tabulate(
    posterior: FactorPosterior, grid: GridSpec, beta_value: float, weights=None
) -> FactorGraph:
    """The acquisition factor graph: every factor's phi table on its sub-grid.

    Each factor's sub-grid travels as axes, and the posterior comes pack by
    pack from gp's grid_mean_var.  A factor of two or more axes and at
    least gp.BLOCK_ROWS rows is a pack of its own, a Khatri-Rao contraction
    over observation pairs: it builds no (tau^|I| x t) cross-covariance,
    only O(|I| tau t) exponentials, and its variances take
    tau^|I| t(t+1)/2 multiply-adds in pair GEMMs (gp).  Other factors of
    one arity share packs of at most that many rows, one direct product per
    pack: a cross-covariance of O(|I| tau t) exponentials and tau^|I| t
    products (kernels) and variances of tau^|I| t^2 multiply-adds against
    the cached L^-1.  So the temporaries are small chunks or (pack x t)
    arrays of at most that many rows, but for a singleton on a longer axis,
    which is a pack of its own.
    phi, and the weights, are one pass per pack; every table is bitwise the
    one the factor would get alone.  The tables hold tau^|I| floats per
    factor.
    beta_value and the weights are numbers, not bools or strings.
    weights, exactly one per factor and each positive and finite, scale the
    tables (averaging acquisitions over sampled decompositions).  A kernel
    with one factor over all d inputs gives the centralized GP-UCB table
    over the joint grid.
    """
    if not 0 < check_real(ContractViolationError, "beta", beta_value) < math.inf:
        raise ContractViolationError("beta must be positive and finite")
    factors = posterior.kernel.factors
    if weights is not None:
        scales = (
            [check_real(ContractViolationError, "weights", w) for w in weights]
            if np.iterable(weights)
            else []
        )
        if len(scales) != len(factors) or not all(0 < w < math.inf for w in scales):
            raise ContractViolationError(
                f"need one weight per factor ({len(factors)}), each positive and finite, "
                f"got {weights!r}"
            )
    root_beta = math.sqrt(beta_value)
    tau = grid.per_dim_points
    tables = [None] * len(factors)
    for pack, mean, var in posterior.grid_mean_var(grid.axis):
        phi = mean + root_beta * np.sqrt(var)
        m = len(phi) // len(pack)
        if weights is not None:
            phi *= np.repeat([scales[i] for i in pack], m)
        for j, i in enumerate(pack):
            tables[i] = phi[j * m : (j + 1) * m].reshape((tau,) * factors[i].arity)
    return FactorGraph(
        num_variables=grid.num_dims,
        num_values=tau,
        subsets=[f.subset for f in factors],
        tables=tables,
    )
