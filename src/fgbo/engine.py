"""The Bayesian-optimization outer loop and its baselines.

One run is: t0 seeded uniform-random evaluations, then n iterations of
fit posterior -> beta(t+1) -> grid -> tabulate -> select -> evaluate.
Selection depends on the algorithm:

    dec_hbo             max-sum over the decomposition's factor graph
    add_independent     dec_hbo with per-dimension singleton factors
    centralized_gp_ucb  UCB argmax over the full joint grid, one dense factor
    random_search       uniform random queries, no model

Everything runs internally on the unit box; queries are mapped back to the
objective's natural box for evaluation and logging.  Objectives flagged
minimize=True are negated, so the engine always maximizes g and reports the
regret r_t = g(x*) - g(x_t).

Configuration: RunConfig runs its fields through config.validate_config, so
it holds canonical values with every nested key present, and this module
reads them directly; the defaults and the checks live only in config.
resolve draws any random decomposition once and hands the static structure
to run_resolved.

Reproducibility: the seed spawns three independent child streams
(decomposition, queries, noise), so re-running a manifest whose random
decomposition was resolved to static subsets leaves the query and noise
streams untouched and the trace byte-identical.  Wall-clock timing is
opt-in (measure_wall_time); the default writes wall_ms as 0.0 because real
timing would break that byte-identity.
"""

from __future__ import annotations

import copy
import heapq
import json
import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .acquisition import (
    BetaMode,
    BetaSchedule,
    beta,
    grid_for_iteration,
    tabulate,
)
from .bench import (
    SyntheticObjective,
    evaluate,
    make_objective,
    noisy_evaluate,
    prior_sample_objective,
)
from .config import validate_config
from .decomposition import (
    Decomposition,
    McmcConfig,
    PriorConfig,
    SharedHypers,
    induced_kernel,
    merge_for_acquisition,
    random_covering_decomposition,
    sample_posterior,
    singleton_decomposition,
)
from .errors import ConfigurationError, ContractViolationError, NumericalFailureError
from .gp import ObservationSet, fit
from .kernels import AdditiveKernel, FactorKernel, cross_factor
from .maxsum import MaxSumConfig, solve

# refuse centralized joint grids beyond this many points
MAX_JOINT_GRID = 4_000_000


@dataclass(frozen=True)
class RunConfig:
    """A run description, validated on construction like a CLI config.

    The fields are the keys of a config document (see fgbo.config); a field
    left None takes config's default, and nested dicts may be partial.
    Construction runs them through config.validate_config, so a bad value
    raises ConfigurationError, and stores the canonical values.
    """

    objective: object  # name, prior-sample spec dict, or SyntheticObjective
    algorithm: str
    iterations: int
    seed: int
    initial_evaluations: int | None = None
    noise_variance: float | None = None
    decomposition: dict | None = None
    beta: dict | None = None
    grid_caps: list | tuple | None = None
    maxsum: dict | None = None
    gp: dict | None = None
    measure_wall_time: bool | None = None
    optimum_value: float | None = None

    def __post_init__(self):
        given = {f.name: getattr(self, f.name) for f in fields(self)}
        canonical = validate_config({k: v for k, v in given.items() if v is not None})
        for name, value in canonical.items():
            object.__setattr__(self, name, value)

    def to_canonical_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        if isinstance(self.objective, SyntheticObjective):
            doc["objective"] = {"kind": self.objective.kind.value, "in_memory": True}
        return copy.deepcopy(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Construct from a config document or a manifest's canonical config."""
        return cls(**validate_config(doc))


@dataclass(frozen=True)
class IterationRecord:
    t: int
    x: np.ndarray  # natural coordinates
    y: float  # observed (noisy) value, maximization orientation
    f: float  # true value, natural orientation
    r: float  # instantaneous regret (nan when optimum unknown)
    R: float  # cumulative regret
    best: float  # best-so-far simple regret
    wall_ms: float
    rounds: int
    converged: int


@dataclass
class RunResult:
    records: list
    manifest: dict
    decomposition: Decomposition | None
    lookups_per_iteration: list
    perturbations: list  # t indices where repeat-query perturbation fired

    @property
    def final_simple_regret(self) -> float:
        return self.records[-1].best

    @property
    def cumulative_regret(self) -> float:
        return self.records[-1].R


def _resolve_objective(spec) -> SyntheticObjective:
    if isinstance(spec, SyntheticObjective):
        return spec
    if isinstance(spec, str):
        return make_objective(spec)
    kernel = AdditiveKernel(
        factors=tuple(
            FactorKernel(
                subset=tuple(s),
                signal_variance=spec["signal_variance"],
                lengthscales=(spec["lengthscale"],) * len(s),
            )
            for s in spec["subsets"]
        )
    )
    rng = np.random.default_rng(spec["sample_seed"])
    return prior_sample_objective(
        kernel, ((0.0, 1.0),) * spec["dims"], spec["grid_points"], rng
    )


def _resolve_decomposition(config: RunConfig, d: int, decomp_rng) -> tuple:
    """Returns (static Decomposition or None, mcmc spec or None).

    Random mode is drawn here, from the dedicated stream, and becomes static.
    """
    alg = config.algorithm
    spec = config.decomposition
    if alg == "random_search":
        return None, None
    if alg == "centralized_gp_ucb":
        return Decomposition(d=d, subsets=(tuple(range(d)),), max_factor_size=d), None
    if alg == "add_independent":
        return singleton_decomposition(d), None
    if spec["mode"] == "static":
        subsets = tuple(tuple(s) for s in spec["subsets"])
        dec = Decomposition(d=d, subsets=subsets, max_factor_size=spec["max_factor_size"])
        return dec, None
    if spec["mode"] == "random":
        dec = random_covering_decomposition(
            d,
            spec["max_factor_size"],
            decomp_rng,
            num_extra_overlaps=spec["num_extra_overlaps"],
        )
        return dec, None
    return None, spec


@dataclass
class ResolvedRun:
    config: RunConfig  # decomposition resolved to static where applicable
    objective: SyntheticObjective
    manifest: dict
    decomposition: Decomposition | None  # the static structure, if any
    mcmc: dict | None  # the mcmc spec when the structure is learned


def resolve(config: RunConfig) -> ResolvedRun:
    """Materialize the objective and any random decomposition.

    The manifest this produces fully determines the run; writing it before
    compute is the caller's (cli's) responsibility.
    """
    obj = _resolve_objective(config.objective)
    d = obj.dims
    decomp_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(3)[0])
    dec, mcmc_spec = _resolve_decomposition(config, d, decomp_rng)
    if config.algorithm == "dec_hbo" and mcmc_spec is None:
        resolved_spec = {
            "mode": "static",
            "subsets": [list(s) for s in dec.subsets],
            "max_factor_size": dec.max_factor_size,
        }
        config = replace(config, decomposition=resolved_spec)
    manifest = {
        "fgbo_version": __version__,
        "config": config.to_canonical_dict(),
    }
    return ResolvedRun(
        config=config,
        objective=obj,
        manifest=manifest,
        decomposition=dec,
        mcmc=mcmc_spec,
    )


def _nearest_unvisited(grid, start_idx: tuple, visited: set) -> tuple:
    """First unvisited grid point by L1 index distance, lexicographic ties."""
    d = grid.num_dims
    tau = grid.per_dim_points
    seen = {start_idx}
    heap = []

    def push(idx, dist):
        if idx not in seen:
            seen.add(idx)
            heapq.heappush(heap, (dist, idx))

    for j in range(d):
        for step in (-1, 1):
            v = start_idx[j] + step
            if 0 <= v < tau:
                push(start_idx[:j] + (v,) + start_idx[j + 1 :], 1)
    while heap:
        dist, idx = heapq.heappop(heap)
        if tuple(grid.point_at(idx)) not in visited:
            return idx
        for j in range(d):
            for step in (-1, 1):
                v = idx[j] + step
                if 0 <= v < tau:
                    push(idx[:j] + (v,) + idx[j + 1 :], dist + 1)
    return start_idx  # every grid point visited; allow the repeat


def _shared_hypers(config: RunConfig, y_model: np.ndarray) -> SharedHypers:
    sv = config.gp["signal_variance"]
    if sv is None:
        sv = max(float(np.var(y_model)), 1e-6)
    return SharedHypers(total_signal_variance=sv, lengthscales=config.gp["lengthscale"])


def run_resolved(res: ResolvedRun) -> RunResult:
    config = res.config
    obj = res.objective
    d = obj.dims
    lows = np.array([lo for lo, hi in obj.box])
    highs = np.array([hi for lo, hi in obj.box])
    sign = -1.0 if obj.minimize else 1.0
    if config.optimum_value is not None:
        g_star = sign * float(config.optimum_value)
    elif obj.known_optimum is not None:
        g_star = sign * obj.known_optimum
    else:
        g_star = None

    streams = np.random.SeedSequence(config.seed).spawn(3)
    decomp_rng = np.random.default_rng(streams[0])
    query_rng = np.random.default_rng(streams[1])
    noise_rng = np.random.default_rng(streams[2])

    static_dec, mcmc_spec = res.decomposition, res.mcmc

    X_unit: list = []
    y_obs: list = []
    visited: set = set()
    records: list = []
    lookups_per_iteration: list = []
    perturbations: list = []
    cumulative = 0.0
    best = math.inf

    def observe(u: np.ndarray, rounds: int, converged: int, wall_ms: float):
        nonlocal cumulative, best
        u = np.clip(u, 0.0, 1.0)
        x_nat = lows + u * (highs - lows)
        f_nat = evaluate(obj, x_nat)
        g_true = sign * f_nat
        y = sign * noisy_evaluate(obj, x_nat, config.noise_variance, noise_rng)
        if not (math.isfinite(f_nat) and math.isfinite(y)):
            raise NumericalFailureError(
                f"evaluation {len(y_obs) + 1}: objective value is not finite "
                f"(f={f_nat!r}, y={y!r})"
            )
        X_unit.append(u)
        y_obs.append(y)
        visited.add(tuple(u))
        t = len(y_obs)
        if g_star is None:
            r = float("nan")
            cum = float("nan")
            bst = float("nan")
        else:
            r = g_star - g_true
            cumulative += r
            cum = cumulative
            best = min(best, r)
            bst = best
        records.append(
            IterationRecord(
                t=t,
                x=x_nat,
                y=y,
                f=f_nat,
                r=r,
                R=cum,
                best=bst,
                wall_ms=wall_ms,
                rounds=rounds,
                converged=converged,
            )
        )

    for _ in range(config.initial_evaluations):
        observe(query_rng.uniform(size=d), rounds=0, converged=1, wall_ms=0.0)

    subsets_now = static_dec.subsets if static_dec is not None else None
    weights_now = None

    bcfg = config.beta
    mode = BetaMode(bcfg["mode"])
    mscfg = MaxSumConfig(
        max_rounds=config.maxsum["rounds"],
        damping=config.maxsum["damping"],
        tol=config.maxsum["tol"],
    )

    for i in range(1, config.iterations + 1):
        clock = time.monotonic() if config.measure_wall_time else None
        t_sel = len(y_obs) + 1
        try:
            if config.algorithm == "random_search":
                u = query_rng.uniform(size=d)
                lookups = 0
                rounds, converged = 0, 1
            else:
                y_arr = np.asarray(y_obs)
                center = float(y_arr.mean()) if config.gp["center_observations"] else 0.0
                y_model = y_arr - center
                hypers = _shared_hypers(config, y_model)
                if mcmc_spec is not None and (i - 1) % mcmc_spec["interval"] == 0:
                    obs_for_mcmc = ObservationSet(
                        np.asarray(X_unit), y_model, config.noise_variance
                    )
                    ensemble = sample_posterior(
                        obs_for_mcmc,
                        PriorConfig(
                            max_factor_size=mcmc_spec["max_factor_size"],
                            size_penalty=mcmc_spec["size_penalty"],
                        ),
                        McmcConfig(
                            chain_length=mcmc_spec["chain_length"],
                            burn_in=mcmc_spec["burn_in"],
                            thinning=mcmc_spec["thinning"],
                            num_samples=mcmc_spec["num_samples"],
                        ),
                        decomp_rng,
                        hypers=hypers,
                    )
                    subsets_now, weights_now = merge_for_acquisition(ensemble)
                kernel = induced_kernel(subsets_now, hypers)
                schedule = BetaSchedule(
                    mode=mode,
                    delta=bcfg["delta"],
                    num_factors=len(subsets_now),
                    dims=d,
                    box_edge=1.0,
                    lipschitz_a=bcfg["lipschitz_a"],
                    lipschitz_b=bcfg["lipschitz_b"],
                    fixed_value=bcfg["fixed_value"],
                )
                grid = grid_for_iteration(schedule, t_sel, config.grid_caps)
                if mode is BetaMode.DISCRETE_DOMAIN:
                    schedule = replace(
                        schedule, domain_size=grid.per_dim_points**d
                    )
                beta_value = beta(schedule, t_sel)
                observations = ObservationSet(
                    np.asarray(X_unit), y_model, config.noise_variance
                )
                posterior = fit(kernel, observations)
                if config.algorithm == "centralized_gp_ucb":
                    if grid.joint_size > MAX_JOINT_GRID:
                        raise ConfigurationError(
                            f"joint grid of {grid.joint_size} points exceeds "
                            f"centralized limit {MAX_JOINT_GRID}; lower grid_caps"
                        )
                    mean, var = posterior.objective_mean_var_batch(
                        grid.axes(tuple(range(d)))
                    )
                    ucb = mean + math.sqrt(beta_value) * np.sqrt(var)
                    idx = tuple(
                        int(v)
                        for v in np.unravel_index(
                            int(np.argmax(ucb)), (grid.per_dim_points,) * d
                        )
                    )
                    lookups = grid.joint_size
                    rounds, converged = 0, 1
                else:
                    acq = tabulate(posterior, grid, beta_value)
                    if weights_now is not None:
                        acq = replace(acq, weights=weights_now)
                    sol = solve(acq, config=mscfg)
                    idx = tuple(int(v) for v in sol.indices)
                    lookups = sol.diagnostics.total_lookups + sum(
                        tab.size for tab in acq.tables
                    )
                    rounds = sol.diagnostics.rounds_used
                    converged = int(sol.diagnostics.converged)
                if tuple(grid.point_at(idx)) in visited:
                    idx = _nearest_unvisited(grid, idx, visited)
                    perturbations.append(t_sel)
                u = grid.point_at(idx)
        except NumericalFailureError as exc:
            raise NumericalFailureError(
                f"iteration {t_sel}: {exc}", jitter=exc.jitter
            ) from exc
        wall = (
            (time.monotonic() - clock) * 1e3 if clock is not None else 0.0
        )
        observe(u, rounds=rounds, converged=converged, wall_ms=wall)
        lookups_per_iteration.append(lookups)

    return RunResult(
        records=records,
        manifest=res.manifest,
        decomposition=static_dec,
        lookups_per_iteration=lookups_per_iteration,
        perturbations=perturbations,
    )


def run(config: RunConfig) -> RunResult:
    return run_resolved(resolve(config))


def instantaneous_regret(
    obj: SyntheticObjective, x, optimum_value: float | None = None
) -> float:
    """Regret g(x*) - g(x) in the maximization orientation.

    optimum_value (natural orientation) overrides the objective's published
    optimum; required for objectives without one.
    """
    f_star = optimum_value if optimum_value is not None else obj.known_optimum
    if f_star is None:
        raise ContractViolationError("objective has no known optimum")
    sign = -1.0 if obj.minimize else 1.0
    return sign * f_star - sign * evaluate(obj, x)


def information_gain(
    kernel: AdditiveKernel, X: np.ndarray, noise_variance: float
) -> tuple[tuple[float, ...], float]:
    """Realized information gain per factor: log det(I + K_I / sn2) / 2."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise ContractViolationError("information gain needs >= 1 query")
    if noise_variance <= 0:
        raise ContractViolationError("noise variance must be > 0")
    gains = []
    for f in kernel.factors:
        U = f.restrict(X)
        K = cross_factor(f, U, U)
        M = np.eye(len(U)) + K / noise_variance
        sdet, logdet = np.linalg.slogdet(M)
        if sdet <= 0:
            raise NumericalFailureError("information gain determinant not positive")
        gains.append(max(0.5 * float(logdet), 0.0))
    return tuple(gains), float(sum(gains))


def write_trace_csv(result: RunResult, path) -> None:
    """Pinned trace format; floats at 17 significant digits."""
    d = len(result.records[0].x)
    cols = ["t"] + [f"x{j}" for j in range(d)] + [
        "y", "f", "r", "R", "best", "wall_ms", "rounds", "converged",
    ]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for rec in result.records:
            parts = [str(rec.t)]
            parts += ["%.17g" % v for v in rec.x]
            parts += [
                "%.17g" % rec.y,
                "%.17g" % rec.f,
                "%.17g" % rec.r,
                "%.17g" % rec.R,
                "%.17g" % rec.best,
                "%.17g" % rec.wall_ms,
                str(rec.rounds),
                str(rec.converged),
            ]
            fh.write(",".join(parts) + "\n")


def write_manifest(manifest: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
