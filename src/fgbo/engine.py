"""The Bayesian-optimization outer loop and its baselines.

One run is one loop over t = 1 .. t0 + n that selects a query and
evaluates it: uniform-random for the t0 initial evaluations, then n
iterations of fit posterior -> grid(t) -> beta(t) -> tabulate -> select.
Each evaluation appends one IterationRecord, and every per-iteration output
is a projection of that list: the trace, RunResult.lookups_per_iteration
(the records after t0) and RunResult.perturbations (the t of each record
whose query the repeat rule moved).

tabulate returns the acquisition factor graph for every model-based
algorithm; they differ in its factors and in how the query is selected:

    dec_hbo             max-sum over the decomposition's factor graph
    add_independent     dec_hbo with per-dimension singleton factors
    centralized_gp_ucb  one factor over all d inputs; the first C-order
                        argmax of its table, with no solver
    random_search       uniform random queries, no model

An iteration's lookups are its table entries plus the solver's lookups.
A run with a static structure makes one kernels.GramBlocks cache for its
fits; its lengthscale is a config constant and induced_kernel gives every
factor the same signal variance, so every fit reads the same unscaled sum
and the cache holds one t x t sum for the run.  Only
decomposition's memoised bitmask tables outlive a run; they are kept for
speed, and grow only with the distinct subset masks the chains have met.

Everything runs internally on the unit box (the schedules' box edge r is
1); queries are mapped back to the objective's natural box for evaluation
and logging.  Objectives flagged minimize=True are negated, so the engine
always maximizes g and reports the regret r_t = g(x*) - g(x_t).

Configuration: config.RunConfig (re-exported here) runs its fields through
config.validate_config, so it holds canonical values with every nested key
present, and this module reads them directly; the defaults and the checks
live only in config.  A CLI run builds its RunConfig once, from the config
file, and nothing here validates it again.  resolve draws any random
decomposition once, hands the static structure to run_resolved and writes
it into the manifest, and checks the exploration schedule once for every
iteration.

Reproducibility: the seed spawns three independent child streams
(decomposition, queries, noise), so re-running a manifest whose random
decomposition was resolved to static subsets leaves the query and noise
streams untouched and the trace byte-identical.  Wall-clock timing is
opt-in (measure_wall_time); the default writes wall_ms as 0.0 because real
timing would break that byte-identity.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .acquisition import BetaSchedule, beta, grid_for_iteration, tabulate
from .bench import (
    SyntheticObjective,
    evaluate,
    make_objective,
    noisy_evaluate,
    prior_sample_objective,
)
from .config import RunConfig
from .decomposition import (
    Decomposition,
    McmcConfig,
    SharedHypers,
    induced_kernel,
    merge_for_acquisition,
    full_decomposition,
    random_covering_decomposition,
    sample_posterior,
    singleton_decomposition,
)
from .errors import ConfigurationError, NumericalFailureError
from .gp import ObservationSet, fit
from .kernels import AdditiveKernel, FactorKernel, GramBlocks
from .maxsum import solve

# refuse centralized joint grids beyond this many points
MAX_JOINT_GRID = 4_000_000


@dataclass(frozen=True)
class IterationRecord:
    t: int
    x: np.ndarray  # natural coordinates
    y: float  # observed (noisy) value, maximization orientation
    f: float  # true value, natural orientation
    r: float  # instantaneous regret (nan when optimum unknown)
    R: float  # cumulative regret
    best: float  # best-so-far simple regret
    # the defaults are an evaluation's with no model-based selection: an
    # initial evaluation or a random_search query
    wall_ms: float = 0.0  # selection time after t0, when measured
    rounds: int = 0  # max-sum rounds
    converged: int = 1
    lookups: int = 0  # table entries plus the solver's lookups
    perturbed: bool = False  # the repeat rule moved the query
    beta: float = 0.0  # exploration coefficient of the tables
    tau: int = 0  # grid points per dimension
    num_factors: int = 0  # factors of the acquisition graph
    jitter: float = 0.0  # added to the Gram diagonal by the fit


@dataclass
class RunResult:
    records: list  # one IterationRecord per evaluation, t = 1, 2, ...
    manifest: dict
    decomposition: Decomposition | None

    @property
    def lookups_per_iteration(self) -> list:
        """The lookups of each iteration after the initial evaluations."""
        t0 = self.manifest["config"]["initial_evaluations"]
        return [rec.lookups for rec in self.records[t0:]]

    @property
    def perturbations(self) -> list:
        """The t of each iteration where the repeat rule moved the query."""
        return [rec.t for rec in self.records if rec.perturbed]

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
    """Returns (static Decomposition or None, McmcConfig or None).

    Random mode is drawn here, from the dedicated stream, and becomes static.
    """
    alg = config.algorithm
    spec = config.decomposition
    if alg == "random_search":
        return None, None
    if alg == "centralized_gp_ucb":
        return full_decomposition(d), None
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
    return None, McmcConfig(**{k: v for k, v in spec.items() if k not in ("mode", "interval")})


@dataclass
class ResolvedRun:
    config: RunConfig  # as given; the manifest holds the resolved structure
    objective: SyntheticObjective
    manifest: dict
    decomposition: Decomposition | None  # the static structure, if any
    mcmc: McmcConfig | None  # the sampler's settings when the structure is learned


def resolve(config: RunConfig) -> ResolvedRun:
    """Materialize the objective and any random decomposition, and check the
    schedule: log(2|U|a/delta) grows with |U| and tau_t with t, so the grid
    at the fewest factors and the last iteration refuses what any
    iteration's would (a non-positive log, a joint grid over MAX_JOINT_GRID).
    beta grows with t, so for a static structure, whose |U| is fixed, beta
    at the last iteration is the largest, and a non-finite one is refused
    here.  Under MCMC |U| varies with the samples; there the refusal is the
    ConfigurationError (exit 3 from the CLI) of the first iteration whose
    beta is not finite.

    The manifest this produces fully determines the run; writing it before
    compute is the caller's (cli's) responsibility.
    """
    obj = _resolve_objective(config.objective)
    d = obj.dims
    decomp_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(3)[0])
    dec, mcmc = _resolve_decomposition(config, d, decomp_rng)
    if config.algorithm != "random_search":
        if dec is not None:
            fewest = len(dec.subsets)
        else:  # mcmc: each sample covers d inputs, max_factor_size at a time
            fewest = math.ceil(d / mcmc.max_factor_size)
        last = config.initial_evaluations + config.iterations
        schedule = BetaSchedule(**config.beta, num_factors=fewest, dims=d)
        grid = grid_for_iteration(schedule, last, config.grid_caps)
        if config.algorithm == "centralized_gp_ucb" and grid.joint_size > MAX_JOINT_GRID:
            raise ConfigurationError(
                f"joint grid of {grid.joint_size} points exceeds "
                f"centralized limit {MAX_JOINT_GRID}; lower grid_caps"
            )
        if dec is not None:
            beta(schedule, last, grid.joint_size)
    canonical = config.to_canonical_dict()
    if config.algorithm == "dec_hbo" and mcmc is None:
        # the canonical static spec, as validate_config would write it
        canonical["decomposition"] = {
            "mode": "static",
            "subsets": [list(s) for s in dec.subsets],
            "max_factor_size": dec.max_factor_size,
        }
    manifest = {"fgbo_version": __version__, "config": canonical}
    return ResolvedRun(
        config=config,
        objective=obj,
        manifest=manifest,
        decomposition=dec,
        mcmc=mcmc,
    )


def _nearest_unvisited(grid, start_idx: tuple, visited: set) -> tuple:
    """First unvisited grid point by L1 index distance from start_idx,
    lexicographic ties; start_idx itself when every point is visited.

    Points are looked up as tuples of Python floats, which hash and compare
    equal to the np.float64 coordinates that visited holds.
    """
    axis = grid.axis.tolist()
    seen = {start_idx}
    heap = [(0, start_idx)]
    while heap:
        dist, idx = heapq.heappop(heap)
        if tuple(axis[i] for i in idx) not in visited:
            return idx
        for j in range(grid.num_dims):
            for v in (idx[j] - 1, idx[j] + 1):
                if 0 <= v < grid.per_dim_points:
                    nxt = idx[:j] + (v,) + idx[j + 1 :]
                    if nxt not in seen:
                        seen.add(nxt)
                        heapq.heappush(heap, (dist + 1, nxt))
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

    static_dec, mcmc = res.decomposition, res.mcmc
    t0 = config.initial_evaluations
    # under MCMC the fit's factors change at every refresh, and a cache
    # frees no block: caching raised the peak RSS of long runs and saved no
    # measurable time
    blocks = None if mcmc else GramBlocks(t0 + config.iterations)

    X_unit: list = []
    y_obs: list = []
    visited: set = set()
    records: list = []
    cumulative = 0.0
    # with no known optimum every regret is NaN, and so is every best
    best = math.inf if g_star is not None else math.nan
    subsets_now = static_dec.subsets if static_dec is not None else None
    weights_now = None

    for t in range(1, t0 + config.iterations + 1):
        clock = time.monotonic() if config.measure_wall_time and t > t0 else None
        solved = {}  # the IterationRecord fields the selection computed
        try:
            if t <= t0 or config.algorithm == "random_search":
                u = query_rng.uniform(size=d)
            else:
                y_arr = np.asarray(y_obs)
                center = float(y_arr.mean()) if config.gp["center_observations"] else 0.0
                y_model = y_arr - center
                hypers = _shared_hypers(config, y_model)
                observations = ObservationSet(
                    np.asarray(X_unit), y_model, config.noise_variance
                )
                if mcmc is not None and (t - t0 - 1) % config.decomposition["interval"] == 0:
                    samples = sample_posterior(observations, mcmc, decomp_rng, hypers=hypers)
                    subsets_now, weights_now = merge_for_acquisition(samples)
                kernel = induced_kernel(subsets_now, hypers)
                schedule = BetaSchedule(**config.beta, num_factors=len(subsets_now), dims=d)
                grid = grid_for_iteration(schedule, t, config.grid_caps)
                beta_value = beta(schedule, t, grid.joint_size)
                posterior = fit(kernel, observations, blocks)
                acq = tabulate(posterior, grid, beta_value, weights_now)
                solved.update(
                    beta=beta_value,
                    tau=grid.per_dim_points,
                    num_factors=len(subsets_now),
                    jitter=posterior.jitter,
                    lookups=sum(tab.size for tab in acq.tables),
                )
                if config.algorithm == "centralized_gp_ucb":
                    # one factor over all d inputs: scan its table
                    table = acq.tables[0]
                    idx = np.unravel_index(int(np.argmax(table)), table.shape)
                else:
                    sol = solve(acq, **config.maxsum)
                    idx, diag = sol.indices, sol.diagnostics
                    solved["lookups"] += diag.total_lookups
                    solved["rounds"] = diag.rounds_used
                    solved["converged"] = int(diag.converged)
                idx = tuple(int(v) for v in idx)
                if tuple(grid.point_at(idx)) in visited:
                    moved = _nearest_unvisited(grid, idx, visited)
                    solved["perturbed"] = moved != idx
                    idx = moved
                u = grid.point_at(idx)
        except NumericalFailureError as exc:
            raise NumericalFailureError(
                f"iteration {t}: {exc}", jitter=exc.jitter
            ) from exc
        if clock is not None:
            solved["wall_ms"] = (time.monotonic() - clock) * 1e3

        u = np.clip(u, 0.0, 1.0)
        x_nat = lows + u * (highs - lows)
        f_nat = evaluate(obj, x_nat)
        y = sign * noisy_evaluate(obj, x_nat, config.noise_variance, noise_rng)
        if not (math.isfinite(f_nat) and math.isfinite(y)):
            raise NumericalFailureError(
                f"evaluation {t}: objective value is not finite "
                f"(f={f_nat!r}, y={y!r})"
            )
        X_unit.append(u)
        y_obs.append(y)
        visited.add(tuple(u))
        r = math.nan if g_star is None else g_star - sign * f_nat
        cumulative += r
        best = min(best, r)
        records.append(
            IterationRecord(t=t, x=x_nat, y=y, f=f_nat, r=r, R=cumulative, best=best, **solved)
        )

    return RunResult(records=records, manifest=res.manifest, decomposition=static_dec)


def run(config: RunConfig) -> RunResult:
    return run_resolved(resolve(config))


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
