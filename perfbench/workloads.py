"""The benchmark's workloads: each turns a seed into one raw fgbo config.

Every workload is a closed loop with one client: one optimisation run in one
process, each iteration waiting for the observation of the previous one.
The seed is the run's seed; the program receives only the generated config.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

_TABLE1_BETA = {"mode": "fixed_constant", "fixed_value": 4.0}
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    iterations: int
    # Runs of different seeds differ in work and regret, so benchmark seed s
    # stands for the run seeds SEED_STRIDE*s ... SEED_STRIDE*s + num_run_seeds - 1
    # and the metrics average over them.
    num_run_seeds: int
    build: Callable[[int, int], dict]  # (run seed, iterations) -> raw config

    def run_seeds(self, seed: int) -> list[int]:
        return [SEED_STRIDE * seed + j for j in range(self.num_run_seeds)]


def _table1_cell(benchmark: str, label: str):
    def build(seed: int, iterations: int) -> dict:
        from fgbo import cli

        return cli.benchmark_run_config(benchmark, label, seed, iterations)

    return build


# The shipped MCMC config refreshes every 10 iterations with a 2000-step
# chain, about 30 s per refresh on 2 cores.  With refreshes that rare, the
# few in a run set its time: at 100 steps and interval 10, run_s and the
# iteration latencies of 4 run seeds spread 24-40% between benchmark seeds.
# So the benchmark refreshes every iteration with a short chain: every gap
# then holds one refresh, and each run averages 12 independent chains.
# Prior, factor size cap and sample count stay as shipped.
MCMC_CHAIN = {"chain_length": 16, "burn_in": 4, "thinning": 3, "interval": 1}


def _mcmc(seed: int, iterations: int) -> dict:
    from fgbo import config

    raw = config.load_config_file(str(ROOT / "configs" / "mcmc_decomposition.json"))
    raw["decomposition"] = dict(raw["decomposition"], **MCMC_CHAIN)
    return dict(raw, seed=seed, iterations=iterations)


def _s4_central(seed: int, iterations: int) -> dict:
    return {
        "objective": "shekel4",
        "algorithm": "centralized_gp_ucb",
        "iterations": iterations,
        "seed": seed,
        "initial_evaluations": 5,
        "noise_variance": 0.01,
        "beta": dict(_TABLE1_BETA),
        "grid_caps": [2, 16],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("h6_mf3", 20, 12, _table1_cell("hartmann6", "mf3")),
        Workload("h6_mcmc", 12, 12, _mcmc),
        Workload("m10_add", 300, 5, _table1_cell("michalewicz10", "add")),
        Workload("s4_central", 40, 4, _s4_central),
    )
}
