"""Acquisition cost: factored max-sum vs centralized grid search.

Both algorithms optimize the same UCB surface on a tau-per-dimension grid
over the 4-d Shekel domain.  The centralized baseline scans all tau^4
joint points; max-sum over size-2 factors only ever touches tau^2-sized
tables, so its lookup count grows two orders more slowly.
"""

import numpy as np

from fgbo.engine import RunConfig, run

BETA = {"mode": "fixed_constant", "fixed_value": 4.0}


def lookups(algorithm: str, tau: int, decomposition=None) -> float:
    config = RunConfig(
        objective="shekel4",
        algorithm=algorithm,
        iterations=5,
        seed=0,
        initial_evaluations=3,
        decomposition=decomposition,
        grid_caps=(tau, tau),
        beta=dict(BETA),
    )
    return float(np.mean(run(config).lookups_per_iteration))


dec = {"mode": "random", "max_factor_size": 2, "num_extra_overlaps": 1}
print(" tau   dec_hbo(mf2)   centralized    tau^2     tau^4")
for tau in (4, 8, 16):
    a = lookups("dec_hbo", tau, dec)
    b = lookups("centralized_gp_ucb", tau)
    print(f"{tau:4d}  {a:12.0f}  {b:12.0f}  {tau**2:8d}  {tau**4:8d}")
print("\nlookup growth tracks tau^2 for the factored solver, tau^4 centralized")
