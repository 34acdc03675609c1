"""Decentralized maximization of a table-valued factor graph.

Max-sum passes messages between variables and factors instead of scanning
the joint grid.  On this loopy 4-variable graph it recovers the exact
maximizer, which brute force confirms by scanning all tau^4 assignments.
"""

import itertools

import numpy as np

from fgbo.maxsum import FactorGraph, solve

rng = np.random.default_rng(7)
tau = 6
subsets = [(0, 1), (1, 2), (2, 3), (0, 3)]  # a 4-cycle: loopy on purpose
tables = [rng.normal(size=(tau, tau)) for _ in subsets]
g = FactorGraph(num_variables=4, num_values=tau, subsets=subsets, tables=tables)

sol = solve(g, rounds=30, damping=0.0)
idx, diag = sol.indices, sol.diagnostics
print(f"max-sum: {diag.rounds_used} rounds, converged={diag.converged}")
print(f"decoded assignment {tuple(int(v) for v in idx)}  value {g.value_of(idx):+.5f}")

best_val, best_idx = -np.inf, None
for assign in itertools.product(range(tau), repeat=4):
    v = g.value_of(assign)
    if v > best_val:
        best_val, best_idx = v, assign
print(f"brute force ({tau**4} assignments): {best_idx}  value {best_val:+.5f}")
print(f"agreement: {g.value_of(idx) == best_val}")
