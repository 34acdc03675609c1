"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark runs on a few cores of a shared host, and other tenants' load
changes how fast it runs from one second to the next.  The same
deterministic h6_mcmc run, repeated in one process for 75 s, took 1.10-1.55 s
as the median of one 15-second window against another.  The kernel runs the
same mix of work as fgbo, without fgbo's code: Python tuples, sets and
sorting as in the MCMC move enumeration, small Cholesky factorisations as in
the evidence, a matrix product and elementwise array work.  It does the same
work on every call.

A child times it just before and just after its run; the mean over
REFERENCE_S is the machine's slow-down factor around the run.  The benchmark
divides the run's timings by that factor, so they read as seconds on the
machine at its REFERENCE_S speed, and a change to fgbo moves them as much as
it moves wall time.
"""

from __future__ import annotations

import time

import numpy as np

# typical time of one kernel() on the shared 2-core machine the benchmark was
# tuned on (0.04-0.09 s); a fixed constant, so results of checkouts compare
REFERENCE_S = 0.07

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((20, 20))
_SPD = _A @ _A.T + 20.0 * np.eye(20)
_GEMM = _RNG.standard_normal((120, 120))
_VEC = _RNG.standard_normal(50_000)


def _python_work() -> int:
    total = 0
    for r in range(400):
        parts = [tuple(sorted({(i * 7 + r + k) % 11 for i in range(k)})) for k in range(1, 8)]
        seen: set = set()
        for a in parts:
            for b in parts:
                union = tuple(sorted(set(a) | set(b)))
                if union not in seen:
                    seen.add(union)
                    total += len(union)
    return total


def _numpy_work() -> float:
    total = 0.0
    for _ in range(600):
        chol = np.linalg.cholesky(_SPD)
        total += float(np.linalg.solve(chol, _SPD[0]).sum())
    for _ in range(40):
        total += float((_GEMM @ _GEMM).trace())
    for _ in range(40):
        total += float(np.exp(-0.5 * _VEC * _VEC).sum())
    return total


def kernel() -> float:
    """Seconds one pass of the reference kernel took."""
    start = time.perf_counter()
    _python_work()
    _numpy_work()
    return time.perf_counter() - start


def slowdown(kernel_s: list[float]) -> float:
    """The machine's slow-down factor, from kernel() times taken around a run."""
    return sum(kernel_s) / len(kernel_s) / REFERENCE_S
