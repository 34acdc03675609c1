"""Max-sum message passing over the acquisition factor graph.

The summed acquisition max_x sum_I phi_I(x^I) is optimized by a discrete
factor graph: one variable node per input dimension (domain = the tau grid
values) and one factor node per subset I with table phi_I.
acquisition.tabulate builds that graph and solve runs on it.  Messages follow

    m_{phi->x_i}(h) = max over h^{I\\i} of [ sum_{j in I\\i} m_{x_j->phi}(h_j)
                                             + phi(h^{I\\i}, h) ]
    m_{x_i->phi}(h) = sum over other incident factors of m_{phi'->x_i}(h)

with synchronous (Jacobi) rounds: every round-k message is a function of the
round-(k-1) messages only, which makes runs deterministic.  Each message is
computed once per round, blended with its predecessor (damping) and
normalized to max entry 0, which leaves argmaxes unchanged but prevents
drift on loopy graphs.

Decoding picks, per variable, the incident factor with the smallest
lexicographic subset (its decoding edge) and takes argmax_h of the edge
belief m_{phi->x_i}(h) + m_{x_i->phi}(h), both computed from the round being
decoded; ties break to the lowest grid index.  On trees this attains the
exact maximum of sum_I phi_I.  On loopy graphs messages may oscillate, so
the solver decodes every round and keeps the assignment with the best
achieved sum (anytime decoding); on trees the best round coincides with the
converged one.

Round k's beliefs are exactly the raw (unblended, unnormalized) messages
that round k+1 computes from round k's messages, so decoding reuses them
instead of recomputing.  Only the last round's messages need an extra pass,
and that pass computes the decoding edges alone.  Lookup accounting follows:
message_lookups counts tau^|I| per factor-to-variable message per round, and
decode_lookups counts the table entries of that one final pass, one
decoding-edge message per variable per solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_MAXSUM
from .errors import ContractViolationError


class FactorGraph:
    """Immutable bipartite graph of variables and weighted phi tables.

    Variables are 0..num_variables-1 and every one must appear in at least
    one subset; orphan dimensions are a contract violation (the engine
    guarantees coverage by adding singleton factors when needed).
    """

    def __init__(self, num_variables: int, num_values: int, subsets, tables):
        self.num_variables = int(num_variables)
        self.num_values = int(num_values)
        self.subsets = tuple(tuple(int(j) for j in s) for s in subsets)
        self.tables = tuple(np.asarray(t, dtype=float) for t in tables)
        if self.num_variables < 1 or self.num_values < 1:
            raise ContractViolationError("graph needs >= 1 variable and value")
        if len(self.subsets) != len(self.tables):
            raise ContractViolationError("one table per subset required")
        covered = set()
        for s, tab in zip(self.subsets, self.tables):
            if len(s) == 0 or any(b <= a for a, b in zip(s, s[1:])):
                raise ContractViolationError(
                    f"subsets must be nonempty and strictly increasing, got {s}"
                )
            if s[0] < 0 or s[-1] >= self.num_variables:
                raise ContractViolationError(
                    f"subset {s} out of variable range [0, {self.num_variables})"
                )
            if tab.shape != (self.num_values,) * len(s):
                raise ContractViolationError(
                    f"table for {s} has shape {tab.shape}, "
                    f"expected {(self.num_values,) * len(s)}"
                )
            if not np.all(np.isfinite(tab)):
                raise ContractViolationError(f"table for {s} has non-finite entries")
            covered.update(s)
        orphans = set(range(self.num_variables)) - covered
        if orphans:
            raise ContractViolationError(
                f"variables {sorted(orphans)} belong to no factor"
            )
        self.neighborhoods = tuple(
            tuple(fi for fi, s in enumerate(self.subsets) if v in s)
            for v in range(self.num_variables)
        )
        self.edges = tuple(
            (fi, v) for fi, s in enumerate(self.subsets) for v in s
        )
        # per variable, the incident factor with the smallest subset
        # (lexicographic; the lowest factor index among equal subsets)
        self.decoding_edges = tuple(
            (min(nbhd, key=lambda f: self.subsets[f]), v)
            for v, nbhd in enumerate(self.neighborhoods)
        )

    def value_of(self, indices) -> float:
        """Sum of factor tables at one joint grid-index assignment."""
        indices = tuple(int(i) for i in indices)
        return float(
            sum(
                tab[tuple(indices[j] for j in s)]
                for s, tab in zip(self.subsets, self.tables)
            )
        )


def _along_axis(msg: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = msg.shape[0]
    return msg.reshape(shape)


def factor_to_variable_message(
    g: FactorGraph, var_to_factor: dict, factor_index: int, variable: int
) -> np.ndarray:
    """Max over the factor's other variables of (incoming messages + phi)."""
    s = g.subsets[factor_index]
    if variable not in s:
        raise ContractViolationError(
            f"variable {variable} not in factor subset {s}"
        )
    k = len(s)
    pos = s.index(variable)
    aug = g.tables[factor_index]
    for q, j in enumerate(s):
        if j == variable:
            continue
        aug = aug + _along_axis(var_to_factor[(j, factor_index)], q, k)
    if k == 1:
        return aug.copy()
    return aug.max(axis=tuple(q for q in range(k) if q != pos))


def variable_to_factor_message(
    g: FactorGraph, factor_to_var: dict, variable: int, factor_index: int
) -> np.ndarray:
    """Pointwise sum of the other incident factors' messages; zero if none."""
    if factor_index not in g.neighborhoods[variable]:
        raise ContractViolationError(
            f"factor {factor_index} not incident to variable {variable}"
        )
    out = np.zeros(g.num_values)
    for f2 in g.neighborhoods[variable]:
        if f2 != factor_index:
            out = out + factor_to_var[(f2, variable)]
    return out


@dataclass
class Diagnostics:
    """Everything observable about one solve, for tests and trace dumps."""

    rounds_used: int = 0
    converged: bool = False
    message_lookups: int = 0
    decode_lookups: int = 0
    trace: list = field(default_factory=list)  # (round, max_delta, sigma_phi)
    best_value: float | None = None  # anytime decoding: best round so far
    best_indices: np.ndarray | None = None

    @property
    def total_lookups(self) -> int:
        return self.message_lookups + self.decode_lookups


def _damped(old: dict, raw: dict, damping: float):
    """Blended messages normalized to max entry 0, and their max change."""
    new, delta = {}, 0.0
    for e, r in raw.items():
        blended = damping * old[e] + (1.0 - damping) * r
        nrm = blended - blended.max()
        delta = max(delta, float(np.abs(nrm - old[e]).max()))
        new[e] = nrm
    return new, delta


def run_rounds(
    g: FactorGraph,
    max_rounds: int,
    damping: float = DEFAULT_MAXSUM["damping"],
    tol: float = DEFAULT_MAXSUM["tol"],
) -> Diagnostics:
    """Synchronous rounds until the max message change falls below tol.

    Every stored message is normalized to max entry 0; damping blends
    lambda*old + (1-lambda)*new before normalizing.  Every round is decoded
    and the assignment with the best summed table value is kept; earlier
    rounds win ties.  A round's messages are decoded from the raw messages
    the next round computes from them, so after the last round only the
    decoding edges are computed, and those are the decode lookups.
    """
    if max_rounds < 1:
        raise ContractViolationError("max_rounds must be >= 1")
    if not 0.0 <= damping < 1.0:
        raise ContractViolationError("damping must lie in [0, 1)")
    if tol < 0:
        raise ContractViolationError("tol must be >= 0")
    diag = Diagnostics()
    f2v = {e: np.zeros(g.num_values) for e in g.edges}
    v2f = {(v, fi): np.zeros(g.num_values) for fi, v in g.edges}
    delta = math.inf
    for rnd in range(max_rounds + 1):  # f2v and v2f hold round rnd
        last = rnd == max_rounds or delta < tol
        edges = g.decoding_edges if last else g.edges
        raw_f2v = {(fi, v): factor_to_variable_message(g, v2f, fi, v) for fi, v in edges}
        raw_v2f = {(v, fi): variable_to_factor_message(g, f2v, v, fi) for fi, v in edges}
        lookups = sum(g.tables[fi].size for fi, _ in edges)
        if rnd > 0:
            idx = decode(g, raw_f2v, raw_v2f)
            val = g.value_of(idx)
            diag.trace.append((rnd, delta, val))
            if diag.best_value is None or val > diag.best_value:
                diag.best_value = val
                diag.best_indices = idx
        if last:
            diag.decode_lookups = lookups
            diag.rounds_used = rnd
            diag.converged = delta < tol
            return diag
        diag.message_lookups += lookups
        f2v, delta_f2v = _damped(f2v, raw_f2v, damping)
        v2f, delta_v2f = _damped(v2f, raw_v2f, damping)
        delta = max(delta_f2v, delta_v2f)


def decode(g: FactorGraph, factor_to_var: dict, var_to_factor: dict) -> np.ndarray:
    """Per-variable argmax of the edge belief; deterministic tie-breaking.

    The messages are the raw ones computed from the round being decoded,
    and only the decoding edges (g.decoding_edges) are read: the belief of
    variable v is factor_to_var[(fi, v)] + var_to_factor[(v, fi)] for the
    incident factor fi with the smallest lexicographic subset (then lowest
    factor index).  Value ties go to the lowest grid index.
    """
    out = np.empty(g.num_variables, dtype=int)
    for fi, v in g.decoding_edges:
        out[v] = int(np.argmax(factor_to_var[(fi, v)] + var_to_factor[(v, fi)]))
    return out


@dataclass(frozen=True)
class SolveResult:
    indices: np.ndarray  # per-dimension grid indices of the best assignment
    diagnostics: Diagnostics


def solve(
    g: FactorGraph,
    rounds: int = DEFAULT_MAXSUM["rounds"],
    damping: float = DEFAULT_MAXSUM["damping"],
    tol: float = DEFAULT_MAXSUM["tol"],
) -> SolveResult:
    """Run rounds on the acquisition graph and return its best assignment."""
    diag = run_rounds(g, rounds, damping=damping, tol=tol)
    return SolveResult(indices=diag.best_indices, diagnostics=diag)


def dump_trace(diagnostics: Diagnostics, path) -> None:
    """Write the per-round trace as CSV: round, max_delta, sigma_phi."""
    with open(path, "w") as fh:
        fh.write("round,max_delta,sigma_phi\n")
        for rnd, delta, val in diagnostics.trace:
            fh.write("%d,%.17g,%.17g\n" % (rnd, delta, val))
