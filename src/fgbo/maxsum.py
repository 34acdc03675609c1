"""Max-sum message passing over the acquisition factor graph.

The summed acquisition max_x sum_I phi_I(x^I) is optimized by a discrete
factor graph: one variable node per input dimension (domain = the tau grid
values) and one factor node per subset I with table phi_I.  Messages follow

    m_{phi->x_i}(h) = max over h^{I\\i} of [ sum_{j in I\\i} m_{x_j->phi}(h_j)
                                             + phi(h^{I\\i}, h) ]
    m_{x_i->phi}(h) = sum over other incident factors of m_{phi'->x_i}(h)

with synchronous (Jacobi) rounds: every round-k message is a function of the
round-(k-1) table only, which makes runs deterministic and lets workers fill
disjoint slots of the next table.  Each message is blended with its
predecessor (damping) and normalized to max entry 0, which leaves argmaxes
unchanged but prevents drift on loopy graphs.

Decoding picks, per variable, the incident factor with the smallest
lexicographic subset and takes argmax_h of the edge belief
m_{phi->x_i}(h) + m_{x_i->phi}(h); ties break to the lowest grid index.
On trees this attains the exact maximum of sum_I phi_I.  On loopy graphs
messages may oscillate, so the solver decodes after every round and keeps
the assignment with the best achieved sum (anytime decoding); on trees the
best round coincides with the converged one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acquisition import DiscretizedAcquisition
from .errors import ContractViolationError

DEFAULT_ROUNDS = 30
DEFAULT_TOL = 1e-8


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

    @property
    def num_factors(self) -> int:
        return len(self.subsets)

    def value_of(self, indices) -> float:
        """Sum of factor tables at one joint grid-index assignment."""
        indices = tuple(int(i) for i in indices)
        return float(
            sum(
                tab[tuple(indices[j] for j in s)]
                for s, tab in zip(self.subsets, self.tables)
            )
        )


@dataclass(frozen=True)
class MessageTable:
    """All edge messages of one round; vectors indexed by grid value."""

    factor_to_var: dict
    var_to_factor: dict
    round: int

    @classmethod
    def zeros(cls, g: FactorGraph) -> "MessageTable":
        z = {e: np.zeros(g.num_values) for e in g.edges}
        zv = {(v, fi): np.zeros(g.num_values) for fi, v in g.edges}
        return cls(factor_to_var=z, var_to_factor=zv, round=0)


def _along_axis(msg: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = msg.shape[0]
    return msg.reshape(shape)


def factor_to_variable_message(
    g: FactorGraph, msgs: MessageTable, factor_index: int, variable: int
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
        aug = aug + _along_axis(msgs.var_to_factor[(j, factor_index)], q, k)
    if k == 1:
        return aug.copy()
    return aug.max(axis=tuple(q for q in range(k) if q != pos))


def variable_to_factor_message(
    g: FactorGraph, msgs: MessageTable, variable: int, factor_index: int
) -> np.ndarray:
    """Pointwise sum of the other incident factors' messages; zero if none."""
    if factor_index not in g.neighborhoods[variable]:
        raise ContractViolationError(
            f"factor {factor_index} not incident to variable {variable}"
        )
    out = np.zeros(g.num_values)
    for f2 in g.neighborhoods[variable]:
        if f2 != factor_index:
            out = out + msgs.factor_to_var[(f2, variable)]
    return out


@dataclass
class Diagnostics:
    """Everything observable about one solve, for tests and trace dumps."""

    rounds_used: int = 0
    converged: bool = False
    deltas: list = field(default_factory=list)
    message_lookups: int = 0
    decode_lookups: int = 0
    round_factor_lookups: list = field(default_factory=list)
    trace: list = field(default_factory=list)  # (round, max_delta, sigma_phi)
    best_value: float | None = None  # anytime decoding, filled by keep_best
    best_indices: np.ndarray | None = None

    @property
    def total_lookups(self) -> int:
        return self.message_lookups + self.decode_lookups


def run_rounds(
    g: FactorGraph,
    max_rounds: int,
    damping: float = 0.0,
    tol: float = DEFAULT_TOL,
    diagnostics: Diagnostics | None = None,
    record_trace: bool = False,
    keep_best: bool = False,
):
    """Synchronous rounds until the max message change falls below tol.

    Returns (messages, rounds_used, converged).  Every stored message is
    normalized to max entry 0; damping blends lambda*old + (1-lambda)*new
    before normalizing.  With keep_best (needs diagnostics) every round is
    decoded and the best assignment by summed table value is kept on the
    diagnostics; earlier rounds win ties.
    """
    if max_rounds < 1:
        raise ContractViolationError("max_rounds must be >= 1")
    if not 0.0 <= damping < 1.0:
        raise ContractViolationError("damping must lie in [0, 1)")
    if tol < 0:
        raise ContractViolationError("tol must be >= 0")
    msgs = MessageTable.zeros(g)
    converged = False
    rounds_used = 0
    for rnd in range(1, max_rounds + 1):
        delta = 0.0
        new_f2v = {}
        round_counts = [0] * g.num_factors
        for fi, v in g.edges:
            raw = factor_to_variable_message(g, msgs, fi, v)
            round_counts[fi] += g.tables[fi].size
            blended = damping * msgs.factor_to_var[(fi, v)] + (1.0 - damping) * raw
            nrm = blended - blended.max()
            delta = max(delta, float(np.abs(nrm - msgs.factor_to_var[(fi, v)]).max()))
            new_f2v[(fi, v)] = nrm
        new_v2f = {}
        for fi, v in g.edges:
            raw = variable_to_factor_message(g, msgs, v, fi)
            blended = damping * msgs.var_to_factor[(v, fi)] + (1.0 - damping) * raw
            nrm = blended - blended.max()
            delta = max(delta, float(np.abs(nrm - msgs.var_to_factor[(v, fi)]).max()))
            new_v2f[(v, fi)] = nrm
        msgs = MessageTable(factor_to_var=new_f2v, var_to_factor=new_v2f, round=rnd)
        rounds_used = rnd
        if diagnostics is not None:
            diagnostics.deltas.append(delta)
            diagnostics.message_lookups += sum(round_counts)
            diagnostics.round_factor_lookups.append(round_counts)
            if record_trace or keep_best:
                idx = decode(g, msgs, diagnostics=diagnostics)
                val = g.value_of(idx)
                if record_trace:
                    diagnostics.trace.append((rnd, delta, val))
                if keep_best and (
                    diagnostics.best_value is None or val > diagnostics.best_value
                ):
                    diagnostics.best_value = val
                    diagnostics.best_indices = idx
        if delta < tol:
            converged = True
            break
    if diagnostics is not None:
        diagnostics.rounds_used = rounds_used
        diagnostics.converged = converged
    return msgs, rounds_used, converged


def decode(
    g: FactorGraph, msgs: MessageTable, diagnostics: Diagnostics | None = None
) -> np.ndarray:
    """Per-variable argmax of the edge belief; deterministic tie-breaking.

    The incident factor is the one with the smallest lexicographic subset
    (then lowest factor index); value ties go to the lowest grid index.
    """
    out = np.empty(g.num_variables, dtype=int)
    for v in range(g.num_variables):
        fi = min(g.neighborhoods[v], key=lambda f: g.subsets[f])
        score = factor_to_variable_message(g, msgs, fi, v)
        score = score + variable_to_factor_message(g, msgs, v, fi)
        if diagnostics is not None:
            diagnostics.decode_lookups += g.tables[fi].size
        out[v] = int(np.argmax(score))
    return out


@dataclass(frozen=True)
class MaxSumConfig:
    max_rounds: int = DEFAULT_ROUNDS
    damping: float = 0.0
    tol: float = DEFAULT_TOL
    record_trace: bool = False


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray  # grid coordinates of the decoded assignment
    indices: np.ndarray  # per-dimension grid indices
    value: float  # achieved weighted sum of phi tables
    diagnostics: Diagnostics


def solve(acq: DiscretizedAcquisition, config: MaxSumConfig | None = None) -> SolveResult:
    """Build the graph from an acquisition, run rounds, decode, map back."""
    cfg = config if config is not None else MaxSumConfig()
    tables = tuple(
        acq.factor_weight(i) * acq.tables[i] for i in range(acq.num_factors)
    )
    g = FactorGraph(
        num_variables=acq.grid.num_dims,
        num_values=acq.grid.per_dim_points,
        subsets=acq.subsets,
        tables=tables,
    )
    diag = Diagnostics()
    run_rounds(
        g,
        cfg.max_rounds,
        damping=cfg.damping,
        tol=cfg.tol,
        diagnostics=diag,
        record_trace=cfg.record_trace,
        keep_best=True,
    )
    idx = diag.best_indices  # every round decodes, so this is never None
    x = acq.grid.point_at(idx)
    return SolveResult(x=x, indices=idx, value=g.value_of(idx), diagnostics=diag)


def dump_trace(diagnostics: Diagnostics, path) -> None:
    """Write the per-round trace as CSV: round, max_delta, sigma_phi."""
    with open(path, "w") as fh:
        fh.write("round,max_delta,sigma_phi\n")
        for rnd, delta, val in diagnostics.trace:
            fh.write("%d,%.17g,%.17g\n" % (rnd, delta, val))
