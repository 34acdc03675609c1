"""Max-sum message passing over the acquisition factor graph.

The summed acquisition max_x sum_I phi_I(x^I) is optimized by a discrete
factor graph: one variable node per input dimension (domain = the tau grid
values) and one factor node per subset I with table phi_I.
acquisition.tabulate builds that graph and solve runs on it.  Messages follow

    m_{phi->x_i}(h) = max over h^{I\\i} of [ sum_{j in I\\i} m_{x_j->phi}(h_j)
                                             + phi(h^{I\\i}, h) ]
    m_{x_i->phi}(h) = sum over other incident factors of m_{phi'->x_i}(h)

with synchronous (Jacobi) rounds: every round-k message is a function of the
round-(k-1) messages only, which makes runs deterministic.  Each round's raw
message is blended with its predecessor (damping) and normalized to max
entry 0, which leaves argmaxes unchanged but prevents drift on loopy graphs.

A factor's raw messages are a pure function of its table and its incoming
messages, so a round computes them only for the factors whose incoming
messages changed in the last round, bit for bit; every other factor keeps
the raw messages it computed last (the rows are compared as bit patterns,
so equal rows are identical inputs).  A unary factor reads no incoming
message, and its message, a copy of phi, is computed once per solve.  The
floats, the schedule and the decoded rounds are those of computing every
message every round.

A factor's messages are computed together, by eliminating one variable at a
time (the distributive law of max over +).  The defining order adds the
other incoming messages onto phi in subset order and then maximizes.
Rounding to nearest is monotone, max_i fl(a_i + c) = fl(max_i a_i + c), so a
variable can be maximized out right after its message is added: every later
add is a monotone map that does not read it.  With P_0 = phi and P_j the
max over position j-1 of fl(P_{j-1} + m_{j-1}), the message to position p
starts from P_p, then for each q > p in order adds m_q and maximizes out
position q.  These are the defining floats, bit for bit, with the same adds
in the same order.  A factor of arity k >= 2 sweeps its full table twice:
P_1, the max over position 0 of fl(phi + m_0), which the messages to
positions 1..k-1 share, and the max over position 1 of fl(phi + m_1), the
first step of the message to position 0.  Every other step reads a
tau^(k-1) array or smaller.  A 1-ary factor's message is a copy of phi.

Each of the two full-table eliminations reads phi and one incoming row, m_0
or m_1, so a solve keeps both per factor from round to round and
recomputes one only in a round after its row of the variable-to-factor
messages changed bit for bit: the row flags the stale rule computes.  A
kept elimination is the one its identical inputs would give again, so the
floats are unchanged.  The row stays unchanged for a whole solve when its
variable is in no other factor.  The steps that read the other rows, over
tau^(k-1) entries or fewer, run in every round that recomputes the
factor.  A variable's message to a factor is summed from zeros over its
other incident factors' messages, in factor order.

A solve keeps its messages in two (edges x tau) arrays, factor to variable
and variable to factor, whose row r is the edge FactorGraph.edges[r]; each
round's raw messages go into two arrays of the same shape.  The graph
precomputes the rows the loop reads: each factor's rows in subset order
(factor_rows), each edge's variable's other rows in factor order
(other_rows), the same rows as layers (other_layers: layer j adds every
edge's j-th other row, so the layers add from zeros in factor order, one
array operation each) and each variable's decoding row (decoding_rows).
The damping step blends, normalizes and measures the change of all
messages of one kind at once; it is elementwise and per row, so its floats
are those of one message at a time.

Decoding picks, per variable, the incident factor with the smallest
lexicographic subset, then the lowest factor index (its decoding edge), and
takes argmax_h of the edge belief m_{phi->x_i}(h) + m_{x_i->phi}(h), both
computed from the round being decoded; ties break to the lowest grid index.
On trees this attains the exact maximum of sum_I phi_I.  On loopy graphs
messages may oscillate, so the solver decodes every round and keeps the
assignment with the best achieved sum (anytime decoding); on trees the best
round coincides with the converged one.

Round k's beliefs are exactly the raw (unblended, unnormalized) messages
that round k+1 computes from round k's messages, so decoding reuses them
instead of recomputing.  Only the last round's messages need an extra pass,
an ordinary pass, decoded and not damped, by the same rule of computing
only the factors whose incoming messages changed.  Lookup accounting is the
paper's cost model, not the entries the elimination touches, and it counts
every message whether it was computed or kept: message_lookups counts
tau^|I| per factor-to-variable message per round, and decode_lookups counts
tau^|I| per decoding-edge message of that one final pass, one per variable
per solve: the cost model's decoding, although the pass computes every
message of each factor it recomputes.  computed_lookups counts the same
tau^|I| for the messages of the factors a round recomputes, every message
of the final pass included.  It does not discount the kept eliminations,
so it is an upper bound on the table entries the solve sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_MAXSUM
from .errors import ContractViolationError, check_counts, check_indices, check_real, check_subsets


class FactorGraph:
    """Immutable bipartite graph of variables and weighted phi tables.

    Variables are 0..num_variables-1 and every one must appear in at least
    one subset; orphan dimensions are a contract violation (the engine
    guarantees coverage by adding singleton factors when needed).
    """

    def __init__(self, num_variables: int, num_values: int, subsets, tables):
        check_counts(ContractViolationError, 1, num_variables=num_variables, num_values=num_values)
        self.num_variables = int(num_variables)
        self.num_values = int(num_values)
        self.subsets = check_subsets(subsets)
        try:
            self.tables = tuple(np.asarray(t, dtype=float) for t in tables)
        except (TypeError, ValueError) as exc:
            raise ContractViolationError(f"tables must be numeric arrays: {exc}") from exc
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
        # the message arrays' rows, factor-major, each factor in subset order
        self.edges = tuple((fi, v) for fi, s in enumerate(self.subsets) for v in s)
        # each factor's rows in subset order, each variable's in factor order
        factor_rows = [[] for _ in self.subsets]
        var_rows = [[] for _ in range(self.num_variables)]
        for r, (fi, v) in enumerate(self.edges):
            factor_rows[fi].append(r)
            var_rows[v].append(r)
        self.factor_rows = tuple(tuple(rows) for rows in factor_rows)
        # per edge, the rows of its variable's other edges, in factor order
        self.other_rows = tuple(
            tuple(r2 for r2 in var_rows[v] if r2 != r)
            for r, (fi, v) in enumerate(self.edges)
        )
        # the same rows in layers: layer j holds (edge rows, their j-th
        # other rows), so adding the layers in order onto zeros sums each
        # edge's other rows in factor order
        layers = []
        for r, others in enumerate(self.other_rows):
            for j, r2 in enumerate(others):
                if j == len(layers):
                    layers.append(([], []))
                layers[j][0].append(r)
                layers[j][1].append(r2)
        self.other_layers = tuple((np.array(t), np.array(o)) for t, o in layers)
        # per variable, the row of the incident factor with the smallest
        # subset (lexicographic; the lowest factor index among equal subsets)
        self.decoding_rows = np.array(
            [min(rows, key=lambda r: self.subsets[self.edges[r][0]]) for rows in var_rows]
        )

    def value_of(self, indices) -> float:
        """Sum of factor tables at one joint grid-index assignment."""
        return self._value(check_indices(indices, self.num_variables, self.num_values))

    def _value(self, indices) -> float:
        """value_of for indices known to be num_variables ints in range."""
        return float(
            sum(
                tab[tuple(indices[j] for j in s)]
                for s, tab in zip(self.subsets, self.tables)
            )
        )


def _eliminate(array: np.ndarray, msg: np.ndarray, axis: int) -> np.ndarray:
    """max over axis of fl(array + msg along axis)."""
    shape = [1] * array.ndim
    shape[axis] = msg.shape[0]
    return (array + msg.reshape(shape)).max(axis=axis)


def factor_messages(table: np.ndarray, incoming, elim0=None, elim1=None) -> list:
    """One factor's messages to its variables, in subset order, by
    eliminating one variable at a time.

    incoming[q] is the message from the variable at subset position q.  The
    floats equal the defining order's (see the module docstring): prefix is
    P_p, with positions < p maximized out, so its axis 0 is position p.  A
    factor of arity >= 2 sweeps its full table twice: elim0 = P_1 =
    _eliminate(table, incoming[0], 0) and elim1 = _eliminate(table,
    incoming[1], 1), the first step of the message to position 0.  A caller
    may pass either one as computed from the same table and message, bit for
    bit; then it is not computed again.
    """
    k = table.ndim
    if k == 1:
        return [table.copy()]
    if elim0 is None:
        elim0 = _eliminate(table, incoming[0], 0)
    if elim1 is None:
        elim1 = _eliminate(table, incoming[1], 1)
    msg = elim1  # axis 0 is position 0, axis 1 the next to eliminate
    for q in range(2, k):
        msg = _eliminate(msg, incoming[q], 1)
    out = [msg]
    prefix = elim0
    for p in range(1, k):
        msg = prefix  # axis 0 is position p, axis 1 the next to eliminate
        for q in range(p + 1, k):
            msg = _eliminate(msg, incoming[q], 1)
        out.append(msg)
        if p < k - 1:
            prefix = _eliminate(prefix, incoming[p], 0)
    return out


@dataclass
class Diagnostics:
    """Everything observable about one solve, for the engine and tests."""

    rounds_used: int = 0
    converged: bool = False
    message_lookups: int = 0
    decode_lookups: int = 0
    computed_lookups: int = 0  # the cost model's lookups of computed messages
    trace: list = field(default_factory=list)  # (round, max_delta, sigma_phi)
    best_value: float | None = None  # anytime decoding: best round so far


def _damped(old: np.ndarray, raw: np.ndarray, damping: float):
    """Blended messages, one per row, normalized to max entry 0, and their
    max change."""
    blended = damping * old + (1.0 - damping) * raw
    new = blended - blended.max(axis=1, keepdims=True)
    return new, float(np.abs(new - old).max())


def decode(g: FactorGraph, raw_f2v: np.ndarray, raw_v2f: np.ndarray) -> np.ndarray:
    """Per-variable argmax of the belief on its decoding row, from the raw
    messages computed from the round being decoded; ties go to the lowest
    grid index."""
    rows = g.decoding_rows
    return np.argmax(raw_f2v[rows] + raw_v2f[rows], axis=1)


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
    """Synchronous rounds until the max message change falls below tol,
    and the best assignment decoded on the way.

    Every stored message is normalized to max entry 0; damping blends
    lambda*old + (1-lambda)*new before normalizing.  Every round is decoded
    and the assignment with the best summed table value is kept; earlier
    rounds win ties.  A round's messages are decoded from the raw messages
    the next pass computes from them, so the last round is followed by one
    more pass that is decoded and not damped; its decoding-edge messages
    are the decode lookups.  A factor whose incoming messages did not change
    keeps its raw messages, and a factor of arity >= 2 keeps its two
    full-table eliminations (see factor_messages): the one of position 0
    while its position-0 incoming message is unchanged bit for bit, and the
    one of position 1 while its position-1 message is.  Identical inputs
    give identical floats, so the messages are those of recomputing both.
    """
    check_counts(ContractViolationError, 1, rounds=rounds)
    for name, value in (("damping", damping), ("tol", tol)):
        if not math.isfinite(check_real(ContractViolationError, name, value)):
            raise ContractViolationError(f"{name} must be finite, got {value!r}")
    damping, tol = float(damping), float(tol)
    if not 0.0 <= damping < 1.0:
        raise ContractViolationError("damping must lie in [0, 1)")
    if not tol >= 0:
        raise ContractViolationError("tol must be >= 0")
    diag = Diagnostics()
    best = None
    f2v = np.zeros((len(g.edges), g.num_values))  # row r: edge g.edges[r]
    v2f = np.zeros_like(f2v)
    # the raw messages, kept from round to round: a factor whose rows of v2f
    # did not change keeps its rows, and a unary factor's row is phi
    raw_f2v = np.zeros_like(f2v)
    # per factor of arity >= 2, its two full-table eliminations, each kept
    # while the row of v2f it reads does not change
    elim0 = [None] * len(g.subsets)
    elim1 = [None] * len(g.subsets)
    starts = [rows[0] for rows in g.factor_rows]  # factor-major rows
    unary = [len(s) == 1 for s in g.subsets]
    stale = [False] * len(g.subsets)  # per factor: compute nothing this round
    changed = [True] * len(g.edges)  # per row of v2f: changed in the last round
    # the cost model: every message per round, one per variable to decode
    round_lookups = sum(len(s) * tab.size for s, tab in zip(g.subsets, g.tables))
    decode_lookups = sum(g.tables[g.edges[r][0]].size for r in g.decoding_rows)
    delta = math.inf
    for rnd in range(rounds + 1):  # f2v and v2f hold round rnd
        for fi, rows in enumerate(g.factor_rows):
            if stale[fi]:
                continue
            table = g.tables[fi]
            if not unary[fi]:
                if changed[rows[0]]:
                    elim0[fi] = _eliminate(table, v2f[rows[0]], 0)
                if changed[rows[1]]:
                    elim1[fi] = _eliminate(table, v2f[rows[1]], 1)
            msgs = factor_messages(table, [v2f[r] for r in rows], elim0[fi], elim1[fi])
            for r, msg in zip(rows, msgs):
                raw_f2v[r] = msg
            diag.computed_lookups += len(rows) * table.size
        raw_v2f = np.zeros_like(v2f)
        for targets, sources in g.other_layers:  # summed from zeros in factor order
            raw_v2f[targets] += f2v[sources]
        if rnd > 0:
            idx = decode(g, raw_f2v, raw_v2f)
            val = g._value(idx.tolist())
            diag.trace.append((rnd, delta, val))
            if diag.best_value is None or val > diag.best_value:
                diag.best_value = val
                best = idx
        if rnd == rounds or delta < tol:  # this pass is decoded, not damped
            diag.decode_lookups = decode_lookups
            diag.rounds_used = rnd
            diag.converged = delta < tol
            return SolveResult(indices=best, diagnostics=diag)
        diag.message_lookups += round_lookups
        f2v, delta_f2v = _damped(f2v, raw_f2v, damping)
        old_v2f = v2f
        v2f, delta_v2f = _damped(v2f, raw_v2f, damping)
        delta = max(delta_f2v, delta_v2f)
        # bit patterns, so that equal rows are identical inputs
        changed_rows = (v2f.view(np.uint64) != old_v2f.view(np.uint64)).any(axis=1)
        changed = changed_rows.tolist()
        stale = [
            u or not c
            for u, c in zip(unary, np.logical_or.reduceat(changed_rows, starts).tolist())
        ]
