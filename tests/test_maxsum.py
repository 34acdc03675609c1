import hashlib
import itertools
import math

import numpy as np
import pytest

from fgbo.acquisition import GridSpec, tabulate
from fgbo.errors import ContractViolationError
from fgbo.gp import ObservationSet, fit
from fgbo.kernels import AdditiveKernel, FactorKernel
from fgbo.maxsum import (
    FactorGraph,
    decode,
    factor_messages,
    solve,
)
from fgbo.selftest import brute_force_max, factor_to_variable_message


def random_acyclic_graph(rng, max_vars=6, max_arity=3, max_values=8):
    """Random acyclic factor graph built by only ever joining distinct
    connected components, so no cycle can form."""
    n = int(rng.integers(2, max_vars + 1))
    tau = int(rng.integers(2, max_values + 1))
    comp = list(range(n))  # union-find by relabeling (n is tiny)
    subsets = []
    while len(set(comp)) > 1:
        arity = int(rng.integers(2, max_arity + 1))
        roots = sorted(set(comp))
        if arity > len(roots):
            arity = len(roots)
        chosen_roots = rng.choice(roots, size=arity, replace=False)
        members = []
        for root in chosen_roots:
            candidates = [v for v in range(n) if comp[v] == root]
            members.append(int(rng.choice(candidates)))
        target = comp[members[0]]
        for v in members[1:]:
            src = comp[v]
            comp = [target if c == src else c for c in comp]
        subsets.append(tuple(sorted(members)))
    for v in range(n):  # sprinkle unary leaves, never creates cycles
        if rng.random() < 0.3 or not any(v in s for s in subsets):
            subsets.append((v,))
    tables = [rng.normal(size=(tau,) * len(s)) for s in subsets]
    return FactorGraph(n, tau, subsets, tables)


def test_tree_exactness_sample():
    rng = np.random.default_rng(123)
    for _ in range(40):
        g = random_acyclic_graph(rng)
        sol = solve(g, rounds=4 * g.num_variables)
        diag = sol.diagnostics
        want_val, _ = brute_force_max(g)
        assert g.value_of(sol.indices) == diag.best_value
        assert diag.best_value == want_val  # bitwise on the table sums
        assert diag.trace[-1][2] == want_val  # the last round's decode too


def test_factor_to_variable_message_oracle():
    rng = np.random.default_rng(5)
    tau = 4
    g = FactorGraph(3, tau, [(0, 1, 2)], [rng.normal(size=(tau, tau, tau))])
    v2f = {(v, fi): rng.normal(size=tau) for fi, v in g.edges}
    for target in range(3):
        got = factor_to_variable_message(g, v2f, 0, target)
        want = np.full(tau, -math.inf)
        for idx in np.ndindex(tau, tau, tau):
            total = g.tables[0][idx]
            for pos, var in enumerate(g.subsets[0]):
                if var != target:
                    total += v2f[(var, 0)][idx[pos]]
            h = idx[g.subsets[0].index(target)]
            want[h] = max(want[h], total)
        np.testing.assert_allclose(got, want, atol=1e-12)


def _draw(rng, kind, size):
    if kind == "ties":  # small integers: exact sums and many equal maxima
        return rng.integers(-2, 3, size=size).astype(float)
    if kind == "wide":  # magnitudes 1e-3..1e15 of both signs: adds round
        return rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-3, 15, size=size)
    return rng.normal(size=size)


@pytest.mark.parametrize("kind", ["normal", "ties", "wide"])
def test_factor_messages_equal_the_defining_order(kind):
    # elimination one variable at a time must give the floats of adding
    # every other message onto phi in subset order, then maximizing
    rng = np.random.default_rng(["normal", "ties", "wide"].index(kind))
    for arity in range(1, 6):
        for tau in range(2, 8):
            subset = tuple(range(arity))
            table = _draw(rng, kind, (tau,) * arity)
            incoming = [_draw(rng, kind, tau) for _ in subset]
            g = FactorGraph(arity, tau, [subset], [table])
            v2f = {(j, 0): incoming[j] for j in subset}
            want = [factor_to_variable_message(g, v2f, 0, p) for p in subset]
            got = factor_messages(table, incoming)
            assert len(got) == arity
            for p, msg in zip(subset, got):
                assert msg.shape == (tau,)
                assert np.array_equal(msg, want[p]), (arity, tau, p)
            if arity == 1:  # a copy of phi, never phi itself
                assert got[0] is not table


def test_unary_chain_trivial():
    # single variable, single factor: decode is the table argmax
    table = np.array([0.3, 1.7, -0.2, 1.7])
    g = FactorGraph(1, 4, [(0,)], [table])
    assert tuple(solve(g, rounds=3).indices) == (1,)  # lowest index


def test_tie_breaking_lowest_index():
    g = FactorGraph(2, 3, [(0, 1)], [np.zeros((3, 3))])
    assert tuple(solve(g, rounds=5).indices) == (0, 0)


def test_decode_uses_lexicographically_smallest_incident_factor():
    # decoding the raw messages of zeroed ones: a variable-to-factor message
    # sums zeros, so the belief comes from the chosen factor's table alone
    t01 = np.zeros((4, 4))
    t02 = np.zeros((4, 4))
    t01[3, :] = 1.0  # factor (0,1) votes x0=3
    t02[1, :] = 5.0  # factor (0,2) votes x0=1, and louder
    g = FactorGraph(3, 4, [(0, 1), (0, 2)], [t01, t02])
    assert g.edges == ((0, 0), (0, 1), (1, 0), (1, 2))
    assert g.decoding_rows.tolist() == [0, 1, 3]
    zero_v2f = {(v, fi): np.zeros(4) for fi, v in g.edges}
    raw_f2v = np.array([factor_to_variable_message(g, zero_v2f, *e) for e in g.edges])
    np.testing.assert_array_equal(raw_f2v[2], [0.0, 5.0, 0.0, 0.0])  # the louder vote
    idx = decode(g, raw_f2v, np.zeros_like(raw_f2v))
    assert idx[0] == 3


def test_normalization_invariance_of_argmax():
    rng = np.random.default_rng(77)
    subsets = [(0, 1), (1, 2), (0, 2)]
    tables = [rng.normal(size=(5, 5)) for _ in subsets]
    g1 = FactorGraph(3, 5, subsets, tables)
    g2 = FactorGraph(3, 5, subsets, [t + 13.7 for t in tables])
    np.testing.assert_array_equal(solve(g1, rounds=30).indices, solve(g2, rounds=30).indices)


def test_damping_converges_to_same_tree_answer():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_acyclic_graph(rng, max_vars=5)
        plain = solve(g, rounds=40).diagnostics
        damped = solve(g, rounds=200, damping=0.5).diagnostics
        assert plain.best_value == damped.best_value


def test_convergence_flag_and_tolerance_zero():
    rng = np.random.default_rng(9)
    g = random_acyclic_graph(rng, max_vars=4)
    diag = solve(g, rounds=50).diagnostics
    assert diag.converged
    assert diag.rounds_used < 50
    diag = solve(g, rounds=12, tol=0.0).diagnostics
    assert not diag.converged
    assert diag.rounds_used == 12
    assert [row[0] for row in diag.trace] == list(range(1, 13))


def test_lookup_counting_exact():
    # each factor-to-variable message scans its full table once per round:
    # per factor per round the count is arity * tau^arity.  Decoding reads
    # one decoding-edge message per variable, once per solve: variable 0
    # decodes on (0,), 1 on (0, 1), 2 and 3 on (1, 2, 3).
    rng = np.random.default_rng(14)
    tau = 5
    subsets = [(0, 1), (1, 2, 3), (0,)]
    tables = [rng.normal(size=(tau,) * len(s)) for s in subsets]
    g = FactorGraph(4, tau, subsets, tables)
    per_round = sum(len(s) * tau ** len(s) for s in subsets)
    for rounds in (1, 7):
        diag = solve(g, rounds=rounds, tol=0.0).diagnostics
        assert diag.rounds_used == rounds
        assert diag.message_lookups == rounds * per_round
        assert diag.decode_lookups == tau + tau**2 + 2 * tau**3


def loopy_overlap_graph(rng, num_vars=4, tau=6):
    """Covering loopy graph of size-2/3 factors with pairwise overlap <= 1."""
    pool = list(itertools.combinations(range(num_vars), 2)) + list(
        itertools.combinations(range(num_vars), 3)
    )
    while True:
        k = int(rng.integers(3, 6))
        subs = sorted(set(pool[i] for i in rng.choice(len(pool), size=k, replace=False)))
        pairwise_ok = all(
            len(set(a) & set(b)) <= 1 for a, b in itertools.combinations(subs, 2)
        )
        covering = set().union(*subs) == set(range(num_vars))
        # connected bipartite graph is loopy iff edges exceed nodes - 1
        loopy = sum(len(s) for s in subs) > num_vars + len(subs) - 1
        if pairwise_ok and covering and loopy:
            tables = [rng.uniform(0.0, 1.0, size=(tau,) * len(s)) for s in subs]
            return FactorGraph(num_vars, tau, subs, tables)


def test_loopy_quality_smoke():
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        g = loopy_overlap_graph(rng)
        diag = solve(g, rounds=30).diagnostics
        best, _ = brute_force_max(g)
        if diag.best_value >= 0.95 * best:
            wins += 1
    assert wins == 10


def test_determinism():
    rng1 = np.random.default_rng(2)
    rng2 = np.random.default_rng(2)
    g1 = random_acyclic_graph(rng1)
    g2 = random_acyclic_graph(rng2)
    s1 = solve(g1, rounds=20)
    s2 = solve(g2, rounds=20)
    np.testing.assert_array_equal(s1.indices, s2.indices)
    assert s1.diagnostics.trace == s2.diagnostics.trace


def test_graph_validation():
    with pytest.raises(ContractViolationError):
        FactorGraph(3, 4, [(0, 1)], [np.zeros((4, 4))])  # var 2 uncovered
    with pytest.raises(ContractViolationError):
        FactorGraph(2, 4, [(0, 1)], [np.zeros((4, 3))])  # wrong shape
    with pytest.raises(ContractViolationError):
        FactorGraph(2, 4, [(0, 1)], [np.full((4, 4), np.nan)])
    with pytest.raises(ContractViolationError):
        FactorGraph(2, 4, [(0, 2)], [np.zeros((4, 4))])  # var out of range
    with pytest.raises(ContractViolationError, match="one table per subset"):
        FactorGraph(2, 4, [(0, 1), (1,)], [np.zeros((4, 4))])
    with pytest.raises(ContractViolationError, match="num_values must be an integer"):
        FactorGraph(1, 2.5, [(0,)], [np.zeros(2)])
    for table in (["a", "b"], [[1.0], [2.0, 3.0]], {"a": 1.0}):  # not floats
        with pytest.raises(ContractViolationError, match="numeric"):
            FactorGraph(1, 2, [(0,)], [table])


def test_solve_on_acquisition_matches_brute_force():
    rng = np.random.default_rng(88)
    kernel = AdditiveKernel(
        factors=(
            FactorKernel(subset=(0, 1), signal_variance=1.0, lengthscales=(0.3, 0.3)),
            FactorKernel(subset=(1, 2), signal_variance=0.8, lengthscales=(0.4, 0.4)),
        )
    )
    obs = ObservationSet(rng.uniform(size=(7, 3)), rng.normal(size=7), 0.05)
    post = fit(kernel, obs)
    grid = GridSpec(per_dim_points=5, num_dims=3)
    g = tabulate(post, grid, 2.5)
    result = solve(g, rounds=40)
    want_val, _ = brute_force_max(g)
    assert result.diagnostics.best_value == pytest.approx(want_val, abs=1e-12)
    assert result.diagnostics.rounds_used >= 1
    assert g.value_of(result.indices) == result.diagnostics.best_value


def test_solve_records_trace():
    rng = np.random.default_rng(91)
    kernel = AdditiveKernel(
        factors=(FactorKernel(subset=(0,), signal_variance=1.0, lengthscales=(0.3,)),)
    )
    obs = ObservationSet(rng.uniform(size=(4, 1)), rng.normal(size=4), 0.1)
    acq = tabulate(fit(kernel, obs), GridSpec(per_dim_points=6, num_dims=1), 2.0)
    result = solve(acq, rounds=10)
    trace = result.diagnostics.trace
    assert len(trace) == result.diagnostics.rounds_used


def _digest(graphs) -> tuple[str, int, int]:
    """SHA-256, run count and round-capped run count of solving each
    (graph, rounds) pair undamped and damped.  It pins the best indices, the
    best value, rounds_used, converged and every (round, max_delta,
    sigma_phi) row."""
    digest = hashlib.sha256()
    runs = capped = 0
    for g, rounds in graphs:
        for damping in (0.0, 0.4):
            sol = solve(g, rounds, damping=damping)
            diag = sol.diagnostics
            rows = ["%d,%.17g,%.17g" % row for row in diag.trace]
            digest.update(
                repr(
                    (
                        tuple(int(v) for v in sol.indices),
                        "%.17g" % diag.best_value,
                        diag.rounds_used,
                        diag.converged,
                        rows,
                    )
                ).encode()
            )
            runs += 1
            capped += not diag.converged
    return digest.hexdigest(), runs, capped


# Recorded from the solver that re-decoded every round's messages from
# scratch.
MAXSUM_SHA256 = "c2d35f79f8fb3c619c81c62ac07aa75cb8a0ee99114d34f9ab77f03eba9de0ff"


def _pinned_graphs():
    """Seeded loopy and acyclic graphs; the acyclic caps vary from 2 to 7
    rounds so that some runs stop before converging."""
    for i in range(12):
        yield loopy_overlap_graph(np.random.default_rng(7000 + i)), 30
        yield random_acyclic_graph(np.random.default_rng(8000 + i)), 2 + i % 6


def test_maxsum_results_and_traces_are_pinned():
    digest, runs, capped = _digest(_pinned_graphs())
    assert (runs, capped) == (48, 35)
    assert digest == MAXSUM_SHA256


def repeated_subset_graph(rng, num_vars, tau=4):
    """Graph of singletons, pairs and triples drawn with replacement, two of
    them drawn again, and a singleton for every uncovered variable; the
    subsets come in no particular order."""
    pool = [s for k in (1, 2, 3) for s in itertools.combinations(range(num_vars), k)]
    subsets = [pool[i] for i in rng.integers(len(pool), size=int(rng.integers(2, 7)))]
    subsets += [subsets[i] for i in rng.integers(len(subsets), size=2)]
    subsets += [(v,) for v in range(num_vars) if not any(v in s for s in subsets)]
    tables = [rng.normal(size=(tau,) * len(s)) for s in subsets]
    return FactorGraph(num_vars, tau, subsets, tables)


def _repeated_subset_graphs():
    rng = np.random.default_rng(9100)
    for subsets in ([(0,), (0,), (0,)], [(0, 1, 2), (0,), (1, 2, 3), (2,), (0, 1, 2), (3,)]):
        tables = [rng.normal(size=(5,) * len(s)) for s in subsets]
        yield FactorGraph(1 + max(max(s) for s in subsets), 5, subsets, tables), 30
    for i in range(12):
        rounds = 30 if i % 2 == 0 else 2 + i % 5
        yield repeated_subset_graph(np.random.default_rng(9000 + i), 3 + i % 4), rounds


# Recorded from the solver that kept each round's messages in dicts keyed
# by edge and summed variable-to-factor messages one call per edge.
REPEATED_SUBSET_SHA256 = "56e32ecf3b8a11068dfcf5fd58851bc64433619ad8c26d7f1edc4f1270adeefe"


def test_repeated_subset_results_and_traces_are_pinned():
    digest, runs, capped = _digest(_repeated_subset_graphs())
    assert (runs, capped) == (28, 21)
    assert digest == REPEATED_SUBSET_SHA256


# Recorded from the solver whose last pass sent on the decoding edges only.
COST_MODEL_SHA256 = {
    "maxsum": "717b4853878dbff749000e431dc4277924a5e149aacefee8d5c9928e201e95ff",
    "repeated_subset": "c213dec884e665018f93982aba48319608aa88357aae638449879749de4390e5",
}


@pytest.mark.parametrize(
    "graphs, name",
    [(_pinned_graphs, "maxsum"), (_repeated_subset_graphs, "repeated_subset")],
    ids=["maxsum", "repeated_subset"],
)
def test_the_cost_model_lookups_are_pinned(graphs, name):
    # the paper's cost model: every message of every round, and one
    # decoding-edge message per variable, whatever the solve computed
    digest = hashlib.sha256()
    for g, rounds in graphs():
        for damping in (0.0, 0.4):
            diag = solve(g, rounds, damping=damping).diagnostics
            digest.update(
                repr((diag.message_lookups, diag.decode_lookups, diag.rounds_used)).encode()
            )
    assert digest.hexdigest() == COST_MODEL_SHA256[name]


@pytest.mark.parametrize(
    "graphs", [_pinned_graphs, _repeated_subset_graphs], ids=["maxsum", "repeated_subset"]
)
def test_the_pinned_solves_keep_messages(graphs):
    # the digests above pin solves that keep some factors' messages: over
    # each set, fewer lookups are computed than the cost model counts
    computed = counted = 0
    for g, rounds in graphs():
        for damping in (0.0, 0.4):
            diag = solve(g, rounds, damping=damping).diagnostics
            assert diag.computed_lookups <= diag.message_lookups + diag.decode_lookups
            computed += diag.computed_lookups
            counted += diag.message_lookups + diag.decode_lookups
    assert computed < counted


def test_unary_messages_are_computed_once_per_solve():
    rng = np.random.default_rng(3)
    subsets = [(0,), (1,), (0,), (2,)]
    g = FactorGraph(3, 5, subsets, [rng.normal(size=5) for _ in subsets])
    for rounds in (1, 2, 9):
        diag = solve(g, rounds=rounds, tol=0.0).diagnostics
        assert diag.rounds_used == rounds
        assert diag.message_lookups == rounds * 4 * 5
        assert diag.computed_lookups == 4 * 5  # once each, in the first round


def test_fixed_messages_on_a_tree_are_not_recomputed():
    # undamped max-sum on a tree reaches its fixed point within the
    # diameter; past it no incoming message changes, so running longer
    # computes nothing more while the cost model keeps counting
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_acyclic_graph(rng)
        n = 4 * g.num_variables
        short, long = (solve(g, rounds=r, tol=0.0).diagnostics for r in (n, n + 5))
        assert long.computed_lookups == short.computed_lookups
        assert long.message_lookups > short.message_lookups
        assert long.best_value == short.best_value


def _index_table_graphs():
    yield FactorGraph(1, 3, [(0,), (0,), (0,)], [np.zeros(3)] * 3)
    subsets = [(1, 2), (0, 1), (1,), (0, 1, 2)]  # variable 1 in all four
    yield FactorGraph(3, 2, subsets, [np.zeros((2,) * len(s)) for s in subsets])
    for i in range(30):
        yield repeated_subset_graph(np.random.default_rng(9500 + i), 2 + i % 5, tau=2)
    for i in range(10):
        yield random_acyclic_graph(np.random.default_rng(9600 + i))


def test_index_tables_match_their_definitions():
    seen_three_factor_variable = False
    for g in _index_table_graphs():
        edges = g.edges
        assert edges == tuple((fi, v) for fi, s in enumerate(g.subsets) for v in s)
        for fi, rows in enumerate(g.factor_rows):
            assert rows == tuple(r for r, e in enumerate(edges) if e[0] == fi)
            assert tuple(edges[r][1] for r in rows) == g.subsets[fi]  # subset order
        for r, (fi, v) in enumerate(edges):
            others = g.other_rows[r]
            assert others == tuple(r2 for r2, e in enumerate(edges) if e[1] == v and e[0] != fi)
            factors = [edges[r2][0] for r2 in others]
            assert factors == sorted(set(factors))  # factor order, no repeats
            seen_three_factor_variable |= len(others) >= 2
        assert len(g.decoding_rows) == g.num_variables
        for v, r in enumerate(g.decoding_rows):
            fi, var = edges[r]
            incident = [f for f, s in enumerate(g.subsets) if v in s]
            smallest = min(g.subsets[f] for f in incident)
            assert var == v
            assert fi == min(f for f in incident if g.subsets[f] == smallest)
    assert seen_three_factor_variable


@pytest.mark.parametrize(
    "indices",
    [(-1, 0), (0, 4), (0,), (0, 0, 0), (0.7, 1)],
    ids=["negative", "too_large", "short", "long", "fractional"],
)
def test_value_of_needs_one_in_range_index_per_variable(indices):
    g = FactorGraph(2, 4, [(0, 1)], [np.arange(16.0).reshape(4, 4)])
    assert g.value_of((3, 1)) == 13.0
    with pytest.raises(ContractViolationError):
        g.value_of(indices)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rounds": 0}, {"damping": 1.0}, {"damping": math.nan}, {"tol": -1e-9}, {"tol": math.nan},
        {"rounds": 2.5}, {"rounds": math.nan}, {"rounds": True},
        {"damping": "0.5"}, {"damping": None}, {"damping": 0.5j}, {"damping": False},
        {"damping": -math.inf}, {"tol": "x"}, {"tol": None}, {"tol": math.inf}, {"tol": True},
        {"tol": 10**400},
    ],
    ids=[
        "rounds_0", "damping_1", "damping_nan", "tol_negative", "tol_nan",
        "rounds_fractional", "rounds_nan", "rounds_true",
        "damping_str", "damping_none", "damping_complex", "damping_false",
        "damping_minus_inf", "tol_str", "tol_none", "tol_inf", "tol_true",
        "tol_huge_int",
    ],
)
def test_solve_refuses_bad_settings(kwargs):
    g = FactorGraph(1, 3, [(0,)], [np.zeros(3)])
    with pytest.raises(ContractViolationError):
        solve(g, **kwargs)
