import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from fgbo.bench import evaluate_batch, hartmann6
from fgbo.decomposition import (
    Decomposition,
    McmcConfig,
    SharedHypers,
    default_hypers,
    enumerate_moves,
    full_decomposition,
    induced_kernel,
    log_evidence,
    merge_for_acquisition,
    random_covering_decomposition,
    sample_posterior,
    singleton_decomposition,
)
from fgbo import kernels
from fgbo.errors import ConfigurationError, ContractViolationError
from fgbo.gp import ObservationSet, log_marginal_likelihood
from fgbo.kernels import AdditiveKernel, FactorKernel, SubsetBlocks, gram
from fgbo.selftest import chain_evidence_mismatches, move_count_mismatches, move_walk


def test_decomposition_canonicalization():
    dec = Decomposition(d=3, subsets=((2, 1), (0,)), max_factor_size=2)
    assert dec.subsets == ((0,), (1, 2))


def test_decomposition_validation():
    with pytest.raises(ContractViolationError):
        Decomposition(d=3, subsets=((0, 1),), max_factor_size=2)  # dim 2 uncovered
    with pytest.raises(ContractViolationError):
        Decomposition(d=2, subsets=((0, 1),), max_factor_size=1)  # too large
    with pytest.raises(ContractViolationError):
        Decomposition(d=2, subsets=((0,), (0,), (1,)), max_factor_size=1)  # dup
    with pytest.raises(ContractViolationError):
        Decomposition(d=2, subsets=((0,), (2,)), max_factor_size=1)  # out of range
    with pytest.raises(ContractViolationError, match="needs >= 1 subset"):
        Decomposition(d=2, subsets=(), max_factor_size=1)
    with pytest.raises(ContractViolationError, match="repeats a dimension"):
        Decomposition(d=2, subsets=((0, 0), (1,)), max_factor_size=2)
    with pytest.raises(ContractViolationError, match="d must be an integer"):
        Decomposition(d=2.0, subsets=((0,), (1,)), max_factor_size=1)
    with pytest.raises(ContractViolationError, match="max_factor_size must be an integer"):
        Decomposition(d=2, subsets=((0,), (1,)), max_factor_size=1.5)


def test_singleton_and_full():
    assert singleton_decomposition(3).subsets == ((0,), (1,), (2,))
    assert full_decomposition(3).subsets == ((0, 1, 2),)


def test_random_covering_decomposition():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        extras = int(rng.integers(0, 3))
        dec = random_covering_decomposition(d, m, rng, num_extra_overlaps=extras)
        assert set().union(*dec.subsets) == set(range(d))
        assert max(len(s) for s in dec.subsets) <= m
        assert len(set(dec.subsets)) == len(dec.subsets)
    r1 = random_covering_decomposition(6, 2, np.random.default_rng(9), 1)
    r2 = random_covering_decomposition(6, 2, np.random.default_rng(9), 1)
    assert r1 == r2


def test_induced_kernel_splits_variance_equally():
    dec = Decomposition(d=3, subsets=((0, 1), (2,)), max_factor_size=2)
    hypers = SharedHypers(total_signal_variance=3.0, lengthscales=(0.1, 0.2, 0.3))
    k = induced_kernel(dec.subsets, hypers)
    assert [f.signal_variance for f in k.factors] == [1.5, 1.5]
    assert k.factors[0].lengthscales == (0.1, 0.2)
    assert k.factors[1].lengthscales == (0.3,)


def test_log_evidence_1x1_hand_value():
    dec = singleton_decomposition(1)
    hypers = SharedHypers(total_signal_variance=2.0, lengthscales=0.5)
    obs = ObservationSet(np.array([[0.3]]), np.array([0.7]), 0.25)
    c = 2.0 + 0.25
    want = -0.5 * 0.7**2 / c - 0.5 * math.log(c) - 0.5 * math.log(2 * math.pi)
    assert log_evidence(dec.subsets, obs, hypers) == pytest.approx(want, rel=1e-12)


def test_log_evidence_zero_targets_drops_quadratic_term():
    rng = np.random.default_rng(3)
    dec = Decomposition(d=2, subsets=((0,), (1,)), max_factor_size=1)
    hypers = SharedHypers(total_signal_variance=1.0, lengthscales=0.3)
    X = rng.uniform(size=(6, 2))
    obs = ObservationSet(X, np.zeros(6), 0.1)
    K = gram(induced_kernel(dec.subsets, hypers), X) + 0.1 * np.eye(6)
    L = np.linalg.cholesky(K)
    want = -np.log(np.diag(L)).sum() - 3.0 * math.log(2 * math.pi)
    assert log_evidence(dec.subsets, obs, hypers) == pytest.approx(want, rel=1e-10)


def test_log_evidence_matches_explicit_kernel():
    rng = np.random.default_rng(12)
    dec = Decomposition(d=2, subsets=((0,), (1,)), max_factor_size=1)
    hypers = SharedHypers(total_signal_variance=2.0, lengthscales=0.4)
    obs = ObservationSet(rng.uniform(size=(8, 2)), rng.normal(size=8), 0.05)
    explicit = AdditiveKernel(
        factors=(
            FactorKernel(subset=(0,), signal_variance=1.0, lengthscales=(0.4,)),
            FactorKernel(subset=(1,), signal_variance=1.0, lengthscales=(0.4,)),
        )
    )
    assert log_evidence(dec.subsets, obs, hypers) == pytest.approx(
        log_marginal_likelihood(explicit, obs), abs=1e-8
    )


def all_covering_states(d, max_size):
    pool = []
    for k in range(1, max_size + 1):
        pool.extend(itertools.combinations(range(d), k))
    states = []
    for r in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            if set().union(*combo) == set(range(d)):
                states.append(tuple(sorted(combo)))
    return states


def test_enumerate_moves_preserve_validity():
    for state in all_covering_states(3, 2):
        for nxt in enumerate_moves(state, 3, 2):
            # valid: covering, distinct, sizes within cap
            assert set().union(*nxt) == {0, 1, 2}
            assert len(set(nxt)) == len(nxt)
            assert max(len(s) for s in nxt) <= 2


def test_repair_move_crosses_pairings_directly():
    # a wrong pairing must reach the right one in a single proposal
    state = (((0, 1)), (2, 3))
    state = tuple(sorted([(0, 2), (1, 3)]))
    assert tuple(sorted([(0, 1), (2, 3)])) in enumerate_moves(state, 4, 2)


# SHA-256 of the ordered move lists over move_walk(), recorded from the
# original enumeration, which scanned all 2^p x 2^p mask pairs for move (e).
# sample_posterior proposes the rng.integers(len(moves))-th move, so the order
# of the list, not only its multiset, fixes a seeded chain.
MOVE_LIST_SHA256 = "5515d465a4a0425b1018e9ce0a521c9c19d7aea55b2f72ca981c3be655f8c30c"


def _move_list_digest() -> tuple[str, int]:
    """Digest and count of the move lists of the states of move_walk()."""
    digest = hashlib.sha256()
    num_states = 0
    for d, max_size, state, moves in move_walk():
        digest.update(repr((d, max_size, state, moves)).encode())
        num_states += 1
    return digest.hexdigest(), num_states


def test_move_list_order_is_pinned():
    digest, num_states = _move_list_digest()
    assert num_states == 150
    assert digest == MOVE_LIST_SHA256


def test_move_deltas_give_enumerate_moves_multiplicities():
    # the chain reads q_fwd and q_bwd as counts of a delta and its reverse
    assert move_count_mismatches() == 0


def _hartmann6_obs(n: int = 24) -> ObservationSet:
    rng = np.random.default_rng(6)
    X = rng.uniform(size=(n, 6))
    y = -evaluate_batch(hartmann6(), X)
    return ObservationSet(X, y - y.mean(), 0.01)


def _hartmann6_ensemble():
    ens = sample_posterior(
        _hartmann6_obs(),
        McmcConfig(
            max_factor_size=3, chain_length=16, burn_in=4, thinning=3, num_samples=5,
            size_penalty=1.0,
        ),
        rng=np.random.default_rng(0),
    )
    return [dec.subsets for dec in ens]


# recorded from the original enumeration, like MOVE_LIST_SHA256
HARTMANN6_ENSEMBLE = [
    ((0, 3), (1,), (1, 2), (2,), (4,), (5,)),
    ((0, 1, 4), (1,), (1, 2, 4), (2,), (3,), (5,)),
    ((0, 1, 2), (0, 4, 5), (1,), (1, 4, 5), (2,), (3,)),
    ((0,), (0, 4, 5), (1,), (1, 2), (1, 4, 5), (2,), (3,)),
    ((0, 1, 2), (0, 4, 5), (1,), (1, 5), (2,), (3,), (4,)),
]


def test_sample_posterior_hartmann6_ensemble_is_pinned():
    assert _hartmann6_ensemble() == HARTMANN6_ENSEMBLE


# SHA-256 of every state of the seeded chains in _chain_digest(), recorded
# from the chain that listed each state's successors in full.
# HARTMANN6_ENSEMBLE sees only 5 states of one 16-step chain; this pins every
# draw and every accept of 1,200 steps.
CHAIN_SHA256 = "460bdf4edda10d139946bbec43e9ed367e92c06dce6322755d107901e846eeb7"


def _chain_digest() -> tuple[str, int]:
    """Digest of every state of 300-step chains at d = 6 and 8, factors of
    size <= 3, size penalty 0 and 1; and the number of distinct states."""
    digest = hashlib.sha256()
    seen = set()
    for d in (6, 8):
        rng = np.random.default_rng(30 + d)
        X = rng.uniform(size=(24, d))
        y = -evaluate_batch(hartmann6(), X[:, :6]) + np.sin(6.0 * X[:, 6:] @ np.ones(d - 6))
        obs = ObservationSet(X, y - y.mean(), 0.01)
        for size_penalty in (0.0, 1.0):
            cfg = McmcConfig(
                max_factor_size=3, chain_length=300, burn_in=0, thinning=1, num_samples=301,
                size_penalty=size_penalty,
            )
            chain = [dec.subsets for dec in sample_posterior(obs, cfg, rng=np.random.default_rng(d))]
            digest.update(repr((d, size_penalty, chain)).encode())
            seen.update((d, s) for s in chain)
    return digest.hexdigest(), len(seen)


def test_sample_posterior_chain_is_pinned():
    digest, num_states = _chain_digest()
    assert num_states > 100  # the chains move, so the digest pins accepts too
    assert digest == CHAIN_SHA256


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cached_log_evidence_equals_the_uncached_bit_for_bit(seed):
    # d 3-8, t 5-60, overlapping subsets, and a near-singular case whose
    # Cholesky escalates the jitter
    assert chain_evidence_mismatches(seed) == (0, True)


def test_cached_log_evidence_refuses_blocks_of_other_inputs_or_lengthscales():
    rng = np.random.default_rng(4)
    obs = ObservationSet(rng.uniform(size=(5, 2)), rng.normal(size=5), 0.1)
    hypers = SharedHypers(1.0, 0.2)
    assert log_evidence(((0, 1),), obs, hypers, SubsetBlocks(obs.X, (0.2, 0.2))) == log_evidence(
        ((0, 1),), obs, hypers
    )
    for blocks, other in [
        (SubsetBlocks(obs.X.copy(), (0.2, 0.2)), hypers),
        (SubsetBlocks(obs.X, (0.2, 0.3)), hypers),
        (SubsetBlocks(obs.X, (0.2, 0.3)), SharedHypers(1.0, (0.2,))),
    ]:
        with pytest.raises(ContractViolationError, match="observations' inputs|no lengthscale"):
            log_evidence(((0, 1),), obs, other, blocks)


def _counting_blocks(monkeypatch) -> list:
    """Patch kernels._se to record each block a SubsetBlocks builds."""
    builds = []
    se = kernels._se
    monkeypatch.setattr(kernels, "_se", lambda U, V, ls: builds.append(ls.size) or se(U, V, ls))
    return builds


def test_chain_is_pinned_when_the_cache_holds_only_the_current_state(monkeypatch):
    builds = _counting_blocks(monkeypatch)
    _chain_digest()
    kept = len(builds)
    builds.clear()
    monkeypatch.setattr(kernels, "SUBSET_BLOCK_BYTES", 0)
    digest, _ = _chain_digest()
    assert digest == CHAIN_SHA256
    assert len(builds) > kept  # evicted blocks were built again


def test_subset_blocks_evict_the_least_recently_used_but_not_the_current(monkeypatch):
    builds = _counting_blocks(monkeypatch)
    X = np.random.default_rng(1).uniform(size=(4, 3))
    monkeypatch.setattr(kernels, "SUBSET_BLOCK_BYTES", 2 * X.itemsize * 4 * 4)  # two blocks
    blocks = SubsetBlocks(X, (0.2, 0.3, 0.4))
    for subsets, built in [
        (((0,), (1, 2)), 2),
        (((0,), (1,), (2,)), 2),  # evicts (1, 2); three blocks, all kept
        (((1,), (2,)), 0),  # evicts (0,)
        (((0,),), 1),  # evicts (1,)
        (((2,),), 0),
        (((1, 2),), 1),
    ]:
        before = len(builds)
        K = blocks.gram(subsets, 1.5)
        assert len(builds) - before == built, subsets
        kernel = induced_kernel(subsets, SharedHypers(1.5 * len(subsets), (0.2, 0.3, 0.4)))
        assert np.array_equal(K, gram(kernel, X))


def test_chain_memory_stays_within_the_block_budget(monkeypatch):
    # at d = 10 and t = 300 the 175 subsets of size <= 3 would hold 126 MB of
    # blocks; the chain builds more than the budget holds, and keeps the
    # budget, its current and proposed states' blocks and O(t^2) temporaries
    builds = _counting_blocks(monkeypatch)
    t, d = 300, 10
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(t, d))
    y = np.sin(6.0 * X[:, 0] * X[:, 1]) + np.cos(5.0 * X[:, 2] + X[:, 3]) + X[:, 4:].sum(axis=1)
    obs = ObservationSet(X, y - y.mean(), 0.01)
    cfg = McmcConfig(max_factor_size=3, chain_length=100, num_samples=101)
    tracemalloc.start()
    try:
        chain = sample_posterior(obs, cfg, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = X.itemsize * t * t
    assert len(builds) * block > kernels.SUBSET_BLOCK_BYTES
    # a proposal has at most one subset more than its state
    current = max(len(dec.subsets) for dec in chain) + 1
    assert peak < kernels.SUBSET_BLOCK_BYTES + (current + 8) * block, peak


def test_chain_memory_does_not_grow_with_its_length():
    # the chain keeps only its current state's move list, so a chain four
    # times as long peaks at about the same traced memory
    obs = _hartmann6_obs(24)
    peaks = {}
    for chain_length in (100, 400):
        tracemalloc.start()
        try:
            sample_posterior(
                obs, McmcConfig(max_factor_size=3, chain_length=chain_length),
                rng=np.random.default_rng(0),
            )
            peaks[chain_length] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400] - peaks[100] < 2**20, peaks


def test_mh_kernel_leaves_exact_posterior_invariant():
    # build the full transition matrix of the sampler's kernel (uniform
    # proposal over the move list, Hastings acceptance, rejection of
    # proposals with no return path) and check pi P = pi exactly
    rng = np.random.default_rng(62)
    states = all_covering_states(3, 2)
    index = {s: i for i, s in enumerate(states)}
    hypers = SharedHypers(total_signal_variance=1.0, lengthscales=0.3)
    obs = ObservationSet(rng.uniform(size=(8, 3)), rng.normal(size=8), 0.1)
    lp = np.array(
        [
            log_evidence(s, obs, hypers)
            for s in states
        ]
    )
    pi = np.exp(lp - logsumexp(lp))
    moves = {s: enumerate_moves(s, 3, 2) for s in states}
    from collections import Counter

    counts = {s: Counter(moves[s]) for s in states}
    n = len(states)
    P = np.zeros((n, n))
    for i, s in enumerate(states):
        total = len(moves[s])
        for nxt, c in counts[s].items():
            if nxt == s:
                continue  # self-proposals only add self-transition mass
            j = index[nxt]
            q_fwd = c / total
            back = counts[nxt]
            if not moves[nxt] or back[s] == 0:
                continue  # sampler rejects irreversible proposals
            q_bwd = back[s] / len(moves[nxt])
            alpha = min(1.0, math.exp(lp[j] - lp[i]) * q_bwd / q_fwd)
            P[i, j] += q_fwd * alpha
        off = P[i][np.arange(n) != i].sum()
        assert off <= 1.0 + 1e-12
        P[i, i] = 1.0 - off
    np.testing.assert_allclose(pi @ P, pi, atol=1e-12)


def test_mcmc_matches_exact_posterior_total_variation():
    # d=3, factors of size <= 2: the state space is small enough to
    # enumerate, so the chain's empirical law can be checked exactly
    rng = np.random.default_rng(2718)
    truth = Decomposition(d=3, subsets=((0, 1), (2,)), max_factor_size=2)
    hypers = SharedHypers(total_signal_variance=1.5, lengthscales=0.3)
    X = rng.uniform(size=(14, 3))
    K = gram(induced_kernel(truth.subsets, hypers), X) + 1e-10 * np.eye(14)
    y = np.linalg.cholesky(K) @ rng.normal(size=14) + 0.05 * rng.normal(size=14)
    obs = ObservationSet(X, y, 0.05**2 + 1e-4)

    n_keep = 30_000
    burn = 3_000
    mcmc = McmcConfig(
        max_factor_size=2,
        chain_length=burn + n_keep - 1,
        burn_in=burn,
        thinning=1,
        num_samples=n_keep,
        size_penalty=0.0,
    )
    states = all_covering_states(3, 2)
    logp = np.array(
        [log_evidence(s, obs, hypers) + mcmc.log_prior(s) for s in states]
    )
    exact = np.exp(logp - logsumexp(logp))

    ens = sample_posterior(obs, mcmc, rng=np.random.default_rng(99), hypers=hypers)
    counts = {s: 0 for s in states}
    for dec in ens:
        counts[dec.subsets] += 1
    empirical = np.array([counts[s] / n_keep for s in states])
    tv = 0.5 * np.abs(empirical - exact).sum()
    assert tv <= 0.1


def test_recovery_smoke():
    # light version of the generate-and-recover experiment: one seed
    rng = np.random.default_rng(0)
    truth = Decomposition(d=4, subsets=((0, 1), (2, 3)), max_factor_size=2)
    hypers = SharedHypers(total_signal_variance=2.0, lengthscales=0.25)
    X = rng.uniform(size=(60, 4))
    K = gram(induced_kernel(truth.subsets, hypers), X) + 1e-10 * np.eye(60)
    y = np.linalg.cholesky(K) @ rng.normal(size=60) + 0.05 * rng.normal(size=60)
    obs = ObservationSet(X, y, 0.01)
    ens = sample_posterior(
        obs,
        McmcConfig(
            max_factor_size=2, chain_length=6000, burn_in=3000, thinning=300,
            num_samples=10, size_penalty=3.0,
        ),
        rng=np.random.default_rng(10_000),
        hypers=hypers,
    )
    hits = sum(1 for dec in ens if dec.subsets == truth.subsets)
    assert hits >= 6


def test_sample_posterior_deterministic_given_seed():
    rng = np.random.default_rng(8)
    obs = ObservationSet(rng.uniform(size=(10, 2)), rng.normal(size=10), 0.1)
    cfg = McmcConfig(max_factor_size=2, chain_length=80, burn_in=40, thinning=4, num_samples=5)
    e1 = sample_posterior(obs, cfg, rng=123)
    e2 = sample_posterior(obs, cfg, rng=123)
    assert [d.subsets for d in e1] == [d.subsets for d in e2]


@pytest.mark.parametrize("seed", [-1, 1.5, "a", True, None])
def test_sample_posterior_refuses_an_rng_that_is_not_a_generator_or_seed(seed):
    rng = np.random.default_rng(8)
    obs = ObservationSet(rng.uniform(size=(4, 2)), rng.normal(size=4), 0.1)
    cfg = McmcConfig(max_factor_size=2, chain_length=2, num_samples=1)
    with pytest.raises(ContractViolationError, match="rng must be a numpy Generator"):
        sample_posterior(obs, cfg, rng=seed)
    # a numpy integer is a seed like the int it holds
    again = sample_posterior(obs, cfg, rng=np.int64(3))
    assert [d.subsets for d in again] == [d.subsets for d in sample_posterior(obs, cfg, rng=3)]


def test_chain_length_zero_returns_initial_copies():
    rng = np.random.default_rng(9)
    obs = ObservationSet(rng.uniform(size=(5, 2)), rng.normal(size=5), 0.1)
    ens = sample_posterior(
        obs,
        McmcConfig(max_factor_size=2, chain_length=0, num_samples=3),
        rng=0,
    )
    assert len(ens) == 3
    # the chain starts at the singleton decomposition
    assert all(dec.subsets == ((0,), (1,)) for dec in ens)


def test_mcmc_config_validation():
    with pytest.raises(ConfigurationError):
        McmcConfig(max_factor_size=2, chain_length=10, burn_in=8, thinning=2, num_samples=3)
    with pytest.raises(ConfigurationError):
        McmcConfig(max_factor_size=2, chain_length=-1)
    with pytest.raises(ConfigurationError):
        McmcConfig(max_factor_size=2, chain_length=5, thinning=0)
    with pytest.raises(ConfigurationError):
        McmcConfig(max_factor_size=0, chain_length=3)
    with pytest.raises(ConfigurationError):
        McmcConfig(max_factor_size=2, chain_length=3, size_penalty=-0.5)


@pytest.mark.parametrize(
    "field,value",
    [
        ("max_factor_size", math.nan), ("max_factor_size", True), ("chain_length", 2.5),
        ("chain_length", math.nan), ("burn_in", True), ("burn_in", 0.5),
        ("thinning", 1.5), ("thinning", True), ("num_samples", math.nan), ("num_samples", 2.0),
    ],
    ids=lambda v: repr(v) if not isinstance(v, str) else v,
)
def test_mcmc_config_refuses_non_integer_counts(field, value):
    counts = {"max_factor_size": 2, "chain_length": 10, "burn_in": 0, "thinning": 1, "num_samples": 2}
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        McmcConfig(**{**counts, field: value})
    McmcConfig(**{**counts, field: np.int64(counts[field])})


@pytest.mark.parametrize(
    "size_penalty", [math.nan, -0.5, math.inf], ids=["nan", "negative", "inf"]
)
def test_mcmc_config_refuses_nan_and_negative_size_penalty(size_penalty):
    with pytest.raises(ConfigurationError, match="size_penalty must be >= 0"):
        McmcConfig(max_factor_size=2, chain_length=3, size_penalty=size_penalty)

def test_merge_for_acquisition_weights():
    a = Decomposition(d=3, subsets=((0, 1), (2,)), max_factor_size=2)
    b = Decomposition(d=3, subsets=((0,), (1, 2)), max_factor_size=2)
    union, weights = merge_for_acquisition((a, a, b))
    assert union == ((0,), (0, 1), (1, 2), (2,))
    lookup = dict(zip(union, weights))
    assert lookup[(0, 1)] == pytest.approx(2 / 3)
    assert lookup[(2,)] == pytest.approx(2 / 3)
    assert lookup[(0,)] == pytest.approx(1 / 3)
    assert lookup[(1, 2)] == pytest.approx(1 / 3)
    # an empty union would reach induced_kernel as a division by zero
    with pytest.raises(ContractViolationError):
        merge_for_acquisition(())


def test_default_hypers_track_data():
    rng = np.random.default_rng(10)
    X = rng.uniform(0.0, 4.0, size=(25, 2))
    y = rng.normal(scale=3.0, size=25)
    h = default_hypers(ObservationSet(X, y, 0.1))
    assert h.total_signal_variance == pytest.approx(np.var(y))
    for dim in range(2):
        span = X[:, dim].max() - X[:, dim].min()
        assert h.lengthscale_for(dim) == pytest.approx(0.2 * span)
