"""Coordinate-subset decompositions and posterior sampling over them.

A decomposition is a set of (possibly overlapping) coordinate subsets whose
latent factor functions sum to the objective.  Structure is scored by the GP
evidence of the induced additive kernel under shared hyperparameters (total
signal variance split equally among factors, one lengthscale per dimension),
so that evidence comparisons are about structure, not hyperparameter fit.

The Metropolis-Hastings sampler proposes uniformly from a move list built by
six move families: (a) move a dimension from one subset to another, (b)
split a subset, (c) merge two subsets when the union fits the size bound,
(d) add or remove a single membership subject to coverage, (e) re-pair two
subsets into another two-subset cover of their union, (f) spawn a strict
sub-subset as a new factor.  Proposals that would orphan a dimension, create
a duplicate subset, or exceed max_factor_size are simply absent from the
move list; the acceptance ratio carries the Hastings correction for the
asymmetric move counts.  The sampler draws a proposal by its index in the
list, so the order of the list is part of a seeded chain's reproducibility.

The chain walks canonical subset tuples and scores each new one with
log_evidence, which takes subsets as induced_kernel does; only the samples
sample_posterior returns, a tuple, are built and validated as
Decompositions.  McmcConfig holds both the chain's settings and the prior,
the keys of a run config's mcmc section other than mode and interval.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .gp import ObservationSet, log_marginal_likelihood
from .kernels import AdditiveKernel, FactorKernel


def _canonical(subsets) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(int(j) for j in s)) for s in subsets))


@dataclass(frozen=True)
class Decomposition:
    """d input dimensions covered by distinct subsets of bounded size."""

    d: int
    subsets: tuple[tuple[int, ...], ...]
    max_factor_size: int

    def __post_init__(self):
        subsets = _canonical(self.subsets)
        object.__setattr__(self, "subsets", subsets)
        if self.d < 1:
            raise ContractViolationError("d must be >= 1")
        if self.max_factor_size < 1:
            raise ContractViolationError("max_factor_size must be >= 1")
        if len(subsets) == 0:
            raise ContractViolationError("decomposition needs >= 1 subset")
        covered = set()
        for s in subsets:
            if len(set(s)) != len(s):
                raise ContractViolationError(f"subset {s} repeats a dimension")
            if not 1 <= len(s) <= self.max_factor_size:
                raise ContractViolationError(
                    f"subset {s} violates size bounds [1, {self.max_factor_size}]"
                )
            if s[0] < 0 or s[-1] >= self.d:
                raise ContractViolationError(f"subset {s} out of range [0, {self.d})")
            covered.update(s)
        if len(set(subsets)) != len(subsets):
            raise ContractViolationError("subsets must be pairwise distinct")
        if covered != set(range(self.d)):
            raise ContractViolationError(
                f"dimensions {sorted(set(range(self.d)) - covered)} are uncovered"
            )


def singleton_decomposition(d: int) -> Decomposition:
    return Decomposition(d=d, subsets=tuple((i,) for i in range(d)), max_factor_size=1)


def full_decomposition(d: int) -> Decomposition:
    return Decomposition(d=d, subsets=(tuple(range(d)),), max_factor_size=d)


def random_covering_decomposition(
    d: int, max_factor_size: int, rng: np.random.Generator, num_extra_overlaps: int = 0
) -> Decomposition:
    """Shuffled partition into chunks of max_factor_size, plus optional
    random extra subsets that create overlaps."""
    if max_factor_size < 1:
        raise ContractViolationError("max_factor_size must be >= 1")
    perm = [int(i) for i in rng.permutation(d)]
    subsets = [
        tuple(sorted(perm[i : i + max_factor_size]))
        for i in range(0, d, max_factor_size)
    ]
    have = set(subsets)
    size = min(max_factor_size, d)
    added = 0
    attempts = 0
    while added < num_extra_overlaps and attempts < 100 * (num_extra_overlaps + 1):
        attempts += 1
        cand = tuple(sorted(int(i) for i in rng.choice(d, size=size, replace=False)))
        if cand not in have:
            subsets.append(cand)
            have.add(cand)
            added += 1
    return Decomposition(d=d, subsets=tuple(subsets), max_factor_size=max_factor_size)


@dataclass(frozen=True)
class SharedHypers:
    """Hyperparameters shared across candidate structures.

    total_signal_variance is split equally among a kernel's factors;
    lengthscales is either a scalar applied to every dimension or one value
    per dimension.
    """

    total_signal_variance: float
    lengthscales: float | tuple[float, ...] = 0.2

    def lengthscale_for(self, dim: int) -> float:
        if isinstance(self.lengthscales, (int, float)):
            return float(self.lengthscales)
        return float(self.lengthscales[dim])


def induced_kernel(subsets, hypers: SharedHypers) -> AdditiveKernel:
    """Additive kernel over the subsets, total signal variance split equally."""
    per_factor = hypers.total_signal_variance / len(subsets)
    return AdditiveKernel(
        factors=tuple(
            FactorKernel(
                subset=s,
                signal_variance=per_factor,
                lengthscales=tuple(hypers.lengthscale_for(j) for j in s),
            )
            for s in subsets
        )
    )


def log_evidence(subsets, obs: ObservationSet, hypers: SharedHypers) -> float:
    """GP log marginal likelihood of the subsets' induced additive kernel."""
    return log_marginal_likelihood(induced_kernel(subsets, hypers), obs)


def default_hypers(obs: ObservationSet) -> SharedHypers:
    """Data-derived shared hyperparameters for structure search."""
    var = float(np.var(obs.y)) if len(obs) > 1 else 1.0
    spans = obs.X.max(axis=0) - obs.X.min(axis=0) if len(obs) > 1 else None
    if spans is None:
        ls: float | tuple = 0.2
    else:
        ls = tuple(0.2 * s if s > 0 else 0.2 for s in spans)
    return SharedHypers(total_signal_variance=max(var, 1e-6), lengthscales=ls)


State = tuple  # canonical tuple of sorted subset tuples


@lru_cache(maxsize=None)
def _cover_pairs(p: int, max_size: int) -> tuple:
    """Index pairs (a, b), a < b, of the distinct two-subset covers of
    range(p), p <= 2 max_size, with parts of size 1..max_size.

    The order is that of the first appearance of {a, b} in a scan over amask,
    then bmask, both increasing.  Since b must contain every index a leaves
    out, bmask = restmask | sub over the submasks sub of amask, taken in
    increasing order.
    """
    full = (1 << p) - 1
    pairs = []
    seen = set()
    for amask in range(1, full + 1):
        restmask = full & ~amask
        if amask.bit_count() > max_size or restmask.bit_count() > max_size:
            continue
        a = tuple(q for q in range(p) if amask >> q & 1)
        sub = 0
        while True:
            bmask = restmask | sub
            if bmask and bmask != amask and bmask.bit_count() <= max_size:
                b = tuple(q for q in range(p) if bmask >> q & 1)
                pair = (a, b) if a <= b else (b, a)
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
            if sub == amask:
                break
            sub = (sub - amask) & amask  # next submask of amask
    return tuple(pairs)


def enumerate_moves(state: State, d: int, max_size: int) -> list[State]:
    """All single-step successors (with multiplicity) of a canonical state,
    in the order families (a)-(f) build them."""
    subs = list(state)
    n = len(subs)
    existing = set(subs)
    counts = Counter()
    for s in subs:
        counts.update(s)
    # the subsets other than subs[si], and other than both subs[si] and subs[di]
    without = [subs[:si] + subs[si + 1 :] for si in range(n)]
    without_set = [set(rest) for rest in without]
    without_pair = [
        [[s for q, s in enumerate(subs) if q != si and q != di] for di in range(n)]
        for si in range(n)
    ]
    without_pair_set = [[set(rest) for rest in row] for row in without_pair]
    moves: list[State] = []

    # Every subset built below is already a sorted tuple, so sorting the
    # outer list is enough to canonicalise a successor.
    # (a) move one dimension from subset src to subset dst
    for si, src in enumerate(subs):
        if len(src) < 2:
            continue
        for j in src:
            new_src = tuple(v for v in src if v != j)
            for di, dst in enumerate(subs):
                if di == si or j in dst or len(dst) + 1 > max_size:
                    continue
                new_dst = tuple(sorted(dst + (j,)))
                others = without_pair_set[si][di]
                if new_src in others or new_dst in others:
                    continue
                moves.append(tuple(sorted(without_pair[si][di] + [new_src, new_dst])))
    # (b) split a subset into two nonempty parts
    for si, src in enumerate(subs):
        k = len(src)
        if k < 2:
            continue
        others = without_set[si]
        for mask in range(1, 2 ** (k - 1)):
            a = tuple(src[q] for q in range(k) if mask >> q & 1)
            b = tuple(src[q] for q in range(k) if not mask >> q & 1)
            if a in others or b in others:
                continue
            moves.append(tuple(sorted(without[si] + [a, b])))
    # (c) merge two subsets when the union fits
    for si in range(n):
        for di in range(si + 1, n):
            merged = tuple(sorted(set(subs[si]) | set(subs[di])))
            if len(merged) > max_size or merged in without_pair_set[si][di]:
                continue
            moves.append(tuple(sorted(without_pair[si][di] + [merged])))
    # (d) add or remove one membership, keeping coverage
    for si, src in enumerate(subs):
        others = without_set[si]
        if len(src) + 1 <= max_size:
            for j in range(d):
                if j in src:
                    continue
                grown = tuple(sorted(src + (j,)))
                if grown in others:
                    continue
                moves.append(tuple(sorted(without[si] + [grown])))
        if len(src) >= 2:
            for j in src:
                if counts[j] < 2:
                    continue  # removal would orphan j
                shrunk = tuple(v for v in src if v != j)
                if shrunk in others:
                    continue
                moves.append(tuple(sorted(without[si] + [shrunk])))
    # (e) re-pair two subsets: any other two-subset cover of their union.
    # This jumps directly between pairings that single moves can only reach
    # through deep evidence valleys, and it is closed under reversal since
    # the union is preserved.
    for si in range(n):
        for di in range(si + 1, n):
            pool = tuple(sorted(set(subs[si]) | set(subs[di])))
            current = (subs[si], subs[di])
            others = without_pair_set[si][di]
            for ia, ib in _cover_pairs(len(pool), max_size):
                a = tuple([pool[q] for q in ia])
                b = tuple([pool[q] for q in ib])
                if (a, b) == current or a in others or b in others:
                    continue
                moves.append(tuple(sorted(without_pair[si][di] + [a, b])))
    # (f) spawn a strict sub-subset as a new factor (reverse of a merge
    # whose union coincides with one operand)
    for src in subs:
        k = len(src)
        if k < 2:
            continue
        for mask in range(1, 2**k - 1):
            t = tuple(src[q] for q in range(k) if mask >> q & 1)
            if t in existing:
                continue
            moves.append(tuple(sorted(subs + [t])))
    return moves


@dataclass(frozen=True)
class McmcConfig:
    """The chain and its prior: uniform over valid decompositions with
    subsets of at most max_factor_size, optionally penalizing bloat by
    exp(-size_penalty * sum of subset sizes)."""

    max_factor_size: int
    chain_length: int
    burn_in: int = 0
    thinning: int = 1
    num_samples: int = 1
    size_penalty: float = 0.0

    def __post_init__(self):
        if self.max_factor_size < 1:
            raise ConfigurationError("max_factor_size must be >= 1")
        if not self.size_penalty >= 0:
            raise ConfigurationError("size_penalty must be >= 0")
        if self.chain_length < 0 or self.burn_in < 0:
            raise ConfigurationError("chain_length and burn_in must be >= 0")
        if self.thinning < 1 or self.num_samples < 1:
            raise ConfigurationError("thinning and num_samples must be >= 1")
        if self.chain_length > 0:
            need = self.burn_in + (self.num_samples - 1) * self.thinning
            if need > self.chain_length:
                raise ConfigurationError(
                    f"chain_length {self.chain_length} too short for burn_in "
                    f"{self.burn_in} + {self.num_samples} samples at thinning "
                    f"{self.thinning}"
                )

    def log_prior(self, state: State) -> float:
        return -self.size_penalty * float(sum(len(s) for s in state))


def sample_posterior(
    obs: ObservationSet,
    mcmc_config: McmcConfig,
    rng,
    hypers: SharedHypers | None = None,
) -> tuple[Decomposition, ...]:
    """Metropolis-Hastings over decompositions; deterministic given the rng.

    rng may be an integer seed or a numpy Generator.  The chain starts at
    the singleton decomposition; chain_length 0 returns num_samples copies
    of it.
    """
    if len(obs) == 0:
        raise ContractViolationError("posterior sampling needs observations")
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if hypers is None:
        hypers = default_hypers(obs)
    d = obs.X.shape[1]
    max_size = mcmc_config.max_factor_size
    state = singleton_decomposition(d).subsets

    # state -> (log posterior, move list); multiplicities are list counts
    cache: dict[State, tuple[float, list]] = {}

    def lookup(s: State):
        hit = cache.get(s)
        if hit is None:
            lp = log_evidence(s, obs, hypers) + mcmc_config.log_prior(s)
            hit = (lp, enumerate_moves(s, d, max_size))
            cache[s] = hit
        return hit

    chain = [state]
    for _ in range(mcmc_config.chain_length):
        logp, moves = lookup(state)
        if moves:
            proposal = moves[int(rng.integers(len(moves)))]
            logp2, back_moves = lookup(proposal)
            q_fwd = moves.count(proposal) / len(moves)
            q_bwd = (back_moves.count(state) / len(back_moves)) if back_moves else 0.0
            if q_bwd > 0.0:
                log_alpha = (logp2 - logp) + math.log(q_bwd) - math.log(q_fwd)
                if math.log(rng.uniform()) < log_alpha:
                    state = proposal
        chain.append(state)

    # McmcConfig bounds the picks by chain_length only when it is positive;
    # a chain of length 0 is its start state, picked num_samples times
    picks = [
        chain[min(mcmc_config.burn_in + i * mcmc_config.thinning, mcmc_config.chain_length)]
        for i in range(mcmc_config.num_samples)
    ]
    return tuple(Decomposition(d=d, subsets=s, max_factor_size=max_size) for s in picks)


def merge_for_acquisition(
    samples: tuple[Decomposition, ...],
) -> tuple[tuple[tuple[int, ...], ...], tuple[float, ...]]:
    """Union of the sampled subsets with weight = occurrence count / k.

    The weighted acquisition over the union equals the average of the
    per-sample acquisitions exactly, because a subset's phi table is the
    same function in every sample (factors share one posterior).
    """
    if not samples:
        raise ContractViolationError("merging needs >= 1 sampled decomposition")
    counts = Counter()
    for dec in samples:
        counts.update(dec.subsets)
    union = tuple(sorted(counts))
    weights = tuple(counts[s] / len(samples) for s in union)
    return union, weights
