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

move_deltas builds that list once, on subsets held as integer bitmasks (bit
j for coordinate j), and holds each move as its net change: the subsets it
removes and the subsets it adds.  Every state is a set of distinct subsets,
so a move's successor and its net change determine each other, and the
reverse move's net change is the same pair swapped.  The multiplicity of a
successor in the move list is therefore the count of its change, and the
Hastings counts q_fwd and q_bwd are counts of a change and its reverse.
That holds only for net changes: a move of family (a) whose source minus
the moved dimension is its destination changes nothing, and families (c)
and (e) can keep one of the two subsets they take, so a subset that a move
both removes and adds is left out of both sides.  enumerate_moves is the
list of successors, move_deltas applied in order.

The chain keeps its current state and a cache of subset Gram blocks, and
its memory does not grow with its length.  Each step scores its proposal
with log_evidence (on canonical subset tuples, as induced_kernel takes
them) and lists its moves with move_deltas, revisits too.  A move removes
and adds at most two subsets each, so most of a proposal's Gram matrix is
the current state's: log_evidence sums it from the chain's
kernels.SubsetBlocks, which keeps the unscaled block exp(-0.5 |z_I|^2) of
every subset I the chain has scored within kernels.SUBSET_BLOCK_BYTES
(32 MiB; least recently used blocks are freed first, the scored state's
never), and builds no kernel objects.  Blocks added in factor order and
scaled once by total/n_f are the float operations of the uncached gram,
so every evidence value, draw and accept is the same bit for bit.
Only the samples sample_posterior returns, a tuple, are built and validated
as Decompositions.  McmcConfig holds both the chain's settings and the
prior, the keys of a run config's mcmc section other than mode and interval.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigurationError,
    ContractViolationError,
    check_counts,
    check_real,
    check_subsets,
    is_integer,
)
from .gp import ObservationSet, log_marginal_likelihood
from .kernels import AdditiveKernel, FactorKernel, SubsetBlocks


def _canonical(subsets) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(s)) for s in check_subsets(subsets)))


@dataclass(frozen=True)
class Decomposition:
    """d input dimensions covered by distinct subsets of bounded size."""

    d: int
    subsets: tuple[tuple[int, ...], ...]
    max_factor_size: int

    def __post_init__(self):
        subsets = _canonical(self.subsets)
        object.__setattr__(self, "subsets", subsets)
        check_counts(ContractViolationError, 1, d=self.d, max_factor_size=self.max_factor_size)
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
    check_counts(ContractViolationError, 1, d=d)
    return Decomposition(d=d, subsets=tuple((i,) for i in range(d)), max_factor_size=1)


def full_decomposition(d: int) -> Decomposition:
    check_counts(ContractViolationError, 1, d=d)
    return Decomposition(d=d, subsets=(tuple(range(d)),), max_factor_size=d)


def random_covering_decomposition(
    d: int, max_factor_size: int, rng: np.random.Generator, num_extra_overlaps: int = 0
) -> Decomposition:
    """Shuffled partition into chunks of max_factor_size, plus optional
    random extra subsets that create overlaps."""
    check_counts(ContractViolationError, 1, d=d, max_factor_size=max_factor_size)
    check_counts(ContractViolationError, 0, num_extra_overlaps=num_extra_overlaps)
    if not isinstance(rng, np.random.Generator):
        raise ContractViolationError(f"rng must be a numpy Generator, got {rng!r}")
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

    def __post_init__(self):
        check_real(ContractViolationError, "total_signal_variance", self.total_signal_variance)
        ls = self.lengthscales
        if np.iterable(ls):
            ls = tuple(check_real(ContractViolationError, "lengthscales", l) for l in ls)
        else:
            ls = check_real(ContractViolationError, "lengthscales", ls)
        object.__setattr__(self, "lengthscales", ls)

    def lengthscale_for(self, dim: int) -> float:
        if isinstance(self.lengthscales, float):
            return self.lengthscales
        if not 0 <= dim < len(self.lengthscales):
            raise ContractViolationError(
                f"no lengthscale for dimension {dim}: {len(self.lengthscales)} given"
            )
        return self.lengthscales[dim]


def induced_kernel(subsets, hypers: SharedHypers) -> AdditiveKernel:
    """Additive kernel over the subsets, total signal variance split equally."""
    subsets = check_subsets(subsets)
    if not subsets:
        raise ContractViolationError("an induced kernel needs >= 1 subset")
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


def log_evidence(
    subsets, obs: ObservationSet, hypers: SharedHypers, blocks: SubsetBlocks | None = None
) -> float:
    """GP log marginal likelihood of the subsets' induced additive kernel.

    Without blocks this is the oracle: gp.log_marginal_likelihood of
    induced_kernel.  With blocks, a kernels.SubsetBlocks over the array obs.X
    itself with hypers' lengthscale for every dimension (else
    ContractViolationError), it builds no kernel: K is summed from the
    cached subset blocks and scaled once by total/n_f, the float operations
    of the uncached gram, and gp.log_marginal_likelihood factorizes and
    scores it as it does the oracle's K, so the two agree bit for bit.
    sample_posterior keeps one SubsetBlocks per call.
    """
    if blocks is None:
        return log_marginal_likelihood(induced_kernel(subsets, hypers), obs)
    subsets = check_subsets(subsets)
    d = obs.X.shape[1]
    if blocks.X is not obs.X or blocks.lengthscales != tuple(map(hypers.lengthscale_for, range(d))):
        raise ContractViolationError(
            "blocks must be built over the observations' inputs with the hypers' lengthscales"
        )
    if not subsets:
        raise ContractViolationError("an induced kernel needs >= 1 subset")
    K = blocks.gram(subsets, hypers.total_signal_variance / len(subsets))
    return log_marginal_likelihood(K, obs)


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
Delta = tuple  # (removed, added): two increasing tuples of subset bitmasks


def _mask(subset) -> int:
    return sum(1 << j for j in subset)


@lru_cache(maxsize=None)
def _subset(mask: int) -> tuple[int, ...]:
    """The sorted coordinates of a subset bitmask."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


@lru_cache(maxsize=None)
def _bits(mask: int) -> tuple[int, ...]:
    """The one-bit masks of mask's coordinates, increasing."""
    return tuple(1 << j for j in _subset(mask))


@lru_cache(maxsize=None)
def _submasks(mask: int) -> tuple[int, ...]:
    """The nonempty strict submasks of mask, increasing: the sub-subsets
    family (f) spawns, in order, whose first 2^(k-1) - 1 (those without the
    largest coordinate) are the first parts of family (b)'s splits."""
    out = []
    sub = -mask & mask
    while sub != mask:
        out.append(sub)
        sub = (sub - mask) & mask  # next submask of mask
    return tuple(out)


@lru_cache(maxsize=None)
def _cover_masks(union: int, max_size: int) -> tuple[tuple[int, int], ...]:
    """The distinct two-subset covers {a, b} of union with parts of size
    1..max_size, as increasing bitmask pairs.

    The order is that of the first appearance of {a, b} in a scan over a,
    then b, both increasing.  Since b must contain every coordinate a leaves
    out, b = rest | sub over the submasks sub of a, taken in increasing
    order.
    """
    pairs = {}
    for a in _submasks(union) + (union,):
        rest = union ^ a
        if a.bit_count() > max_size or rest.bit_count() > max_size:
            continue
        sub = 0
        while True:
            b = rest | sub
            if b and b != a and b.bit_count() <= max_size:
                pairs.setdefault((a, b) if a < b else (b, a))
            if sub == a:
                break
            sub = (sub - a) & a  # next submask of a
    return tuple(pairs)


def move_deltas(state: State, d: int, max_size: int) -> list[Delta]:
    """Every single-step move of a canonical state as its net change, in the
    order and with the multiplicity in which families (a)-(f) build them.

    A change is (removed, added), two increasing tuples of subset bitmasks
    with no mask in common: a subset a move both removes and re-adds is in
    neither.  A state that is not a sequence of integer sequences over
    [0, d), or a d or max_size that is not an integer >= 1, raises
    ContractViolationError.
    """
    state = check_subsets(state)
    check_counts(ContractViolationError, 1, d=d, max_size=max_size)
    try:
        masks = [_mask(s) for s in state]
    except ValueError:  # 1 << j of a negative index j
        raise ContractViolationError(f"state {state} has a negative index") from None
    n = len(masks)
    existing = set(masks)
    once = twice = 0  # the coordinates covered at least once, and twice
    for m in masks:
        twice |= once & m
        once |= m
    if once >> d:
        raise ContractViolationError(f"state {state} has indices outside [0, {d})")
    deltas: list[Delta] = []
    append = deltas.append

    # (a) move one coordinate j from subset src to subset dst, a subset with
    # room for it (and so not src, which has j)
    room = [dst for dst in masks if dst.bit_count() < max_size]
    for src in masks:
        if src.bit_count() < 2:
            continue
        for j in _bits(src):
            new_src = src ^ j
            for dst in room:
                if dst & j:
                    continue
                if new_src == dst:  # so dst | j == src: the move changes nothing
                    append(((), ()))
                    continue
                new_dst = dst | j
                if new_src in existing or new_dst in existing:
                    continue
                append((
                    (src, dst) if src < dst else (dst, src),
                    (new_src, new_dst) if new_src < new_dst else (new_dst, new_src),
                ))
    # (b) split a subset into two nonempty parts, a the one without its
    # largest coordinate
    for src in masks:
        k = src.bit_count()
        if k < 2:
            continue
        for a in _submasks(src)[: 2 ** (k - 1) - 1]:
            b = src ^ a
            if a in existing or b in existing:
                continue
            append(((src,), (a, b)))
    # (c) merge two subsets when the union fits; a union equal to one of
    # them only removes the other
    for si in range(n):
        x = masks[si]
        for y in masks[si + 1 :]:
            merged = x | y
            if merged.bit_count() > max_size:
                continue
            if merged == x:
                append(((y,), ()))
            elif merged == y:
                append(((x,), ()))
            elif merged not in existing:
                append(((x, y) if x < y else (y, x), (merged,)))
    # (d) add or remove one membership, keeping coverage
    all_bits = _bits((1 << d) - 1)
    for src in masks:
        k = src.bit_count()
        if k < max_size:
            for j in all_bits:
                if src & j or src | j in existing:
                    continue
                append(((src,), (src | j,)))
        if k >= 2:
            for j in _bits(src):
                # removing j from src would orphan j unless another subset has it
                if not twice & j or src ^ j in existing:
                    continue
                append(((src,), (src ^ j,)))
    # (e) re-pair two subsets: any other two-subset cover of their union.
    # This jumps directly between pairings that single moves can only reach
    # through deep evidence valleys, and it is closed under reversal since
    # the union is preserved.  A part already in the state must be x or y,
    # and the move then only replaces the other (x + y - part); the cover
    # {x, y} itself changes nothing and is not a move.
    for si in range(n):
        x = masks[si]
        for y in masks[si + 1 :]:
            removed = (x, y) if x < y else (y, x)
            for added in _cover_masks(x | y, max_size):
                a, b = added
                if a not in existing:
                    if b not in existing:
                        append((removed, added))
                    elif b == x or b == y:
                        append(((x + y - b,), (a,)))
                elif b not in existing and (a == x or a == y):
                    append(((x + y - a,), (b,)))
    # (f) spawn a strict sub-subset as a new factor (reverse of a merge
    # whose union coincides with one operand)
    for src in masks:
        if src.bit_count() < 2:
            continue
        for t in _submasks(src):
            if t not in existing:
                append(((), (t,)))
    return deltas


def _apply(masks: frozenset, delta: Delta) -> frozenset:
    removed, added = delta
    return masks.difference(removed).union(added)


def _state(masks: frozenset) -> State:
    return tuple(sorted(map(_subset, masks)))


def enumerate_moves(state: State, d: int, max_size: int) -> list[State]:
    """All single-step successors (with multiplicity) of a canonical state,
    in the order families (a)-(f) build them: move_deltas applied in order."""
    masks = frozenset(map(_mask, state))
    return [_state(_apply(masks, delta)) for delta in move_deltas(state, d, max_size)]


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
        check_counts(ConfigurationError, 1, max_factor_size=self.max_factor_size)
        check_counts(ConfigurationError, 0, chain_length=self.chain_length, burn_in=self.burn_in)
        check_counts(ConfigurationError, 1, thinning=self.thinning, num_samples=self.num_samples)
        if not 0 <= check_real(ConfigurationError, "size_penalty", self.size_penalty) < math.inf:
            raise ConfigurationError("size_penalty must be >= 0 and finite")
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

    rng is a numpy Generator or an integer seed >= 0.  The chain starts at
    the singleton decomposition; chain_length 0 returns num_samples copies
    of it.  A step scores one proposal and lists its moves; only the
    current state's score and moves are kept.  Every Gram matrix comes
    from one kernels.SubsetBlocks over obs.X, kept for this call: the
    unscaled blocks of the subsets scored so far, at most
    kernels.SUBSET_BLOCK_BYTES of them, summed in factor order and scaled
    once, so each evidence is the uncached log_evidence's float for float
    (see the module docstring).
    """
    if not isinstance(rng, np.random.Generator):
        if not (is_integer(rng) and rng >= 0):
            raise ContractViolationError(
                f"rng must be a numpy Generator or an integer seed >= 0, got {rng!r}"
            )
        rng = np.random.default_rng(rng)
    if hypers is None:
        hypers = default_hypers(obs)
    d = obs.X.shape[1]
    max_size = mcmc_config.max_factor_size

    def score(s: State) -> tuple[float, list[Delta]]:  # log posterior, moves
        logp = log_evidence(s, obs, hypers, blocks) + mcmc_config.log_prior(s)
        return logp, move_deltas(s, d, max_size)

    state = singleton_decomposition(d).subsets
    masks = frozenset(map(_mask, state))
    chain = [state]
    if mcmc_config.chain_length:  # a chain of length 0 scores no state
        blocks = SubsetBlocks(obs.X, [hypers.lengthscale_for(j) for j in range(d)])
        logp, deltas = score(state)
    for _ in range(mcmc_config.chain_length):
        if deltas:
            # a delta and the successor it leads to determine each other, so
            # these counts are the successor's multiplicities in either list
            delta = deltas[int(rng.integers(len(deltas)))]
            proposal = _apply(masks, delta)
            proposal_state = _state(proposal)
            logp2, back = score(proposal_state)
            q_fwd = deltas.count(delta) / len(deltas)
            q_bwd = (back.count(delta[::-1]) / len(back)) if back else 0.0
            if q_bwd > 0.0:
                log_alpha = (logp2 - logp) + math.log(q_bwd) - math.log(q_fwd)
                if math.log(rng.uniform()) < log_alpha:
                    masks, state, logp, deltas = proposal, proposal_state, logp2, back
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
    samples = tuple(samples) if np.iterable(samples) else ()
    if not samples:
        raise ContractViolationError("merging needs >= 1 sampled decomposition")
    if not all(isinstance(dec, Decomposition) for dec in samples):
        raise ContractViolationError(f"merging takes Decompositions, got {samples!r}")
    counts = Counter()
    for dec in samples:
        counts.update(dec.subsets)
    union = tuple(sorted(counts))
    weights = tuple(counts[s] / len(samples) for s in union)
    return union, weights
