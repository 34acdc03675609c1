"""Posterior inference over latent factor functions from noisy sum observations.

Observing only y_i = f(x_i) + eps with f = sum_I f_I, each factor posterior is

    mean_I(x)  = k_I(x)' (K + sn2 I)^-1 y
    var_I(x)   = k_I(x, x) - k_I(x)' (K + sn2 I)^-1 k_I(x)

where k_I(x) is the cross-covariance of factor I between x and the observed
inputs and K is the Gram matrix of the full additive kernel.  The sum of the
factor means equals the additive GP's posterior mean of f, which the engine
relies on; no analogous identity holds for variances.  An ObservationSet
holds at least one observation, so every posterior here is a fitted one.

A fit builds K from a kernels.GramBlocks cache when the caller passes one
(the engine owns one per run with a static structure, whose factors share
one signal variance), so over a run it costs O(n_f |I| t) new
exponentials, O(n_f t) adds, one scaled t x t copy and the O(t^3)
Cholesky and inverse.
It factorizes K + sn2 I = L L' once and caches the weights
(K + sn2 I)^-1 y and the inverse factor L^-1, so m inputs cost an (m x t)
cross-covariance Kxg, one matrix-vector product for the means and one
(m x t)(t x t) GEMM for the variances, var = prior - rowsum((Kxg L^-T)^2).
A posterior answers in batches: a factor's batch is (m, |I|) points or
axes (a tuple of 1-D arrays) standing for its Cartesian sub-grid, see
kernels; a single input is a one-row batch.  No run asks for the posterior
of f itself: on a grid, the centralized acquisition is the one-factor case
of the factor path, and fgbo.selftest.dense_posterior is f's oracle.
objective_mean_var_batch stays only while perfbench's tracer patches it.
Every variance, on every path, goes through one check: a non-finite one
raises, [-VARIANCE_CLAMP, 0) clamps to 0, and anything lower raises.

A large sub-grid given as axes is a Khatri-Rao contraction and never
builds Kxg.  The SE factor kernel separates per axis, so with the first
a = ceil(|I|/2) axes on the left and the rest on the right,
k_I(x_L x_R)[i] = s2 K_L[i, x_L] K_R[i, x_R], where K_L (t x m_L) and K_R
(t x m_R) are the per-axis factors' C-order Khatri-Rao products
(kernels.split_cross_factor).  Then

    mean = s2 K_L' diag(w) K_R                  (one GEMM)
    var  = s2 - s2^2 G_L' diag(a) G_R

where row (i, k >= i) of the pair table G_L is K_L[i] * K_L[k], of G_R
likewise, and a holds the entries of A = (K + sn2 I)^-1 = L^-T L^-1 at
those pairs, off-diagonal ones doubled (computed once per posterior).  The
variance is a symmetric quadratic form, so the t(t+1)/2 pairs hold all of
it; it is accumulated over chunks of at most PAIR_CHUNK_ENTRIES entries
per pair table, so its temporaries stay small whatever t is.  The pair
tables hold t(t+1)/2 (m_L + m_R) entries where Kxg holds t m, so a factor
takes the contraction only when that is no more (_contracts): on axes, at
arity >= 2, with at least BLOCK_ROWS rows, and (m_L + m_R)(t + 1) <= 2 m.
Its floats differ from the row blocks' by roundoff (fgbo selftest bounds
the difference).

Everything else, a factor's points, arity 1 and grids past the size rule,
is computed in row blocks: consecutive runs of points, or slices of the
first axis, of at least BLOCK_ROWS rows (see _row_blocks).
The temporaries are then a few (block x t) arrays instead of (m x t) ones;
on a large sub-grid their cache and page traffic, not the flops, set the
cost.  Every row gets the float operations of the one-block product, and
with OpenBLAS on one thread the results are bitwise the same (fgbo selftest
checks this).  Blocks this long keep each GEMM off OpenBLAS's small-matrix
kernel, which rounds some t differently.

Small factors share blocks instead.  grid_mean_var packs the sub-grids of
factors of one arity with fewer than BLOCK_ROWS rows into blocks of at most
BLOCK_ROWS rows, each factor's rows contiguous, so no temporary outgrows a
block; on a sub-grid of tens of rows the per-call costs, not the flops, set
the cost.  A pack makes one batched cross-covariance (kernels.cross_factors)
and one pass of row sums, checks and clamp, but every factor keeps its own
matrix-vector product and GEMM on its slice, of the shape it has alone: one
(160 x t) GEMM against L^-T rounds differently from ten (16 x t) ones at
some t.  Packed results are bitwise the one-factor ones (fgbo selftest
checks this too).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import math

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dtrtri

from .errors import ContractViolationError, NumericalFailureError, is_integer
from .kernels import (
    AdditiveKernel,
    GramBlocks,
    cross_additive,
    cross_factor,
    cross_factors,
    gram,
    split_cross_factor,
)

# negative posterior variances beyond this are treated as bugs, not roundoff
VARIANCE_CLAMP = 1e-9

# least rows per block of a factor's batch (see the module docstring)
BLOCK_ROWS = 4096

# most entries per chunk of a pair table (0.25 MB): on a centralized
# Shekel-4 run, 0.5 MB chunks raised the peak RSS by 0.9 MB and 2 MB chunks
# by 3.9 MB, at the same speed
PAIR_CHUNK_ENTRIES = 1 << 15

JITTER_SCALE = 1e-10
MAX_JITTER_ESCALATIONS = 6


@dataclass(frozen=True)
class ObservationSet:
    """Query inputs, noisy outputs, and the shared noise variance."""

    X: np.ndarray  # (t, d)
    y: np.ndarray  # (t,)
    noise_variance: float

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2:
            raise ContractViolationError(f"X must be a (t, d) array, got {X.ndim} dimensions")
        if len(y) == 0:
            raise ContractViolationError("a GP needs at least one observation")
        if len(X) != len(y):
            raise ContractViolationError(
                f"|X| = {len(X)} must equal |y| = {len(y)}"
            )
        if not 0 < self.noise_variance < math.inf:
            raise ContractViolationError("noise variance must be > 0 and finite")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ContractViolationError("observations must be finite")

    def __len__(self) -> int:
        return len(self.y)


def dense_cholesky_with_jitter(A: np.ndarray):
    """Lower Cholesky factor of a symmetric matrix, with escalating jitter.

    Starts at JITTER_SCALE * trace/n and multiplies by 10 up to
    MAX_JITTER_ESCALATIONS times; raises NumericalFailureError carrying the
    last jitter attempted if all fail.  Returns (L, jitter).
    """
    n = A.shape[0]
    scale = np.trace(A) / n
    base = JITTER_SCALE * (scale if scale > 0 else 1.0)
    jitter = 0.0
    for attempt in range(MAX_JITTER_ESCALATIONS + 1):
        try:
            L = np.linalg.cholesky(A + jitter * np.eye(n) if jitter else A)
            return L, jitter
        except np.linalg.LinAlgError:
            jitter = base if attempt == 0 else jitter * 10.0
    raise NumericalFailureError(
        f"Cholesky failed after jitter escalation up to {jitter:.3e}",
        jitter=jitter,
    )


def _factorize(
    kernel: AdditiveKernel, observations: ObservationSet, blocks: GramBlocks | None = None
):
    """(L, jitter, alpha): the lower Cholesky factor of K + sn2 I, its
    jitter, and alpha = (K + sn2 I)^-1 y."""
    K = gram(kernel, observations.X, blocks)
    K.flat[:: len(observations) + 1] += observations.noise_variance
    L, jitter = dense_cholesky_with_jitter(K)
    # LAPACK reads column-major arrays; one copy here spares the copies that
    # cho_solve and dtrtri would each make of a row-major L
    L = np.asfortranarray(L)
    return L, jitter, cho_solve((L, True), observations.y)


def _batch_inputs(U):
    """Points (m, k) or a tuple of k axes, as floats, and their row count m.

    Raises ContractViolationError on an axis that is not 1-D or on a NaN or
    infinite coordinate.
    """
    if isinstance(U, tuple):
        U = tuple(np.asarray(axis, dtype=float) for axis in U)
        if any(axis.ndim != 1 for axis in U):
            raise ContractViolationError("batch axes must be 1-D arrays")
        finite = all(np.isfinite(axis).all() for axis in U)
        m = math.prod(len(axis) for axis in U)
    else:
        U = np.atleast_2d(np.asarray(U, dtype=float))
        finite = np.isfinite(U).all()
        m = U.shape[0]
    if not finite:
        raise ContractViolationError("posterior inputs must be finite")
    return U, m


def _row_blocks(U):
    """Split batch inputs into consecutive row blocks, as (start, stop, block).

    Points split by rows and axes by their first axis.  Every block but the
    last holds the same number of rows: at least BLOCK_ROWS, and a multiple
    of 4, since a GEMV computes the last (rows mod 4) rows of its call with
    another kernel.  The last block also takes the remainder, so a batch of
    fewer than 2 BLOCK_ROWS rows is one block.
    """
    first, rest = (U[0], U[1:]) if isinstance(U, tuple) else (U, None)
    inner = math.prod(len(axis) for axis in rest) if rest else 1
    # first-axis entries per block: a multiple of `unit`, whose rows are a
    # multiple of 4
    unit = 4 // math.gcd(inner, 4)
    per = -(-BLOCK_ROWS // max(inner, 1) // unit) * unit
    bounds = [per * k for k in range(max(1, len(first) // per))] + [len(first)]
    for a, b in zip(bounds, bounds[1:]):
        block = first[a:b] if rest is None else (first[a:b],) + rest
        yield a * inner, b * inner, block


def _contracts(lengths, t: int) -> bool:
    """Whether a factor's grid of these axis lengths, at t observations,
    takes the contraction (see the module docstring): at least two axes, at
    least BLOCK_ROWS rows, and pair tables no larger than the cross-covariance
    they replace, t(t + 1)/2 (m_L + m_R) <= t m."""
    m = math.prod(lengths)
    if len(lengths) < 2 or m < BLOCK_ROWS:
        return False
    m_left = math.prod(lengths[: (len(lengths) + 1) // 2])
    return (m_left + m // m_left) * (t + 1) <= 2 * m


def _pair_chunks(t: int, rows: int):
    """The pairs (i, k), 0 <= i <= k < t, in row-major order, as chunks of
    at most `rows` pairs; a chunk is a list of runs (i, k0, k1), the pairs
    (i, k0) .. (i, k1 - 1)."""
    chunk, size = [], 0
    for i in range(t):
        k = i
        while k < t:
            k1 = min(t, k + rows - size)
            chunk.append((i, k, k1))
            size += k1 - k
            k = k1
            if size == rows:
                yield chunk
                chunk, size = [], 0
    if chunk:
        yield chunk


def _checked_variance(var: np.ndarray, what: str) -> np.ndarray:
    """var clamped to 0 from [-VARIANCE_CLAMP, 0); a non-finite variance or
    one below -VARIANCE_CLAMP raises NumericalFailureError."""
    if not np.isfinite(var).all():
        raise NumericalFailureError(f"{what} posterior variance is not finite")
    low = var.min(initial=0.0)
    if low < -VARIANCE_CLAMP:
        raise NumericalFailureError(
            f"{what} posterior variance {low:.3e} below -{VARIANCE_CLAMP:.0e}"
        )
    return np.maximum(var, 0.0)


class FactorPosterior:
    """Cached solve state for all per-factor posteriors of one kernel + data.

    Immutable after construction, but for the pair weights the first
    contraction caches; concurrent readers that race there compute the same
    array, so they stay safe.
    """

    def __init__(
        self,
        kernel: AdditiveKernel,
        observations: ObservationSet,
        blocks: GramBlocks | None = None,
    ):
        self.kernel = kernel
        self.observations = observations
        L, self.jitter, self.weights = _factorize(kernel, observations, blocks)
        self._Linv, info = dtrtri(L, lower=1, overwrite_c=1)
        if info != 0:
            raise NumericalFailureError(
                f"inverting the Cholesky factor failed (LAPACK info {info})",
                jitter=self.jitter,
            )

    def _mean_var(self, Kxg: np.ndarray, prior, what: str, rows: int | None = None):
        """Posterior (mean, variance) from the cross-covariance Kxg (m, t).

        Kxg stacks segments of `rows` rows (default: one segment of all m),
        one per factor of a pack; each segment gets its own matrix-vector
        product and GEMM, of the shape it has alone, and the row sums, checks
        and clamp run once over the stack.  prior is a scalar or one value
        per row.  A non-finite variance raises; variances in
        [-VARIANCE_CLAMP, 0) clamp to 0 and anything lower raises.
        """
        rows = rows or max(len(Kxg), 1)
        mean, W = np.empty(len(Kxg)), np.empty(Kxg.shape)
        for a in range(0, len(Kxg), rows):
            np.matmul(Kxg[a : a + rows], self.weights, out=mean[a : a + rows])
            # (L^-1 Kxg')'
            np.matmul(Kxg[a : a + rows], self._Linv.T, out=W[a : a + rows])
        var = prior - np.einsum("mt,mt->m", W, W)
        return mean, _checked_variance(var, what)

    @cached_property
    def _pair_weights(self) -> np.ndarray:
        """The entries of A = (K + sn2 I)^-1 = L^-T L^-1 at the pairs (i, k),
        i <= k, in row-major order, off-diagonal ones doubled:
        k' A k = sum_pairs a_ik k_i k_k."""
        A = self._Linv.T @ self._Linv
        A *= 2.0
        A.flat[:: len(A) + 1] *= 0.5
        return A[np.triu_indices(len(A))]

    def _contraction_mean_var(self, f, axes: tuple, V: np.ndarray):
        """Posterior (mean, variance) of factor f on the grid of axes, as
        Khatri-Rao contractions over the observations (see the module
        docstring), never building the cross-covariance."""
        KL, KR = split_cross_factor(f, axes, V, (len(axes) + 1) // 2)
        s2 = f.signal_variance
        mean = s2 * (KL.T @ (self.weights[:, None] * KR))
        a = self._pair_weights
        rows = max(1, PAIR_CHUNK_ENTRIES // max(KL.shape[1], KR.shape[1]))
        GL = np.empty((min(rows, len(a)), KL.shape[1]))
        GR = np.empty((len(GL), KR.shape[1]))
        Q, part = np.zeros(mean.shape), np.empty(mean.shape)
        p = 0
        for chunk in _pair_chunks(len(V), rows):
            n = 0
            for i, k0, k1 in chunk:
                np.multiply(KL[k0:k1], KL[i], out=GL[n : n + k1 - k0])
                np.multiply(KR[k0:k1], KR[i], out=GR[n : n + k1 - k0])
                n += k1 - k0
            GR[:n] *= a[p : p + n, None]
            np.matmul(GL[:n].T, GR[:n], out=part)
            Q += part
            p += n
        var = s2 - (s2 * s2) * Q.ravel()
        return mean.ravel(), _checked_variance(var, "factor")

    def _factors_mean_var(self, indices, U, m: int):
        """Stacked posterior (mean, variance) of the factors `indices`, all of
        one arity, at the same checked sub-inputs U of m rows each: factor
        indices[j] at row r of U is row j m + r.

        One factor takes the contraction when _contracts says so, and runs
        in row blocks (see _row_blocks) otherwise.  Several factors form one
        block, the pack: U must then be axes, and the pack at most BLOCK_ROWS
        rows.
        """
        factors = [self.kernel.factors[i] for i in indices]
        X = self.observations.X
        if len(factors) > 1:
            V = np.stack([f.restrict(X) for f in factors])
            Kxg = cross_factors(factors, U, V).reshape(-1, len(X))
            prior = np.repeat([f.signal_variance for f in factors], m)
            return self._mean_var(Kxg, prior, "factor", m)
        (f,) = factors
        V = f.restrict(X)
        if isinstance(U, tuple) and _contracts([len(axis) for axis in U], len(X)):
            return self._contraction_mean_var(f, U, V)
        mean, var = np.empty(m), np.empty(m)
        for a, b, block in _row_blocks(U):
            Kxg = cross_factor(f, block, V)
            mean[a:b], var[a:b] = self._mean_var(Kxg, f.signal_variance, "factor")
        return mean, var

    def factor_mean_var_batch(self, factor_index: int, U):
        """Posterior mean and variance of one factor at sub-inputs U.

        U is (m, |I|) points or a tuple of |I| axes (m = product of lengths).
        A large grid of axes is contracted; otherwise each row block's
        cross-covariance and posterior is computed and checked in turn (see
        the module docstring).
        """
        if not (is_integer(factor_index) and 0 <= factor_index < self.kernel.num_factors):
            raise ContractViolationError(
                f"factor index must be an integer in [0, {self.kernel.num_factors}), "
                f"got {factor_index!r}"
            )
        f = self.kernel.factors[factor_index]
        U, m = _batch_inputs(U)
        width = len(U) if isinstance(U, tuple) else U.shape[1]
        if width != f.arity:
            raise ContractViolationError(
                f"factor {factor_index} has arity {f.arity}, got {width} coordinates"
            )
        return self._factors_mean_var((factor_index,), U, m)

    def grid_mean_var(self, axis):
        """Yield (indices, mean, var) pack by pack, covering every factor on
        its sub-grid (axis,) * |I| of the shared 1-D axis.

        A pack holds factors of one arity, in factor order (see the module
        docstring): factors whose sub-grids hold fewer than BLOCK_ROWS rows
        share packs of at most BLOCK_ROWS rows, each one posterior pass, and
        mean and var stack the pack's factors (factor indices[j] at sub-grid
        row r is row j m + r).  A larger factor is a pack of its own,
        contracted or in row blocks.  A one-factor pack goes through
        factor_mean_var_batch, the name perfbench's tracer times.
        """
        (axis,), m = _batch_inputs((axis,))
        by_arity: dict = {}
        for i, f in enumerate(self.kernel.factors):
            by_arity.setdefault(f.arity, []).append(i)
        for arity, indices in by_arity.items():
            axes = (axis,) * arity
            per = max(1, BLOCK_ROWS // max(m**arity, 1))
            for start in range(0, len(indices), per):
                pack = indices[start : start + per]
                if len(pack) == 1:
                    yield pack, *self.factor_mean_var_batch(pack[0], axes)
                else:
                    yield pack, *self._factors_mean_var(pack, axes, m**arity)

    def objective_mean_var_batch(self, X):
        """Posterior of f itself under the full additive kernel at (m, d) points.

        A tuple of axes is refused rather than read as points; acquisition
        over a grid goes through factor_mean_var_batch (see acquisition).
        """
        if isinstance(X, tuple):
            raise ContractViolationError("objective posteriors take (m, d) points, not axes")
        X, _ = _batch_inputs(X)
        Kxg = cross_additive(self.kernel, X, self.observations.X)
        return self._mean_var(Kxg, self.kernel.prior_variance(), "objective")


def fit(
    kernel: AdditiveKernel, observations: ObservationSet, blocks: GramBlocks | None = None
) -> FactorPosterior:
    """Factorize (K + sn2 I) once so all factor posteriors share the solve.

    blocks, if given, is the caller's Gram-block cache (see kernels).
    """
    return FactorPosterior(kernel, observations, blocks)


def log_marginal_likelihood(kernel: AdditiveKernel, observations: ObservationSet) -> float:
    """GP evidence  -y'(K+sn2 I)^-1 y / 2 - log det(...)/2 - t log(2 pi)/2."""
    L, _, alpha = _factorize(kernel, observations)
    return float(
        -0.5 * observations.y @ alpha
        - np.log(np.diag(L)).sum()
        - 0.5 * len(observations) * math.log(2.0 * math.pi)
    )
