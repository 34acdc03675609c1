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

The evidence.  log_marginal_likelihood takes a kernel, whose K it builds
with kernels.gram, or K itself; it adds the noise diagonal, factorizes with
dense_cholesky_with_jitter, solves with cho_solve and returns
-y'alpha/2 - sum log diag L - t log(2 pi)/2, and a fit shares that
factorization (_factorize).  An MCMC chain over decompositions passes it,
through decomposition.log_evidence, a K summed from the chain's
kernels.SubsetBlocks cache, whose floats equal gram's; the rest of the
evidence is this one code path, so the chain's values equal the uncached
ones bit for bit.

A sub-grid given as axes, of arity >= 2 and with at least BLOCK_ROWS rows
(_contracts), is a Khatri-Rao contraction and never builds Kxg, whatever t
is.  The SE factor kernel separates per axis, so with the first
ceil(|I|/2) axes on the left and the rest on the right (the split
kernels.split_cross_factor makes), k_I(x_L x_R)[i] = s2 K_L[i, x_L]
K_R[i, x_R], where K_L (t x m_L) and K_R (t x m_R) are the per-axis
factors' C-order Khatri-Rao products.  Then

    mean = s2 K_L' diag(w) K_R                  (one GEMM)
    var  = s2 - s2^2 G_L' diag(a) G_R

where row p of the pair table G_L is K_L[i_p] * K_L[k_p], of G_R
likewise, over the pairs (i_p, k_p) of np.triu_indices(t), and a_p is the
entry of A = (K + sn2 I)^-1 = L^-T L^-1 at pair p, off-diagonal ones
doubled (the three arrays are computed once per posterior).  The variance
is a symmetric quadratic form, so the t(t+1)/2 pairs hold all of it.  It
is accumulated over chunks, consecutive slices of the pair arrays, each
gathered into pair tables of about PAIR_CHUNK_ENTRIES entries and added by
one GEMM, so the temporaries stay small whatever t is; a chunk holds at
least MIN_CHUNK_PAIRS pairs, since a side wider than 1024 (a 64^3 grid's
is 4096) would otherwise leave it a few pairs, and GEMMs that thin are
slower than the (m x t) products they replace.  Its floats differ from those
products' by roundoff (fgbo selftest bounds the difference).

Everything else, points, one axis or a grid of fewer than BLOCK_ROWS rows,
is one direct product: the (m x t) cross-covariance Kxg of all its rows and
one posterior pass over it.  In a run such a batch is short: a larger grid
is contracted, and an axis holds tau points.

Small factors share a direct product.  grid_mean_var packs the sub-grids
of factors of one arity with fewer than BLOCK_ROWS rows into packs of at
most BLOCK_ROWS rows, each factor's rows contiguous, so no temporary
outgrows a pack; on a sub-grid of tens of rows the per-call costs, not the
flops, set the cost.  A pack makes one batched cross-covariance
(kernels.cross_factors) and one pass of row sums, checks and clamp, but
every factor keeps its own matrix-vector product and GEMM on its slice, of
the shape it has alone: one (160 x t) GEMM against L^-T rounds differently
from ten (16 x t) ones at some t.  Packed results are bitwise the
one-factor ones (fgbo selftest checks this).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import math

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dtrtri

from .errors import (
    ContractViolationError,
    NumericalFailureError,
    check_array,
    check_real,
    is_integer,
)
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

# most rows per pack of small factors, and least rows of a contracted grid
# (see the module docstring)
BLOCK_ROWS = 4096

# entries per chunk of a pair table (0.25 MB): on a centralized Shekel-4
# run, 0.5 MB chunks raised the peak RSS by 0.9 MB and 2 MB chunks by
# 3.9 MB, at the same speed
PAIR_CHUNK_ENTRIES = 1 << 15

# least pairs per chunk: 0.25 MB holds 8 pairs of a 64^3 grid's 4096-wide
# side, and the contraction then took 1.14-1.43x the CPU time of 4096-row
# (m x t) products at t = 60 and 1.63-2.14x at t = 155; 32 pairs took
# 0.60-0.64x and 0.83-0.97x (one BLAS thread, three runs)
MIN_CHUNK_PAIRS = 32

JITTER_SCALE = 1e-10
MAX_JITTER_ESCALATIONS = 6


@dataclass(frozen=True)
class ObservationSet:
    """Query inputs, noisy outputs, and the shared noise variance."""

    X: np.ndarray  # (t, d)
    y: np.ndarray  # (t,)
    noise_variance: float

    def __post_init__(self):
        X = np.atleast_2d(check_array("X", self.X))
        y = check_array("y", self.y).ravel()
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
        noise = check_real(ContractViolationError, "noise_variance", self.noise_variance)
        if not 0 < noise < math.inf:
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


def _factorize(K: np.ndarray, observations: ObservationSet):
    """(L, jitter, alpha): the lower Cholesky factor of K + sn2 I, its
    jitter, and alpha = (K + sn2 I)^-1 y, for the Gram matrix K of the
    observed inputs, which it overwrites."""
    K.flat[:: len(observations) + 1] += observations.noise_variance
    L, jitter = dense_cholesky_with_jitter(K)
    # LAPACK reads column-major arrays; one copy here spares the copies that
    # cho_solve and dtrtri would each make of a row-major L
    L = np.asfortranarray(L)
    # L and y are finite (LAPACK refuses a NaN or infinite pivot, and
    # ObservationSet checks y), and cho_solve's scan of them took half its
    # time at t = 25
    return L, jitter, cho_solve((L, True), observations.y, check_finite=False)


def _batch_inputs(U):
    """Points (m, k) or a tuple of k axes, as floats, and their row count m.

    Raises ContractViolationError on an axis that is not 1-D, on points that
    are not an (m, k) array, or on a NaN or infinite coordinate.
    """
    if isinstance(U, tuple):
        U = tuple(check_array("batch axes", axis) for axis in U)
        if any(axis.ndim != 1 for axis in U):
            raise ContractViolationError("batch axes must be 1-D arrays")
        finite = all(np.isfinite(axis).all() for axis in U)
        m = math.prod(len(axis) for axis in U)
    else:
        U = np.atleast_2d(check_array("batch points", U))
        if U.ndim != 2:
            raise ContractViolationError(
                f"batch points must be an (m, k) array, got {U.ndim} dimensions"
            )
        finite = np.isfinite(U).all()
        m = U.shape[0]
    if not finite:
        raise ContractViolationError("posterior inputs must be finite")
    return U, m


def _contracts(lengths) -> bool:
    """Whether a factor's grid of these axis lengths takes the contraction
    (see the module docstring): at least two axes and at least BLOCK_ROWS
    rows."""
    return len(lengths) >= 2 and math.prod(lengths) >= BLOCK_ROWS


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

    Immutable after construction, but for the pair arrays the first
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
        K = gram(kernel, observations.X, blocks)
        L, self.jitter, self.weights = _factorize(K, observations)
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
    def _pairs(self):
        """(i, k, a): the pairs (i[p], k[p]), 0 <= i[p] <= k[p] < t, in
        row-major order (np.triu_indices), and a[p], the entry of
        A = (K + sn2 I)^-1 = L^-T L^-1 at pair p, off-diagonal ones doubled,
        so that v' A v = sum_p a[p] v[i[p]] v[k[p]]."""
        A = self._Linv.T @ self._Linv
        A *= 2.0
        A.flat[:: len(A) + 1] *= 0.5
        i, k = np.triu_indices(len(A))
        return i, k, A[i, k]

    def _contraction_mean_var(self, f, axes: tuple, V: np.ndarray):
        """Posterior (mean, variance) of factor f on the grid of axes, as
        Khatri-Rao contractions over the observations (see the module
        docstring), never building the cross-covariance."""
        KL, KR = split_cross_factor(f, axes, V)
        s2 = f.signal_variance
        mean = s2 * (KL.T @ (self.weights[:, None] * KR))
        i, k, a = self._pairs
        rows = max(MIN_CHUNK_PAIRS, PAIR_CHUNK_ENTRIES // max(KL.shape[1], KR.shape[1]))
        Q = np.zeros(mean.shape)
        for p in range(0, len(a), rows):
            chunk = slice(p, p + rows)
            GL = KL[k[chunk]]
            GL *= KL[i[chunk]]
            GR = KR[k[chunk]]
            GR *= KR[i[chunk]]
            GR *= a[chunk, None]
            Q += GL.T @ GR
        var = s2 - (s2 * s2) * Q.ravel()
        return mean.ravel(), _checked_variance(var, "factor")

    def _factors_mean_var(self, indices, U, m: int):
        """Stacked posterior (mean, variance) of the factors `indices`, all of
        one arity, at the same checked sub-inputs U of m rows each: factor
        indices[j] at row r of U is row j m + r.

        One factor takes the contraction when _contracts says so, and is
        one direct product otherwise.  Several factors share one direct
        product, the pack: U must then be axes, and the pack at most
        BLOCK_ROWS rows.
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
        if isinstance(U, tuple) and _contracts([len(axis) for axis in U]):
            return self._contraction_mean_var(f, U, V)
        return self._mean_var(cross_factor(f, U, V), f.signal_variance, "factor")

    def factor_mean_var_batch(self, factor_index: int, U):
        """Posterior mean and variance of one factor at sub-inputs U.

        U is (m, |I|) points or a tuple of |I| axes (m = product of lengths).
        A large grid of axes is contracted; anything else is one
        cross-covariance and one checked posterior pass over all m rows (see
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
        contracted or one direct product.  A one-factor pack goes through
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


def log_marginal_likelihood(
    kernel: AdditiveKernel | np.ndarray, observations: ObservationSet
) -> float:
    """GP evidence  -y'(K+sn2 I)^-1 y / 2 - log det(...)/2 - t log(2 pi)/2.

    kernel is an AdditiveKernel, whose Gram matrix K of the observed inputs
    kernels.gram builds, or K (t, t) itself, given as is and overwritten.
    """
    if isinstance(kernel, AdditiveKernel):
        K = gram(kernel, observations.X)
    else:
        K = check_array("K", kernel)
        if K.shape != (len(observations),) * 2 or not np.isfinite(K).all():
            raise ContractViolationError(
                f"K must be the finite ({len(observations)}, {len(observations)}) Gram "
                f"matrix of the observations, got shape {K.shape}"
            )
    L, _, alpha = _factorize(K, observations)
    return float(
        -0.5 * observations.y @ alpha
        - np.log(np.diag(L)).sum()
        - 0.5 * len(observations) * math.log(2.0 * math.pi)
    )
