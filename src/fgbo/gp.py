"""Posterior inference over latent factor functions from noisy sum observations.

Observing only y_i = f(x_i) + eps with f = sum_I f_I, each factor posterior is

    mean_I(x)  = k_I(x)' (K + sn2 I)^-1 y
    var_I(x)   = k_I(x, x) - k_I(x)' (K + sn2 I)^-1 k_I(x)

where k_I(x) is the cross-covariance of factor I between x and the observed
inputs and K is the Gram matrix of the full additive kernel.  The sum of the
factor means equals the additive GP's posterior mean of f, which the engine
relies on; no analogous identity holds for variances.

A fit builds K from a kernels.GramBlocks cache when the caller passes one
(the engine owns one per run with a static structure), so over a run it
costs O(n_f |I| t) new exponentials, n_f t^2 multiply-adds and the O(t^3)
Cholesky and inverse.
It factorizes K + sn2 I = L L' once and caches the weights
(K + sn2 I)^-1 y and the inverse factor L^-1, so m inputs cost an (m x t)
cross-covariance Kxg, one matrix-vector product for the means and one
(m x t)(t x t) GEMM for the variances, var = prior - rowsum((Kxg L^-T)^2).
Batch inputs are points; a factor's batch may also be axes (a tuple of 1-D
arrays) standing for its Cartesian sub-grid, see kernels.  The objective
posterior takes points only: on a grid, the centralized acquisition is the
one-factor case of the factor path.

A factor's batch is computed in row blocks: consecutive runs of points, or
slices of the first axis, of at least BLOCK_ROWS rows (see _row_blocks).
The temporaries are then a few (block x t) arrays instead of (m x t) ones;
on a large sub-grid their cache and page traffic, not the flops, set the
cost.  Every row gets the float operations of the one-block product, and
with OpenBLAS on one thread the results are bitwise the same (fgbo selftest
checks this).  Blocks this long keep each GEMM off OpenBLAS's small-matrix
kernel, which rounds some t differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dtrtri

from .errors import ContractViolationError, NumericalFailureError
from .kernels import AdditiveKernel, GramBlocks, cross_additive, cross_factor, gram

# negative posterior variances beyond this are treated as bugs, not roundoff
VARIANCE_CLAMP = 1e-9

# least rows per block of a factor's batch (see the module docstring)
BLOCK_ROWS = 4096

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
        if X.size == 0:
            X = X.reshape(0, X.shape[1] if X.ndim == 2 and X.shape[1] else 0)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if len(X) != len(y):
            raise ContractViolationError(
                f"|X| = {len(X)} must equal |y| = {len(y)}"
            )
        if self.noise_variance <= 0:
            raise ContractViolationError("noise variance must be > 0")
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
    jitter, and alpha = (K + sn2 I)^-1 y, for t >= 1 observations."""
    K = gram(kernel, observations.X, blocks)
    K.flat[:: len(observations) + 1] += observations.noise_variance
    L, jitter = dense_cholesky_with_jitter(K)
    # LAPACK reads column-major arrays; one copy here spares the copies that
    # cho_solve and dtrtri would each make of a row-major L
    L = np.asfortranarray(L)
    return L, jitter, cho_solve((L, True), observations.y)


def _batch_inputs(U):
    """Points (m, k) or a tuple of k axes, as floats, and their row count m.

    Raises ContractViolationError on a NaN or infinite coordinate.
    """
    if isinstance(U, tuple):
        U = tuple(np.asarray(axis, dtype=float) for axis in U)
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


class FactorPosterior:
    """Cached solve state for all per-factor posteriors of one kernel + data.

    Immutable after construction; safe for concurrent readers.  With no
    observations every factor posterior is its prior.
    """

    def __init__(
        self,
        kernel: AdditiveKernel,
        observations: ObservationSet,
        blocks: GramBlocks | None = None,
    ):
        self.kernel = kernel
        self.observations = observations
        if len(observations) == 0:
            self.jitter = 0.0
            self._Linv = None
            self.weights = np.zeros(0)
        else:
            L, self.jitter, self.weights = _factorize(kernel, observations, blocks)
            self._Linv, info = dtrtri(L, lower=1, overwrite_c=1)
            if info != 0:
                raise NumericalFailureError(
                    f"inverting the Cholesky factor failed (LAPACK info {info})",
                    jitter=self.jitter,
                )

    def _check_factor_index(self, factor_index: int):
        if not 0 <= factor_index < self.kernel.num_factors:
            raise ContractViolationError(
                f"factor index {factor_index} out of range "
                f"[0, {self.kernel.num_factors})"
            )

    def _mean_var(self, Kxg: np.ndarray, prior: float, what: str):
        """Posterior (mean, variance) from the cross-covariance Kxg (m, t).

        A non-finite variance raises; variances in [-VARIANCE_CLAMP, 0) clamp
        to 0 and anything lower raises.
        """
        mean = Kxg @ self.weights
        W = Kxg @ self._Linv.T  # (L^-1 Kxg')'
        var = prior - np.einsum("mt,mt->m", W, W)
        if not np.isfinite(var).all():
            raise NumericalFailureError(f"{what} posterior variance is not finite")
        low = var.min(initial=0.0)
        if low < -VARIANCE_CLAMP:
            raise NumericalFailureError(
                f"{what} posterior variance {low:.3e} below -{VARIANCE_CLAMP:.0e}"
            )
        return mean, np.maximum(var, 0.0)

    def factor_mean_var_batch(self, factor_index: int, U):
        """Posterior mean and variance of one factor at sub-inputs U.

        U is (m, |I|) points or a tuple of |I| axes (m = product of lengths).
        Each row block's cross-covariance and posterior is computed and
        checked in turn (see the module docstring).
        """
        self._check_factor_index(factor_index)
        f = self.kernel.factors[factor_index]
        U, m = _batch_inputs(U)
        width = len(U) if isinstance(U, tuple) else U.shape[1]
        if width != f.arity:
            raise ContractViolationError(
                f"factor {factor_index} has arity {f.arity}, got {width} coordinates"
            )
        if self._Linv is None:
            return np.zeros(m), np.full(m, f.signal_variance)
        V = f.restrict(self.observations.X)
        mean, var = np.empty(m), np.empty(m)
        for a, b, block in _row_blocks(U):
            Kxg = cross_factor(f, block, V)
            mean[a:b], var[a:b] = self._mean_var(Kxg, f.signal_variance, "factor")
        return mean, var

    def factor_mean_var(self, factor_index: int, x):
        """Posterior (mean, variance) of factor `factor_index` at full input x."""
        self._check_factor_index(factor_index)
        f = self.kernel.factors[factor_index]
        u = f.restrict(np.asarray(x, dtype=float).reshape(1, -1))
        mean, var = self.factor_mean_var_batch(factor_index, u)
        return float(mean[0]), float(var[0])

    def objective_mean_var_batch(self, X):
        """Posterior of f itself under the full additive kernel at (m, d) points.

        A tuple of axes is refused rather than read as points; acquisition
        over a grid goes through factor_mean_var_batch (see acquisition).
        """
        if isinstance(X, tuple):
            raise ContractViolationError("objective posteriors take (m, d) points, not axes")
        X, m = _batch_inputs(X)
        prior = self.kernel.prior_variance()
        if self._Linv is None:
            return np.zeros(m), np.full(m, prior)
        Kxg = cross_additive(self.kernel, X, self.observations.X)
        return self._mean_var(Kxg, prior, "objective")

    def objective_mean_var(self, x):
        mean, var = self.objective_mean_var_batch(np.asarray(x, dtype=float).reshape(1, -1))
        return float(mean[0]), float(var[0])


def fit(
    kernel: AdditiveKernel, observations: ObservationSet, blocks: GramBlocks | None = None
) -> FactorPosterior:
    """Factorize (K + sn2 I) once so all factor posteriors share the solve.

    blocks, if given, is the caller's Gram-block cache (see kernels).
    """
    return FactorPosterior(kernel, observations, blocks)


def log_marginal_likelihood(kernel: AdditiveKernel, observations: ObservationSet) -> float:
    """GP evidence  -y'(K+sn2 I)^-1 y / 2 - log det(...)/2 - t log(2 pi)/2."""
    t = len(observations)
    if t == 0:
        raise ContractViolationError("evidence needs at least one observation")
    L, _, alpha = _factorize(kernel, observations)
    return float(
        -0.5 * observations.y @ alpha
        - np.log(np.diag(L)).sum()
        - 0.5 * t * math.log(2.0 * math.pi)
    )
