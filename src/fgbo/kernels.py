"""Factor-restricted covariance functions and their additive composition.

A :class:`FactorKernel` is a squared-exponential (RBF) covariance acting on a
small subset of the input coordinates; an :class:`AdditiveKernel` is a plain
sum of factor kernels, each evaluated on its own sub-vector:

    k(x, x') = sum_I  s2_I * exp(-0.5 * sum_{j in I} ((x_j - x'_j) / l_j)^2)

Inputs are dense real vectors in natural (unnormalized) coordinates; callers
that want unit-box behaviour normalize before building kernels.

Grid inputs.  The first input of cross_factor (not of cross_additive) may
also be given as axes: a tuple of 1-D arrays, one per factor coordinate,
standing for the rows of their Cartesian product in C order (row r is the
point whose per-axis indices are np.unravel_index(r, axis lengths)).  On
such a grid the SE factor kernel separates per dimension,

    k_I(grid, V) = s2_I * (E_1 * E_2 * ... * E_|I|)   (row-wise Khatri-Rao)
    E_j[a, n]    = exp(-0.5 * ((axis_j[a] - V[n, j]) / l_j)^2)

so a factor's block costs O(|I| tau t) exponentials and tau^|I| t products
instead of tau^|I| t |I| differences and exponentials.  Results equal the
point form to rounding; a single-axis block is bitwise equal to it.  A
centralized joint grid is the one-factor case: one factor over all d inputs.
cross_factors runs this product for k factors of one arity at the same
axes at once, over a leading factor axis; cross_factor's axes form is its
k = 1 case.  split_cross_factor stops short of the full product: it
returns the unscaled products of the first ceil(|I|/2) axes and of the
rest, (t x tau^a) and (t x tau^b), from the same per-axis E_j, and gp
contracts a large grid's posterior against them without forming the
(tau^|I| x t) matrix; the split is decided here and nowhere else.  Both
refuse, with ContractViolationError, axes that are not 1-D or not one
per factor coordinate, a V of the wrong rank or width, and (for
cross_factors) a factor count that differs from V's slices or factors of
different arities.

Gram matrices.  gram groups the factors by signal variance, in order of
their first factor, and builds K = sum_g s2_g * S_g from the unscaled sums
S_g = sum_{f in g} exp(-0.5 |z_f|^2), each summed in factor order.
Factors with distinct signal variances give sum_f s2_f * B_f; factors that
share one give s2 * (B_0 + B_1 + ...), a few ulps from the former.
induced_kernel splits one signal variance equally across its factors, so
every engine kernel is one group.  GramBlocks caches the sums and grows
them by the new observations' rows only: over a run that adds one
observation per fit, a fit then costs O(n_f |I| t) new exponentials,
O(n_f t) adds and one scaled t x t copy per group, instead of
O(n_f |I| t^2) exponentials.  A cache serves one caller's kernel structure
and only grows: the engine makes one per run with a static structure, so
it holds one t x t sum.  Without a cache, gram sums each group fresh with
the same float operations.

An MCMC chain over decompositions gets its Gram matrices from a
SubsetBlocks instead: its states change structure at every step, but each
move changes one or two subsets, so it keeps the unscaled block of every
subset it has scored over the fixed observed inputs, rather than one sum
per structure.  SubsetBlocks.gram adds a state's blocks in factor order
into a fresh array and scales once by the shared signal variance, the
float operations of gram for one group, so the chain's evidence is the
uncached evidence bit for bit.  Its blocks stay within SUBSET_BLOCK_BYTES,
least recently used first out, except for the call at hand's.  Apart from
GramBlocks and SubsetBlocks, everything here is a pure function of
immutable values.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    check_array,
    check_counts,
    check_integers,
    check_real,
    check_subsets,
)

# bytes of blocks a SubsetBlocks keeps: every subset of size <= 3 at d = 10
# (175 blocks) up to t = 150 observations.  At t = 300 all of them would take
# 126 MB; no benchmark workload, shipped config or golden chain holds 1 MB
SUBSET_BLOCK_BYTES = 32 << 20


@dataclass(frozen=True)
class FactorKernel:
    """Covariance for one latent factor, restricted to coordinate subset.

    subset          0-based input coordinate indices, strictly increasing
    signal_variance prior variance s2 at zero distance
    lengthscales    one positive ARD lengthscale per subset coordinate
    """

    subset: tuple[int, ...]
    signal_variance: float
    lengthscales: tuple[float, ...]

    def __post_init__(self):
        subset = check_integers("subset indices must be integers", self.subset)
        if not np.iterable(self.lengthscales):
            raise ContractViolationError(
                f"need one lengthscale per subset index, got {self.lengthscales!r}"
            )
        lengthscales = tuple(
            check_real(ContractViolationError, "lengthscales", l) for l in self.lengthscales
        )
        s2 = check_real(ContractViolationError, "signal_variance", self.signal_variance)
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "lengthscales", lengthscales)
        if len(subset) == 0:
            raise ContractViolationError("factor subset must be nonempty")
        if any(b <= a for a, b in zip(subset, subset[1:])):
            raise ContractViolationError(
                f"subset indices must be strictly increasing, got {subset}"
            )
        if subset[0] < 0:
            raise ContractViolationError("subset indices must be >= 0")
        if len(lengthscales) != len(subset):
            raise ContractViolationError(
                f"need one lengthscale per subset index: "
                f"{len(lengthscales)} != {len(subset)}"
            )
        if not all(0 < v < math.inf for v in (*lengthscales, s2)):
            raise ContractViolationError(
                "lengthscales and signal variance must be positive and finite"
            )

    @property
    def arity(self) -> int:
        return len(self.subset)

    def restrict(self, X: np.ndarray) -> np.ndarray:
        """Select this factor's coordinates from full inputs (..., d)."""
        X = np.asarray(X, dtype=float)
        if X.shape[-1] <= self.subset[-1]:
            raise ContractViolationError(
                f"input dimension {X.shape[-1]} too small for subset {self.subset}"
            )
        return X[..., list(self.subset)]


@dataclass(frozen=True)
class AdditiveKernel:
    """Sum of factor kernels; evaluation is the sum of factor evaluations."""

    factors: tuple[FactorKernel, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) == 0:
            raise ContractViolationError("additive kernel needs >= 1 factor")

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def prior_variance(self) -> float:
        """k(x, x) = sum of factor signal variances, the same at every x (SE)."""
        return float(sum(f.signal_variance for f in self.factors))


def cross_factor(kernel: FactorKernel, U, V: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix of one factor between two sub-input sets.

    U: (m, arity) points, or a tuple of arity 1-D axes with m = the product
    of their lengths; V: (n, arity) -> (m, n).
    """
    V = np.atleast_2d(check_array("V", V))
    if V.ndim != 2:
        raise ContractViolationError(f"V must be an (n, arity) array, got {V.ndim} dimensions")
    if isinstance(U, tuple):
        return cross_factors((kernel,), U, V[None])[0]
    U = np.atleast_2d(check_array("U", U))
    if U.ndim != 2:
        raise ContractViolationError(f"U must be an (m, arity) array, got {U.ndim} dimensions")
    if U.shape[1] != kernel.arity or V.shape[1] != kernel.arity:
        raise ContractViolationError(
            f"sub-inputs must have {kernel.arity} columns"
        )
    return kernel.signal_variance * _se(U, V, np.asarray(kernel.lengthscales))


def cross_factors(kernels, axes: tuple, V: np.ndarray) -> np.ndarray:
    """Cross-covariances of k factors of one arity at the same axes, (k, m, n).

    axes is a tuple of arity 1-D float arrays (m = the product of their
    lengths) and V (k, n, arity) holds each factor's sub-inputs.  The
    Khatri-Rao product runs once over a leading factor axis, with the
    lengthscales and signal variances as (k, ...) arrays.  Every entry gets
    the same float operations whatever k, so factor j's slice equals
    cross_factor(kernels[j], axes, V[j]), the k = 1 case, bit for bit.
    """
    kernels = tuple(kernels)
    if not kernels or any(f.arity != kernels[0].arity for f in kernels):
        raise ContractViolationError("need one or more factors, all of one arity")
    axes, V = _grid_inputs(kernels[0].arity, axes, V, 3)
    if len(V) != len(kernels):
        raise ContractViolationError(
            f"need one V slice per factor: {len(V)} != {len(kernels)}"
        )
    k, n = V.shape[:2]
    # per factor (s2, l_1, ..., l_arity), and v / l per axis as (arity, k, 1, n)
    params = np.array([(f.signal_variance, *f.lengthscales) for f in kernels])
    ls = params[:, 1:]
    Vl = (V / ls[:, None, :]).transpose(2, 0, 1)[:, :, None, :]
    K = None
    for axis, l, vl in zip(axes, ls.T[:, :, None, None], Vl):
        # in place: a pack's (k, m, n) temporaries are as large as its block
        E = _se_in_place(axis[:, None] / l - vl)
        if K is None:
            E *= params[:, 0, None, None]
            K = E
        else:
            K = (K[:, :, None, :] * E[:, None]).reshape(k, -1, n)
    return K


def split_cross_factor(kernel: FactorKernel, axes: tuple, V: np.ndarray):
    """Unscaled Khatri-Rao factors (K_L, K_R) of one factor of arity >= 2 at
    axes, split after the first ceil(arity/2) axes.

    axes is a tuple of arity 1-D float arrays and V (n, arity) the factor's
    sub-inputs.  E_j (n, len(axes[j])) = exp(-0.5 z^2), z = axis_j/l_j -
    v_j/l_j, gets cross_factors' float operations, and K_L (n, m_L) and K_R
    (n, m_R) are the C-order row-wise products of the left axes' E_j and of
    the rest, so that cross_factor(kernel, axes, V)[r_L m_R + r_R, i] equals
    s2 K_L[i, r_L] K_R[i, r_R] to rounding.
    """
    if kernel.arity < 2:
        raise ContractViolationError("a split needs a factor of arity >= 2")
    axes, V = _grid_inputs(kernel.arity, axes, V, 2)
    Vl = V / np.asarray(kernel.lengthscales)
    E = [
        _se_in_place(axis / l - vl[:, None])
        for axis, l, vl in zip(axes, kernel.lengthscales, Vl.T)
    ]
    left = (kernel.arity + 1) // 2
    return _khatri_rao(E[:left]), _khatri_rao(E[left:])


def _grid_inputs(arity: int, axes, V, rank: int):
    """axes and V as float arrays; raise ContractViolationError unless axes
    are arity 1-D arrays and V a rank-`rank` array of arity columns."""
    if not np.iterable(axes):
        raise ContractViolationError(f"axes must be a sequence of 1-D arrays, got {axes!r}")
    axes = tuple(check_array("axes", axis) for axis in axes)
    V = check_array("V", V)
    if (
        len(axes) != arity
        or any(axis.ndim != 1 for axis in axes)
        or V.ndim != rank
        or V.shape[-1] != arity
    ):
        raise ContractViolationError(
            f"need {arity} 1-D axes and a {rank}-D V of {arity} columns, got "
            f"axes of {[axis.ndim for axis in axes]} dimensions and V of shape {V.shape}"
        )
    return axes, V


def _khatri_rao(E: list) -> np.ndarray:
    """Row-wise C-order product of (n, m_j) arrays: (n, prod m_j)."""
    K = E[0]
    for F in E[1:]:
        K = (K[:, :, None] * F[:, None, :]).reshape(len(K), -1)
    return K


def _se_in_place(Z: np.ndarray) -> np.ndarray:
    """exp(-0.5 Z^2), overwriting Z."""
    Z *= Z
    Z *= -0.5
    return np.exp(Z, out=Z)


def _se(U: np.ndarray, V: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """Unscaled SE kernel exp(-0.5 |(u - v) / l|^2) between points U and V."""
    diff = U[:, None, :] / ls - V[None, :, :] / ls
    return np.exp(-0.5 * np.einsum("mnk,mnk->mn", diff, diff))


def _se_sum(factors, X: np.ndarray, new: int = 0) -> np.ndarray:
    """Rows new: of sum_f exp(-0.5 |z_f|^2) over X (n, d), summed in factor
    order: (n - new, n)."""
    S = None
    for f in factors:
        U = f.restrict(X)
        B = _se(U[new:], U, np.asarray(f.lengthscales))
        if S is None:
            S = B
        else:
            S += B
    return S


class GramBlocks:
    """Unscaled Gram sums S = sum_f exp(-0.5 |z_f|^2), one per group of
    factors that share a signal variance, grown row by row.

    One sum per (input width, the group's (subset, lengthscales) in factor
    order), allocated once at capacity x capacity.  A call over n input rows
    computes only the rows the sum has not seen: it adds each factor's new
    rows in factor order into S[m:n, :n], mirrors them into S[:m, m:n] and
    returns the view S[:n, :n].  The sum keeps the inputs it was built
    from: when their first rows differ from the call's, the sum is rebuilt,
    and beyond capacity the sum is computed fresh and not kept, so a stale
    sum never reaches a Gram matrix.  The signal variance stays outside,
    because the caller's may change between calls.

    A cache serves one caller's kernel structure and grows only by new rows;
    it frees no sum, so a caller whose factors change should not keep one
    (the engine makes one per run with a static structure).
    """

    def __init__(self, capacity: int):
        check_counts(ContractViolationError, 0, capacity=capacity)
        self.capacity = capacity
        self._sums: dict = {}  # key -> [S, inputs, rows built]

    def group_sum(self, factors, X: np.ndarray) -> np.ndarray:
        """The group's unscaled Gram sum over the inputs X (n, d)."""
        n, d = X.shape
        if n > self.capacity:
            return _se_sum(factors, X)
        key = (d, tuple((f.subset, f.lengthscales) for f in factors))
        entry = self._sums.get(key)
        if entry is None:
            cap = self.capacity
            entry = [np.empty((cap, cap)), np.empty((cap, d)), 0]
            self._sums[key] = entry
        S, seen, built = entry
        m = min(built, n)
        if not np.array_equal(seen[:m], X[:m]):
            m = built = 0
        if m < n:
            S[m:n, :n] = _se_sum(factors, X[:n], m)
            S[:m, m:n] = S[m:n, :m].T
            seen[m:n] = X[m:n]
            entry[2] = max(built, n)
        return S[:n, :n]


class SubsetBlocks:
    """Unscaled SE blocks B_I = exp(-0.5 |z_I|^2) over fixed inputs X (t, d),
    one per coordinate subset I, and the Gram matrices of factors of one
    signal variance summed from them.

    lengthscales holds one per coordinate of X.  gram(subsets, s2) adds the
    subsets' blocks in the given order into a fresh array and scales it once
    by s2: the float operations of the uncached gram on an AdditiveKernel of
    those factors, all of signal variance s2, so the two are equal bit for
    bit.  A block is built at its first use and kept, within
    SUBSET_BLOCK_BYTES: past it the least recently used blocks are freed,
    but never those of the call at hand, which may exceed the budget alone.
    """

    def __init__(self, X: np.ndarray, lengthscales):
        X = np.atleast_2d(check_array("X", X))
        if X.ndim != 2 or not np.isfinite(X).all():
            raise ContractViolationError("X must be a finite (t, d) array")
        ls = check_array("lengthscales", lengthscales)
        if ls.shape != X.shape[1:] or not ((0 < ls) & (ls < math.inf)).all():
            raise ContractViolationError(
                f"need {X.shape[1]} positive finite lengthscales, got {lengthscales!r}"
            )
        self.X = X
        self.lengthscales = tuple(ls.tolist())
        self._ls = ls
        self._limit = SUBSET_BLOCK_BYTES // (X.itemsize * max(len(X), 1) ** 2)
        self._blocks: OrderedDict = OrderedDict()  # subset -> block, least recent first

    def gram(self, subsets, signal_variance: float) -> np.ndarray:
        """s2 * sum_I B_I over the subsets, in their order: (t, t)."""
        subsets = check_subsets(subsets)
        s2 = check_real(ContractViolationError, "signal_variance", signal_variance)
        if not subsets or not 0 < s2 < math.inf:
            raise ContractViolationError(
                f"need >= 1 subset and a positive finite signal variance, got "
                f"{len(subsets)} subsets and {signal_variance!r}"
            )
        blocks = self._blocks
        current = dict.fromkeys(subsets)
        missing = []
        for s in current:
            if s in blocks:
                blocks.move_to_end(s)
            else:
                missing.append(s)
        # the current call's blocks are the most recent, so these are others
        for _ in range(len(blocks) + len(missing) - max(self._limit, len(current))):
            blocks.popitem(last=False)
        for s in missing:
            blocks[s] = self._block(s)
        K = blocks[subsets[0]].copy()
        for s in subsets[1:]:
            K += blocks[s]
        K *= s2
        return K

    def _block(self, subset: tuple) -> np.ndarray:
        d = self.X.shape[1]
        if not subset or subset[0] < 0 or subset[-1] >= d or any(
            b <= a for a, b in zip(subset, subset[1:])
        ):
            raise ContractViolationError(
                f"subset {subset} must be strictly increasing indices in [0, {d})"
            )
        cols = list(subset)
        U = self.X[:, cols]
        return _se(U, U, self._ls[cols])


def gram(kernel: AdditiveKernel, X: np.ndarray, blocks: GramBlocks | None = None) -> np.ndarray:
    """Gram matrix of the additive kernel over inputs X (n, d).

    Built as sum_g s2_g * S_g over the groups of factors that share a signal
    variance, in order of their first factor (see the module docstring),
    from the sums `blocks` keeps, one per group it has served; without it,
    each sum is computed fresh with the same float operations.  Every S_g is
    exactly symmetric (fl(a/l - b/l) = -fl(b/l - a/l)), and so is K.
    """
    X = np.atleast_2d(check_array("X", X))
    if X.ndim != 2:
        raise ContractViolationError(f"X must be a (t, d) array, got {X.ndim} dimensions")
    if not np.isfinite(X).all():
        raise ContractViolationError("observations must be finite")
    groups: dict = {}
    for f in kernel.factors:
        groups.setdefault(f.signal_variance, []).append(f)
    K = None
    for s2, factors in groups.items():
        if blocks is None:
            S = _se_sum(factors, X)
            S *= s2
        else:
            S = s2 * blocks.group_sum(factors, X)
        if K is None:
            K = S
        else:
            K += S
    return K


def cross_additive(kernel: AdditiveKernel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Cross-covariance of the additive kernel, (m, d) x (n, d) -> (m, n)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    K = np.zeros((X.shape[0], Y.shape[0]))
    for f in kernel.factors:
        K += cross_factor(f, f.restrict(X), f.restrict(Y))
    return K
