"""Every Python entry point fails closed: from a valid call, replacing any one
value-typed argument (a number, index, sequence or array) by a malformed
value either still returns or raises an FgboError subclass, never a raw
Python error.  Object-typed arguments (a posterior, grid, graph or kernel)
are duck-typed by the package and stay at their valid values."""

import numpy as np
import pytest

from fgbo.acquisition import BetaSchedule, GridSpec, beta, grid_for_iteration, tabulate
from fgbo.bench import evaluate, evaluate_batch, noisy_evaluate, shekel4
from fgbo.decomposition import (
    Decomposition,
    McmcConfig,
    SharedHypers,
    full_decomposition,
    induced_kernel,
    log_evidence,
    merge_for_acquisition,
    move_deltas,
    random_covering_decomposition,
    sample_posterior,
    singleton_decomposition,
)
from fgbo.errors import ContractViolationError, FgboError
from fgbo.gp import ObservationSet, fit, log_marginal_likelihood
from fgbo.kernels import (
    AdditiveKernel,
    FactorKernel,
    GramBlocks,
    SubsetBlocks,
    cross_factor,
    cross_factors,
    gram,
    split_cross_factor,
)
from fgbo.maxsum import FactorGraph, solve

MALFORMED = (None, "a", 1.5, True, 7, (), ("a",), [["a"]], object())
MALFORMED_IDS = ("none", "str", "float", "bool", "int", "empty", "str_seq", "str_rows", "object")

PAIR = FactorKernel((0, 1), 1.0, (0.3, 0.4))
KERNEL = AdditiveKernel((PAIR, FactorKernel((2,), 0.5, (0.2,))))
OBS = ObservationSet(np.linspace(0.1, 0.9, 12).reshape(4, 3), [0.1, -0.2, 0.3, 0.0], 0.1)
POSTERIOR = fit(KERNEL, OBS)
GRID = GridSpec(per_dim_points=3, num_dims=3)
GRAPH = FactorGraph(2, 3, [(0, 1), (1,)], [np.arange(9.0).reshape(3, 3), np.zeros(3)])
MCMC = McmcConfig(max_factor_size=2, chain_length=3)
DECOMPOSITION = Decomposition(d=3, subsets=((0, 1), (2,)), max_factor_size=2)
AXES = (np.array([0.0, 0.5]), np.array([0.0, 0.5, 1.0]))
DISCRETE = BetaSchedule(mode="discrete_domain", delta=0.1, num_factors=2, dims=3)
SHEKEL = shekel4()
LENGTHSCALES = (0.2, 0.3, 0.4)
BLOCKS = SubsetBlocks(OBS.X, LENGTHSCALES)


def _hypers_kernel(subsets, total_signal_variance, lengthscales):
    return induced_kernel(subsets, SharedHypers(total_signal_variance, lengthscales))


# name -> (call, its valid value-typed arguments)
ENTRY_POINTS = {
    "McmcConfig": (
        McmcConfig,
        dict(max_factor_size=2, chain_length=3, burn_in=1, thinning=1, num_samples=2,
             size_penalty=0.1),
    ),
    "BetaSchedule": (
        BetaSchedule,
        dict(mode="fixed_constant", delta=0.1, num_factors=2, dims=3, lipschitz_a=1.0,
             lipschitz_b=1.0, fixed_value=2.0),
    ),
    "Decomposition": (Decomposition, dict(d=3, subsets=((0, 1), (2,)), max_factor_size=2)),
    "singleton_decomposition": (singleton_decomposition, dict(d=3)),
    "full_decomposition": (full_decomposition, dict(d=3)),
    "random_covering_decomposition": (
        random_covering_decomposition,
        dict(d=3, max_factor_size=2, rng=np.random.default_rng(0), num_extra_overlaps=1),
    ),
    "beta": (lambda **kw: beta(DISCRETE, **kw), dict(t=2, domain_size=27)),
    "grid_for_iteration": (lambda **kw: grid_for_iteration(DISCRETE, **kw), dict(t=2, caps=(2, 8))),
    "GridSpec": (GridSpec, dict(per_dim_points=3, num_dims=2)),
    "GridSpec.point_at": (GRID.point_at, dict(indices=(0, 2, 1))),
    "FactorGraph": (
        FactorGraph,
        dict(num_variables=2, num_values=2, subsets=((0, 1), (1,)),
             tables=(np.zeros((2, 2)), [0.0, 1.0])),
    ),
    "FactorKernel": (
        FactorKernel, dict(subset=(0, 2), signal_variance=1.0, lengthscales=(0.2, 0.3)),
    ),
    "ObservationSet": (
        ObservationSet, dict(X=[[0.1, 0.2], [0.3, 0.4]], y=[0.5, 0.6], noise_variance=0.1),
    ),
    "GramBlocks": (GramBlocks, dict(capacity=4)),
    "solve": (lambda **kw: solve(GRAPH, **kw), dict(rounds=3, damping=0.1, tol=1e-6)),
    "gram": (lambda X: gram(KERNEL, X), dict(X=[[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])),
    "tabulate": (
        lambda **kw: tabulate(POSTERIOR, GRID, **kw), dict(beta_value=2.0, weights=(1.0, 0.5)),
    ),
    "factor_mean_var_batch": (
        POSTERIOR.factor_mean_var_batch, dict(factor_index=0, U=[[0.1, 0.2]]),
    ),
    "factor_mean_var_batch_axes": (
        POSTERIOR.factor_mean_var_batch, dict(factor_index=0, U=AXES),
    ),
    "sample_posterior": (lambda rng: sample_posterior(OBS, MCMC, rng), dict(rng=3)),
    "cross_factor": (
        lambda U, V: cross_factor(PAIR, U, V), dict(U=[[0.1, 0.2]], V=[[0.3, 0.4]]),
    ),
    "cross_factor_axes": (lambda U, V: cross_factor(PAIR, U, V), dict(U=AXES, V=[[0.3, 0.4]])),
    "cross_factors": (
        lambda axes, V: cross_factors((PAIR, PAIR), axes, V),
        dict(axes=AXES, V=np.zeros((2, 3, 2))),
    ),
    "split_cross_factor": (
        lambda axes, V: split_cross_factor(PAIR, axes, V), dict(axes=AXES, V=[[0.3, 0.4]]),
    ),
    "induced_kernel": (
        _hypers_kernel,
        dict(subsets=((0, 1), (2,)), total_signal_variance=1.0, lengthscales=(0.2, 0.3, 0.4)),
    ),
    "induced_kernel_scalar_lengthscale": (
        _hypers_kernel,
        dict(subsets=((0, 1), (2,)), total_signal_variance=1.0, lengthscales=0.2),
    ),
    "merge_for_acquisition": (
        merge_for_acquisition, dict(samples=(DECOMPOSITION, DECOMPOSITION)),
    ),
    "evaluate": (lambda x: evaluate(SHEKEL, x), dict(x=[4.0, 4.0, 4.0, 4.0])),
    "evaluate_batch": (lambda X: evaluate_batch(SHEKEL, X), dict(X=[[4.0, 4.0, 4.0, 4.0]])),
    "noisy_evaluate": (
        lambda **kw: noisy_evaluate(SHEKEL, **kw),
        dict(x=[4.0, 4.0, 4.0, 4.0], noise_variance=0.1, rng=np.random.default_rng(0)),
    ),
    "move_deltas": (move_deltas, dict(state=((0, 1), (2,)), d=3, max_size=2)),
    "SubsetBlocks": (SubsetBlocks, dict(X=[[0.1, 0.2], [0.3, 0.4]], lengthscales=(0.2, 0.3))),
    "SubsetBlocks.gram": (BLOCKS.gram, dict(subsets=((0, 1), (2,)), signal_variance=0.5)),
    "log_evidence_cached": (
        lambda subsets: log_evidence(subsets, OBS, SharedHypers(1.0, LENGTHSCALES), BLOCKS),
        dict(subsets=((0, 1), (2,))),
    ),
    "log_marginal_likelihood_gram": (
        lambda K: log_marginal_likelihood(K, OBS), dict(K=np.eye(4)),
    ),
}


def _cases():
    for name, (call, valid) in ENTRY_POINTS.items():
        for arg in valid:
            yield pytest.param(name, arg, id=f"{name}-{arg}")


@pytest.mark.parametrize("name, arg", list(_cases()))
def test_a_malformed_argument_fails_closed(name, arg):
    call, valid = ENTRY_POINTS[name]
    call(**valid)  # the baseline is a valid call
    leaks = []
    for value, value_id in zip(MALFORMED, MALFORMED_IDS):
        try:
            call(**dict(valid, **{arg: value}))
        except FgboError:
            pass
        except Exception as exc:  # noqa: BLE001 - any raw error is the finding
            leaks.append(f"{value_id}: {type(exc).__name__}: {exc}")
    assert not leaks, leaks


HYPERS = SharedHypers(total_signal_variance=1.0, lengthscales=0.2)
TWO_TABLES = [np.zeros(2), np.zeros(2)]


# an index sequence holds integers: a fraction is not truncated and a bool
# is not read as 0 or 1, and a string or a scalar in its place is refused
# with the package's error
@pytest.mark.parametrize(
    "call",
    [
        lambda: FactorGraph(2, 2, [(0.7,), (1,)], TWO_TABLES),
        lambda: FactorGraph(2, 2, [(True,), (0,)], TWO_TABLES),
        lambda: FactorGraph(2, 2, [("a",), (1,)], TWO_TABLES),
        lambda: FactorGraph(2, 2, [0, (1,)], TWO_TABLES),
        lambda: Decomposition(3, [[0.5, 1], [2]], 2),
        lambda: Decomposition(3, [[True, 0], [2]], 2),
        lambda: Decomposition(3, [["a", 1], [2]], 2),
        lambda: Decomposition(3, [0, [1, 2]], 2),
        lambda: Decomposition(3, ((True, 0), (2,)), 2),
        lambda: move_deltas(((0.5, 1), (2,)), 3, 2),
        lambda: move_deltas(((0, 1), "2"), 3, 2),
        lambda: FactorKernel(0, 1.0, (0.2,)),
        lambda: FactorKernel(("a",), 1.0, (0.2,)),
        lambda: induced_kernel(3, HYPERS),
        lambda: induced_kernel([0, (1,)], HYPERS),
        lambda: induced_kernel([("a",)], HYPERS),
        lambda: GridSpec(4, 2).point_at(3),
        lambda: GridSpec(4, 2).point_at(("a", 0)),
    ],
    ids=[
        "graph_fraction", "graph_bool", "graph_str", "graph_scalar_subset",
        "decomposition_fraction", "decomposition_bool", "decomposition_str",
        "decomposition_scalar_subset", "decomposition_bool_tuples", "move_deltas_fraction",
        "move_deltas_str", "kernel_scalar_subset", "kernel_str",
        "induced_scalar_subsets", "induced_scalar_subset", "induced_str",
        "point_at_scalar", "point_at_str",
    ],
)
def test_python_api_refuses_index_sequences_that_are_not_integers(call):
    with pytest.raises(ContractViolationError, match="integer|index sequences"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: ObservationSet([["a"]], [0.0], 0.1),
        lambda: ObservationSet([[0.0]], ["a"], 0.1),
        lambda: POSTERIOR.factor_mean_var_batch(0, [["a", "b"]]),
        lambda: POSTERIOR.factor_mean_var_batch(0, (["a"], [0.0])),
        lambda: gram(KERNEL, [["a", "b", "c"]]),
        lambda: cross_factor(PAIR, [["a", "b"]], [[0.0, 0.0]]),
        lambda: cross_factor(PAIR, [[0.0, 0.0]], [["a", "b"]]),
        lambda: FactorKernel((0,), 1.0, 0.2),
        lambda: induced_kernel([(0, 2)], SharedHypers(1.0, (0.2, 0.3))),
        lambda: induced_kernel([(0,)], SharedHypers(None)),
        lambda: induced_kernel([(0,)], SharedHypers("1.0")),
        lambda: induced_kernel((), HYPERS),
        lambda: merge_for_acquisition([((0,),)]),
        lambda: merge_for_acquisition("a"),
    ],
    ids=[
        "observations_str_x", "observations_str_y", "batch_str_points", "batch_str_axis",
        "gram_str", "cross_str_u", "cross_str_v", "kernel_scalar_lengthscale",
        "hypers_short_lengthscales", "hypers_none_variance", "hypers_str_variance",
        "induced_no_subsets", "merge_tuples", "merge_str",
    ],
)
def test_python_api_refuses_what_raised_raw_errors(call):
    with pytest.raises(ContractViolationError):
        call()
