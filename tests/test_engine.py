"""Outer-loop behavior: determinism, baselines, regret accounting, traces."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from fgbo.bench import hartmann6, make_objective, shekel4
from fgbo.engine import (
    IterationRecord,
    RunConfig,
    information_gain,
    instantaneous_regret,
    resolve,
    run,
    run_resolved,
    write_manifest,
    write_trace_csv,
)
from fgbo.errors import (
    ConfigurationError,
    ContractViolationError,
    NumericalFailureError,
)
from fgbo.kernels import AdditiveKernel, FactorKernel

PRIOR_2D = {
    "kind": "prior_sample",
    "dims": 2,
    "subsets": [[0], [1]],
    "sample_seed": 5,
    "grid_points": 7,
}


def _queries(result) -> np.ndarray:
    return np.stack([rec.x for rec in result.records])


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(objective="shekel4", algorithm="annealing", iterations=5, seed=0)
    with pytest.raises(ConfigurationError):
        RunConfig(objective="shekel4", algorithm="random_search", iterations=0, seed=0)
    with pytest.raises(ConfigurationError):
        RunConfig(
            objective="shekel4",
            algorithm="random_search",
            iterations=5,
            seed=0,
            initial_evaluations=0,
        )
    with pytest.raises(ConfigurationError):
        RunConfig(objective="shekel4", algorithm="random_search", iterations=5, seed=None)
    with pytest.raises(ConfigurationError, match="config.seed: must be >= 0"):
        RunConfig(objective="shekel4", algorithm="random_search", iterations=5, seed=-1)


def test_random_search_rows_and_regret_accounting():
    config = RunConfig(
        objective="shekel4",
        algorithm="random_search",
        iterations=10,
        seed=3,
        initial_evaluations=5,
        noise_variance=0.0,
    )
    result = run(config)
    assert len(result.records) == 15
    assert result.lookups_per_iteration == [0] * 10
    obj = shekel4()
    g_star = 10.5364  # maximization orientation of the published minimum
    r = np.array([rec.r for rec in result.records])
    for rec in result.records:
        assert rec.r == pytest.approx(g_star - (-rec.f), abs=1e-12)
        assert rec.y == -rec.f  # noiseless run, maximization orientation
        assert rec.r >= -1e-3  # published optimum is rounded
    np.testing.assert_allclose(np.cumsum(r), [rec.R for rec in result.records])
    np.testing.assert_allclose(
        np.minimum.accumulate(r), [rec.best for rec in result.records]
    )
    assert result.final_simple_regret == result.records[-1].best
    assert result.cumulative_regret == result.records[-1].R


def test_bitwise_determinism():
    config = RunConfig(
        objective="shekel4",
        algorithm="dec_hbo",
        iterations=5,
        seed=11,
        initial_evaluations=3,
        decomposition={"mode": "random", "max_factor_size": 2, "num_extra_overlaps": 1},
        grid_caps=(3, 3),
    )
    a = run(config)
    b = run(config)
    np.testing.assert_array_equal(_queries(a), _queries(b))
    assert [rec.y for rec in a.records] == [rec.y for rec in b.records]
    assert [rec.R for rec in a.records] == [rec.R for rec in b.records]
    assert a.lookups_per_iteration == b.lookups_per_iteration
    assert a.perturbations == b.perturbations
    assert a.decomposition.subsets == b.decomposition.subsets


def test_full_factor_dec_hbo_matches_centralized():
    # one factor spanning every dimension: max-sum degenerates to the exact
    # argmax of the joint UCB table, so queries must match centralized UCB
    base = dict(
        objective="shekel4",
        iterations=6,
        seed=7,
        initial_evaluations=3,
        grid_caps=(4, 4),
    )
    dec = run(
        RunConfig(
            algorithm="dec_hbo",
            decomposition={"mode": "static", "subsets": [[0, 1, 2, 3]]},
            **base,
        )
    )
    cen = run(RunConfig(algorithm="centralized_gp_ucb", **base))
    np.testing.assert_array_equal(_queries(dec), _queries(cen))


def test_add_independent_is_singleton_dec_hbo():
    base = dict(
        objective=PRIOR_2D,
        iterations=6,
        seed=21,
        initial_evaluations=3,
        grid_caps=(4, 6),
    )
    add = run(RunConfig(algorithm="add_independent", **base))
    dec = run(
        RunConfig(
            algorithm="dec_hbo",
            decomposition={"mode": "static", "subsets": [[0], [1]]},
            **base,
        )
    )
    np.testing.assert_array_equal(_queries(add), _queries(dec))
    assert add.decomposition.subsets == ((0,), (1,))


def test_unknown_optimum_gives_nan_regret_and_override_restores_it():
    base = dict(
        objective=PRIOR_2D,
        algorithm="random_search",
        iterations=3,
        seed=2,
        initial_evaluations=2,
    )
    result = run(RunConfig(**base))
    assert all(math.isnan(rec.r) for rec in result.records)
    assert all(math.isnan(rec.R) for rec in result.records)
    assert all(math.isnan(rec.best) for rec in result.records)

    result = run(RunConfig(optimum_value=2.5, **base))
    for rec in result.records:
        assert rec.r == pytest.approx(2.5 - rec.f, abs=1e-12)  # maximization
    assert result.records[-1].R == pytest.approx(
        sum(rec.r for rec in result.records), abs=1e-12
    )


def test_instantaneous_regret_helper():
    obj = shekel4()
    assert abs(instantaneous_regret(obj, obj.known_argmin)) < 1e-3
    x = (1.0, 2.0, 3.0, 4.0)
    assert instantaneous_regret(obj, x) > 1.0
    # override shifts the reference point
    base = instantaneous_regret(obj, x)
    assert instantaneous_regret(obj, x, optimum_value=obj.known_optimum - 1.0) == (
        pytest.approx(base + 1.0, abs=1e-12)
    )
    from fgbo.bench import prior_sample_objective
    from fgbo.kernels import AdditiveKernel, FactorKernel

    sampled = prior_sample_objective(
        AdditiveKernel((FactorKernel((0,), 1.0, (0.3,)),)),
        ((0.0, 1.0),),
        5,
        np.random.default_rng(0),
    )
    with pytest.raises(ContractViolationError):
        instantaneous_regret(sampled, (0.5,))


def test_information_gain():
    kernel = AdditiveKernel((FactorKernel((0, 1), 1.3, (0.4, 0.5)),))
    X = np.array([[0.2, 0.7]])
    per, total = information_gain(kernel, X, 0.1)
    expect = 0.5 * math.log(1.0 + 1.3 / 0.1)
    assert per == (pytest.approx(expect, rel=1e-12),)
    assert total == pytest.approx(expect, rel=1e-12)
    # enormous noise: nearly nothing learned
    _, tiny = information_gain(kernel, X, 1e8)
    assert 0.0 <= tiny < 1e-4
    # adding observations never loses information
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1, size=(12, 2))
    totals = [information_gain(kernel, pts[:k], 0.05)[1] for k in range(1, 13)]
    assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))
    with pytest.raises(ContractViolationError):
        information_gain(kernel, np.empty((0, 2)), 0.1)
    with pytest.raises(ContractViolationError):
        information_gain(kernel, X, 0.0)


def test_repeat_queries_are_perturbed():
    # 2x2 grid, 8 model iterations: the first four grid queries must be
    # distinct (perturbation), after which repeats are unavoidable
    config = RunConfig(
        objective={
            "kind": "prior_sample",
            "dims": 2,
            "subsets": [[0, 1]],
            "sample_seed": 9,
            "grid_points": 7,
        },
        algorithm="dec_hbo",
        iterations=8,
        seed=13,
        initial_evaluations=2,
        decomposition={"mode": "static", "subsets": [[0, 1]]},
        grid_caps=(2, 2),
    )
    result = run(config)
    grid_queries = [tuple(rec.x) for rec in result.records[2:]]
    assert len(set(grid_queries[:4])) == 4
    assert len(set(grid_queries)) == 4  # grid exhausted, fallback repeats
    assert result.perturbations
    assert all(3 <= t <= 10 for t in result.perturbations)


def test_trace_csv_round_trip(tmp_path):
    config = RunConfig(
        objective="shekel4",
        algorithm="random_search",
        iterations=4,
        seed=5,
        initial_evaluations=2,
    )
    result = run(config)
    path = tmp_path / "trace.csv"
    write_trace_csv(result, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "t", "x0", "x1", "x2", "x3",
        "y", "f", "r", "R", "best", "wall_ms", "rounds", "converged",
    ]
    assert len(rows) == 1 + len(result.records)
    for row, rec in zip(rows[1:], result.records):
        assert int(row[0]) == rec.t
        np.testing.assert_array_equal([float(v) for v in row[1:5]], rec.x)
        assert float(row[5]) == rec.y  # 17 significant digits round-trip
        assert float(row[6]) == rec.f
        assert float(row[7]) == rec.r
        assert float(row[8]) == rec.R
        assert float(row[9]) == rec.best
        assert float(row[10]) == 0.0  # wall time opt-in
        assert int(row[11]) == rec.rounds
        assert int(row[12]) == rec.converged


def test_resolve_freezes_random_decomposition(tmp_path):
    config = RunConfig(
        objective="shekel4",
        algorithm="dec_hbo",
        iterations=4,
        seed=17,
        initial_evaluations=2,
        decomposition={"mode": "random", "max_factor_size": 2, "num_extra_overlaps": 1},
        grid_caps=(3, 3),
    )
    res = resolve(config)
    spec = res.manifest["config"]["decomposition"]
    assert spec["mode"] == "static"
    covered = sorted({j for s in spec["subsets"] for j in s})
    assert covered == [0, 1, 2, 3]
    assert "fgbo_version" in res.manifest

    # the manifest alone reproduces the run bitwise
    first = run_resolved(res)
    replay = run(RunConfig.from_dict(res.manifest["config"]))
    np.testing.assert_array_equal(_queries(first), _queries(replay))
    assert [rec.y for rec in first.records] == [rec.y for rec in replay.records]

    path = tmp_path / "manifest.json"
    write_manifest(res.manifest, path)
    import json

    assert json.loads(path.read_text())["config"]["seed"] == 17


def test_config_dict_round_trip():
    config = RunConfig(
        objective="hartmann6",
        algorithm="dec_hbo",
        iterations=7,
        seed=23,
        decomposition={"mode": "static", "subsets": [[0, 1], [2, 3], [4, 5]]},
        beta={"mode": "fixed_constant", "fixed_value": 4.0},
        grid_caps=(2, 16),
    )
    doc = config.to_canonical_dict()
    again = RunConfig.from_dict(doc)
    assert again.to_canonical_dict() == doc


def test_model_algorithms_need_positive_noise():
    with pytest.raises(ConfigurationError):
        RunConfig(
            objective="shekel4",
            algorithm="centralized_gp_ucb",
            iterations=2,
            seed=0,
            noise_variance=0.0,
        )


def test_centralized_joint_grid_guard():
    config = RunConfig(
        objective="michalewicz10",
        algorithm="centralized_gp_ucb",
        iterations=1,
        seed=0,
        initial_evaluations=2,
        grid_caps=(8, 8),  # 8^10 joint points is refused
    )
    with pytest.raises(ConfigurationError):
        run(config)


def test_centralized_lookups_are_the_joint_grid_size():
    tau = 5
    config = RunConfig(
        objective="shekel4",
        algorithm="centralized_gp_ucb",
        iterations=3,
        seed=2,
        initial_evaluations=2,
        grid_caps=(tau, tau),
        beta={"mode": "fixed_constant", "fixed_value": 4.0},
    )
    assert run(config).lookups_per_iteration == [tau**4] * 3


def test_dec_hbo_requires_decomposition():
    with pytest.raises(ConfigurationError):
        RunConfig(objective="shekel4", algorithm="dec_hbo", iterations=2, seed=0)


def _hartmann6_bad_from_call(call: int, value: float):
    """Hartmann-6 whose batch function returns value from its call-th call on."""
    obj = hartmann6()
    calls = [0]

    def batch_fn(X):
        calls[0] += 1
        out = obj.batch_fn(X)
        return np.full_like(out, value) if calls[0] >= call else out

    return replace(obj, batch_fn=batch_fn)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("algorithm", ["dec_hbo", "random_search"])
def test_non_finite_objective_value_fails_closed(algorithm, value):
    # the 7th call is the 4th observation's true value: without the check a
    # NaN reaches the Cholesky fit as a raw ValueError, or the trace silently
    decomposition = {"mode": "static", "subsets": [[0, 1, 2], [3, 4, 5]]}
    config = RunConfig(
        objective=_hartmann6_bad_from_call(7, value),
        algorithm=algorithm,
        iterations=3,
        seed=0,
        initial_evaluations=5,
        decomposition=decomposition if algorithm == "dec_hbo" else None,
        grid_caps=(2, 4),
    )
    with pytest.raises(NumericalFailureError, match="evaluation 4: .*not finite"):
        run(config)
