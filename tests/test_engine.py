"""Outer-loop behavior: determinism, baselines, regret accounting, traces."""

import csv
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from fgbo import engine
from fgbo.acquisition import BetaSchedule, GridSpec, beta, grid_for_iteration
from fgbo.bench import hartmann6, make_objective, shekel4
from fgbo.engine import (
    IterationRecord,
    RunConfig,
    RunResult,
    _nearest_unvisited,
    resolve,
    run,
    run_resolved,
    write_manifest,
    write_trace_csv,
)
from fgbo.errors import ConfigurationError, NumericalFailureError

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


def test_repeat_queries_are_perturbed():
    # 2x2 grid, 8 model iterations: the first four grid queries must be
    # distinct, after which repeats are unavoidable
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
    # max-sum picked the four points in turn, and the repeats at t = 7..10
    # are allowed unmoved, so the rule moved no query
    assert result.perturbations == []


def test_perturbations_list_only_the_queries_the_rule_moved():
    # a 2-point grid is exhausted after t = 3: the repeats at t = 4, 5 and 6
    # are allowed unmoved, and only t = 3's selection was moved
    config = RunConfig(
        objective={"kind": "prior_sample", "dims": 1, "subsets": [[0]], "sample_seed": 0},
        algorithm="add_independent",
        iterations=5,
        seed=3,
        initial_evaluations=1,
        grid_caps=(2, 2),
    )
    result = run(config)
    assert [rec.x[0] for rec in result.records[1:]] == [1.0, 0.0, 1.0, 1.0, 1.0]
    assert result.perturbations == [3]


def test_records_carry_every_per_iteration_output():
    config = RunConfig(
        objective="shekel4",
        algorithm="dec_hbo",
        iterations=12,
        seed=13,
        initial_evaluations=3,
        decomposition={"mode": "static", "subsets": [[0, 1], [2, 3]]},
        grid_caps=(2, 2),
    )
    result = run(config)
    assert [rec.t for rec in result.records] == list(range(1, 16))
    for rec in result.records[:3]:  # the initial evaluations solve nothing
        assert (rec.lookups, rec.perturbed, rec.rounds, rec.converged, rec.wall_ms) == (
            0, False, 0, 1, 0.0,
        )
    assert all(rec.lookups > 0 and rec.rounds > 0 for rec in result.records[3:])
    assert result.lookups_per_iteration == [rec.lookups for rec in result.records[3:]]
    assert result.perturbations == [rec.t for rec in result.records if rec.perturbed]
    assert result.perturbations  # 16 grid points, 15 evaluations: the rule fires
    assert [f.name for f in fields(RunResult)] == ["records", "manifest", "decomposition"]


def test_records_carry_the_schedule_and_the_fit(monkeypatch):
    config = RunConfig(
        objective="shekel4",
        algorithm="dec_hbo",
        iterations=6,
        seed=2,
        initial_evaluations=3,
        decomposition={"mode": "static", "subsets": [[0, 1], [1, 2], [3]]},
        beta={"mode": "discrete_domain", "delta": 0.1},
        grid_caps=(2, 6),
    )
    jitters = []
    real = engine.fit

    def recording(*args):
        posterior = real(*args)
        jitters.append(posterior.jitter)
        return posterior

    monkeypatch.setattr(engine, "fit", recording)
    records = run(config).records
    schedule = BetaSchedule(**config.beta, num_factors=3, dims=4)
    for rec in records[:3]:
        assert (rec.beta, rec.tau, rec.num_factors, rec.jitter) == (0.0, 0, 0, 0.0)
    for rec in records[3:]:
        grid = grid_for_iteration(schedule, rec.t, config.grid_caps)
        assert rec.tau == grid.per_dim_points
        assert rec.beta == beta(schedule, rec.t, grid.joint_size)
        assert rec.num_factors == 3
    assert len({rec.beta for rec in records[3:]}) == 6  # beta grows with t
    assert [rec.jitter for rec in records[3:]] == jitters
    baseline = run(replace(config, algorithm="random_search", decomposition=None))
    assert all(
        (rec.beta, rec.tau, rec.num_factors, rec.jitter) == (0.0, 0, 0, 0.0)
        for rec in baseline.records
    )


def _recorded(monkeypatch, name):
    """Replace engine.<name> with a wrapper that appends each result."""
    real, results = getattr(engine, name), []
    monkeypatch.setattr(engine, name, lambda *a, **k: results.append(real(*a, **k)) or results[-1])
    return results


MF2_SHEKEL = RunConfig(
    objective="shekel4",
    algorithm="dec_hbo",
    iterations=8,
    seed=4,
    initial_evaluations=3,
    decomposition={"mode": "static", "subsets": [[0, 1], [1, 2], [2, 3]]},
    grid_caps=(2, 5),
)


def test_records_keep_table_entries_and_solver_lookups_apart(monkeypatch):
    graphs, solves = _recorded(monkeypatch, "tabulate"), _recorded(monkeypatch, "solve")
    records = run(MF2_SHEKEL).records
    for rec in records[:3]:
        assert (rec.table_entries, rec.message_lookups, rec.decode_lookups) == (0, 0, 0)
        assert rec.computed_lookups == 0
    for rec, g, sol in zip(records[3:], graphs, solves, strict=True):
        diag = sol.diagnostics
        assert rec.table_entries == sum(tab.size for tab in g.tables) > 0
        assert (rec.message_lookups, rec.decode_lookups, rec.computed_lookups) == (
            diag.message_lookups, diag.decode_lookups, diag.computed_lookups,
        )
        assert rec.lookups == rec.table_entries + diag.message_lookups + diag.decode_lookups
        # the work done is counted apart and never exceeds the cost model
        assert 0 < rec.computed_lookups <= diag.message_lookups + diag.decode_lookups
    # centralized GP-UCB scans its one table and solves nothing
    central = run(replace(MF2_SHEKEL, algorithm="centralized_gp_ucb", decomposition=None))
    for rec in central.records[3:]:
        assert rec.table_entries == rec.tau**4 == rec.lookups
        assert (rec.message_lookups, rec.decode_lookups, rec.computed_lookups) == (0, 0, 0)


def test_records_carry_the_final_delta_and_best_value(monkeypatch):
    solves = _recorded(monkeypatch, "solve")
    records = run(MF2_SHEKEL).records
    assert all(math.isnan(rec.final_delta) and math.isnan(rec.best_value) for rec in records[:3])
    tol = MF2_SHEKEL.maxsum["tol"]
    for rec, sol in zip(records[3:], solves, strict=True):
        diag = sol.diagnostics
        assert rec.final_delta == diag.trace[-1][1]
        assert rec.best_value == diag.best_value == max(value for _, _, value in diag.trace)
        assert rec.converged == (rec.final_delta < tol)


def test_records_carry_the_distance_the_repeat_rule_moved_the_query(monkeypatch):
    moves = []
    real = engine._nearest_unvisited

    def recording(grid, start, visited):
        moved = real(grid, start, visited)
        moves.append(sum(abs(a - b) for a, b in zip(start, moved)))
        return moved

    monkeypatch.setattr(engine, "_nearest_unvisited", recording)
    records = run(MF2_SHEKEL).records
    assert [rec.move_distance for rec in records if rec.move_distance] == [m for m in moves if m]
    assert any(moves)  # the rule moved some query
    assert all(rec.perturbed == (rec.move_distance > 0) for rec in records)
    # the exhausted 2-point grid: t = 3 moved by one index, the repeats stay
    config = RunConfig(
        objective={"kind": "prior_sample", "dims": 1, "subsets": [[0]], "sample_seed": 0},
        algorithm="add_independent",
        iterations=5,
        seed=3,
        initial_evaluations=1,
        grid_caps=(2, 2),
    )
    assert [rec.move_distance for rec in run(config).records] == [0, 0, 1, 0, 0, 0]


def test_engine_calls_its_stages_through_module_globals(monkeypatch):
    # perfbench wraps these names on the engine module to trace a run and
    # stamp its iterations; a stage bound any other way would go unseen
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    names = ("evaluate", "noisy_evaluate", "fit", "tabulate", "solve", "sample_posterior")
    for name in names:
        monkeypatch.setattr(engine, name, counted(name, getattr(engine, name)))
    config = RunConfig(
        objective="shekel4",
        algorithm="dec_hbo",
        iterations=4,
        seed=1,
        initial_evaluations=2,
        decomposition={
            "mode": "mcmc",
            "max_factor_size": 2,
            "chain_length": 4,
            "burn_in": 2,
            "thinning": 1,
            "num_samples": 2,
            "interval": 2,
        },
        grid_caps=(2, 3),
    )
    run(config)
    # refreshes at t = 3 and 5, the first of each interval of 2 iterations
    assert counts == {
        "evaluate": 6,
        "noisy_evaluate": 6,
        "fit": 4,
        "tabulate": 4,
        "solve": 4,
        "sample_posterior": 2,
    }


def test_nearest_unvisited_order():
    # the first unvisited point by (L1 index distance, index tuple), and the
    # start itself once every point has been visited
    rng = np.random.default_rng(21)
    for d in range(1, 5):
        for tau in range(2, 7):
            grid = GridSpec(per_dim_points=tau, num_dims=d)
            points = list(np.ndindex(*(tau,) * d))
            for _ in range(6):
                start = points[rng.integers(len(points))]
                share = rng.uniform(0.2, 1.0)
                chosen = {p for p in points if p == start or rng.uniform() < share}
                visited = {tuple(grid.point_at(p)) for p in chosen}
                unvisited = [p for p in points if p not in chosen]
                want = min(
                    unvisited,
                    key=lambda p: (sum(abs(a - b) for a, b in zip(p, start)), p),
                    default=start,
                )
                assert _nearest_unvisited(grid, start, visited) == want
                # the engine's visited set holds np.float64 coordinates; plain
                # floats of the same values, and off-grid points, change nothing
                as_floats = {tuple(float(v) for v in u) for u in visited}
                off_grid = visited | {(0.5 / tau,) * d, (math.pi,) * d}
                assert _nearest_unvisited(grid, start, as_floats) == want
                assert _nearest_unvisited(grid, start, off_grid) == want
            every = {tuple(grid.point_at(p)) for p in points}
            assert _nearest_unvisited(grid, start, every) == start


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


def test_measure_wall_time_changes_only_wall_ms(tmp_path):
    base = dict(
        objective="shekel4",
        algorithm="dec_hbo",
        iterations=4,
        seed=2,
        initial_evaluations=3,
        decomposition={"mode": "static", "subsets": [[0, 1], [2, 3]]},
        grid_caps=(2, 6),
    )
    tables = {}
    for timed in (False, True):
        path = tmp_path / f"trace_{timed}.csv"
        write_trace_csv(run(RunConfig(**base, measure_wall_time=timed)), path)
        with open(path) as fh:
            tables[timed] = list(csv.DictReader(fh))
    wall = [float(row.pop("wall_ms")) for row in tables[True]]
    assert all(float(row.pop("wall_ms")) == 0.0 for row in tables[False])
    assert tables[True] == tables[False]
    assert len(wall) == 7 and wall[:3] == [0.0] * 3  # the initial design is not timed
    assert all(ms > 0.0 for ms in wall[3:])


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
