"""CLI surface: artifacts, exit codes, env precedence, selftest battery."""

import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fgbo.bench as bench
import fgbo.cli as cli
import fgbo.config as config_mod
from fgbo.cli import benchmark_run_config, main
from fgbo.engine import RunConfig, run
from fgbo.errors import ConfigurationError, ContractViolationError, NumericalFailureError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RANDOM_CFG = {
    "objective": "shekel4",
    "algorithm": "random_search",
    "iterations": 3,
    "seed": 1,
    "initial_evaluations": 2,
}
DEC_CFG = {
    "objective": "shekel4",
    "algorithm": "dec_hbo",
    "iterations": 3,
    "seed": 1,
    "initial_evaluations": 2,
    "decomposition": {"mode": "random", "max_factor_size": 2, "num_extra_overlaps": 1},
    "grid_caps": [3, 3],
}


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_writes_manifest_and_trace(tmp_path, capsys):
    cfg = _write(tmp_path, RANDOM_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 1
    assert manifest["config"]["objective"] == "shekel4"
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 + 3  # header + initial + iterations
    assert "best_simple_regret" in capsys.readouterr().out


def test_run_seed_override(tmp_path):
    cfg = _write(tmp_path, RANDOM_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "9", "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9
    # the override is validated like the file
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "neg"), "--seed", "-1"]) == 3
    assert not (tmp_path / "neg").exists()


def test_run_validates_its_config_once(tmp_path, monkeypatch):
    # one RunConfig.from_dict: validate_config on the file's document, then
    # once more in RunConfig's construction; nothing after that
    calls = []
    validate = config_mod.validate_config

    def counting(raw):
        calls.append(raw)
        return validate(raw)

    monkeypatch.setattr(config_mod, "validate_config", counting)
    cfg = str(CONFIGS / "shekel4_mf2.json")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert len(calls) == 2


def test_prior_sample_beyond_four_dimensions_runs(tmp_path):
    # a chain of pairs over d = 5 at 7 points per axis: 49 sample points per
    # factor, though the joint grid (16,807 points) exceeds the sample cap
    subsets = [[0, 1], [1, 2], [2, 3], [3, 4]]
    doc = {
        "objective": {
            "kind": "prior_sample",
            "dims": 5,
            "subsets": subsets,
            "grid_points": 7,
            "sample_seed": 3,
        },
        "algorithm": "dec_hbo",
        "iterations": 3,
        "seed": 0,
        "initial_evaluations": 2,
        "decomposition": {"mode": "static", "subsets": subsets},
        "grid_caps": [4, 4],
    }
    out = tmp_path / "o"
    assert main(["run", "--config", _write(tmp_path, doc), "--out", str(out), "--quiet"]) == 0
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 2 + 3


def test_manifest_replay_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, DEC_CFG)
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["run", "--config", cfg, "--out", str(first), "--quiet"]) == 0
    assert (
        main(
            [
                "run",
                "--config",
                str(first / "manifest.json"),
                "--out",
                str(second),
                "--quiet",
            ]
        )
        == 0
    )
    assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()
    # the replayed manifest is already static, so it re-serializes unchanged
    assert (first / "manifest.json").read_bytes() == (
        second / "manifest.json"
    ).read_bytes()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--quiet"]) == 2
    assert "file not found" in capsys.readouterr().err


def test_schema_violations_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["run", "--config", str(bad), "--quiet"]) == 3
    unknown = _write(tmp_path, dict(RANDOM_CFG, typo=1), "unknown.json")
    assert main(["run", "--config", unknown, "--quiet"]) == 3
    assert "invalid configuration" in capsys.readouterr().err


def test_directory_as_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path), "--quiet"]) == 2
    assert "file not found" in capsys.readouterr().err


def test_non_utf8_config_exits_3(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"objective": "shekel4\xe9"}')
    assert main(["run", "--config", str(bad), "--quiet"]) == 3
    assert "not valid JSON" in capsys.readouterr().err


_MCMC_NO_CHAIN = {"mode": "mcmc", "max_factor_size": 2}
# 4 burn-in steps + 2 gaps of 3 steps between 3 samples need a 10-step chain
_MCMC_SHORT_CHAIN = dict(
    _MCMC_NO_CHAIN, chain_length=5, burn_in=4, thinning=3, num_samples=3
)

# Each entry is a config the CLI refuses with exit 3; the Python API must
# refuse it too, with one of the package's own exceptions.
BAD_CONFIGS = {
    "beta_key_typo": dict(
        RANDOM_CFG, beta={"mode": "fixed_constant", "fixed_value": 4.0, "detla": 0.3}
    ),
    "random_search_with_decomposition": dict(
        RANDOM_CFG, decomposition={"mode": "random", "max_factor_size": 2}
    ),
    "unknown_beta_mode": dict(RANDOM_CFG, beta={"mode": "bogus"}),
    "iterations_as_string": dict(RANDOM_CFG, iterations="3"),
    "mcmc_without_chain_length": dict(DEC_CFG, decomposition=_MCMC_NO_CHAIN),
    "mcmc_chain_too_short": dict(DEC_CFG, decomposition=_MCMC_SHORT_CHAIN),
    "negative_seed": dict(RANDOM_CFG, seed=-1),
    "negative_sample_seed": dict(
        RANDOM_CFG,
        objective={"kind": "prior_sample", "dims": 2, "subsets": [[0, 1]], "sample_seed": -1},
    ),
    "fractional_seed": dict(RANDOM_CFG, seed=1.5),
    "model_without_noise": dict(DEC_CFG, noise_variance=0.0),
    "dec_hbo_without_decomposition": dict(DEC_CFG, decomposition=None),
    "inverted_grid_caps": dict(RANDOM_CFG, grid_caps=[8, 4]),
    # JSON reads NaN and Infinity as floats; none of them is a valid number
    "nan_noise_variance": dict(DEC_CFG, noise_variance=math.nan),
    "nan_delta": dict(DEC_CFG, beta={"delta": math.nan}),
    "infinite_fixed_value": dict(
        DEC_CFG, beta={"mode": "fixed_constant", "fixed_value": math.inf}
    ),
    "infinite_lipschitz_b": dict(
        DEC_CFG, beta={"mode": "continuous_lipschitz", "lipschitz_b": math.inf}
    ),
    "infinite_lengthscale": dict(DEC_CFG, gp={"lengthscale": math.inf}),
    "nan_optimum_value": dict(RANDOM_CFG, optimum_value=math.nan),
    "integer_beyond_float_range": dict(DEC_CFG, noise_variance=10**400),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_python_api_and_cli_refuse_the_same_configs(name, tmp_path):
    doc = BAD_CONFIGS[name]
    with pytest.raises((ConfigurationError, ContractViolationError)):
        run(RunConfig(**doc))
    with pytest.raises((ConfigurationError, ContractViolationError)):
        RunConfig.from_dict(doc)
    cfg = _write(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
    assert not (tmp_path / "o").exists()  # refused before anything was written


def _prior_sample_cfg(dims, subsets, grid_points=7):
    objective = {
        "kind": "prior_sample",
        "dims": dims,
        "subsets": subsets,
        "grid_points": grid_points,
        "sample_seed": 3,
    }
    return dict(RANDOM_CFG, objective=objective)


def _static_cfg(objective, subsets):
    return dict(DEC_CFG, objective=objective, decomposition={"mode": "static", "subsets": subsets})


# Configs that pass validation and are refused by engine.resolve.
RESOLVE_REFUSALS = {
    "sample_factor_too_large": _prior_sample_cfg(2, [[0, 1]], grid_points=64),
    "sample_subset_out_of_range": _prior_sample_cfg(2, [[0, 2]]),
    "sample_subset_repeats_a_dim": _prior_sample_cfg(2, [[1, 1]]),
    "static_subsets_leave_dims_uncovered": _static_cfg("hartmann6", [[0, 1], [2, 3]]),
    "static_subset_out_of_range": _static_cfg("shekel4", [[4]]),
    # 64 points per dimension at the last iteration: a 64^4 joint grid
    "centralized_joint_grid_too_large": dict(
        RANDOM_CFG, algorithm="centralized_gp_ucb", grid_caps=[2, 64]
    ),
    # log(2|U|a/delta) = log(2 * 6 * 0.001 / 0.1) < 0
    "lipschitz_a_too_small": dict(
        RANDOM_CFG, objective="hartmann6", algorithm="add_independent",
        beta={"lipschitz_a": 0.001},
    ),
    # mcmc over 6 inputs, 3 at a time, may sample 2 factors: log(0.8) < 0
    "lipschitz_a_too_small_for_mcmc": dict(
        DEC_CFG, objective="hartmann6", beta={"lipschitz_a": 0.02},
        decomposition={"mode": "mcmc", "max_factor_size": 3, "chain_length": 0},
    ),
    # the discretization term overflows to inf, and so would beta
    "lipschitz_b_overflows_beta": dict(
        RANDOM_CFG, algorithm="add_independent", grid_caps=[2, 8],
        beta={"mode": "continuous_lipschitz", "lipschitz_b": 1e308},
    ),
}


@pytest.mark.parametrize("name", sorted(RESOLVE_REFUSALS))
def test_resolve_refusal_leaves_no_output_directory(name, tmp_path):
    cfg = _write(tmp_path, RESOLVE_REFUSALS[name])
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
    assert not (tmp_path / "o").exists()


def test_from_dict_refuses_unknown_top_level_keys():
    with pytest.raises(ConfigurationError, match="unknown key 'typo'"):
        RunConfig.from_dict(dict(RANDOM_CFG, typo=1))


def test_numerical_failure_exits_4(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, RANDOM_CFG)

    def boom(resolved):
        raise NumericalFailureError("synthetic chol failure", jitter=1.0)

    monkeypatch.setattr(cli.engine, "run_resolved", boom)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 4
    assert "numerical failure" in capsys.readouterr().err


def _nan_shekel4(name):
    return replace(bench.shekel4(), batch_fn=lambda X: np.full(len(X), np.nan))


def test_non_finite_objective_exits_4(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, RANDOM_CFG)
    monkeypatch.setattr(cli.engine, "make_objective", _nan_shekel4)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "not finite" in err


def test_out_dir_env_and_flag_precedence(tmp_path, monkeypatch):
    cfg = _write(tmp_path, RANDOM_CFG)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(env_dir))
    assert main(["run", "--config", cfg, "--quiet"]) == 0
    assert (env_dir / "trace.csv").exists()

    flag_dir = tmp_path / "from_flag"
    assert main(["run", "--config", cfg, "--out", str(flag_dir), "--quiet"]) == 0
    assert (flag_dir / "trace.csv").exists()
    assert not (env_dir / "from_flag").exists()


def test_sweep_writes_summary_and_per_seed_runs(tmp_path, capsys):
    cfg = _write(tmp_path, RANDOM_CFG)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--seeds", "0,1,2"]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "seed,final_simple_regret,cumulative_regret"
    assert len(lines) == 4
    assert [int(l.split(",")[0]) for l in lines[1:]] == [0, 1, 2]
    for seed in (0, 1, 2):
        sub = out / f"seed{seed}"
        assert (sub / "trace.csv").exists()
        assert json.loads((sub / "manifest.json").read_text())["config"]["seed"] == seed
    assert "median final simple regret" in capsys.readouterr().out
    # summary floats round-trip at 17 significant digits
    best = float(lines[1].split(",")[1])
    assert np.isfinite(best)


def test_sweep_runs_share_no_state(tmp_path):
    # one process running both seeds must write what two processes write
    cfg = _write(tmp_path, dict(DEC_CFG, iterations=6))
    traces = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        argv = ["sweep", "--config", cfg, "--out", str(out), "--seeds", "0,1", "--jobs", jobs]
        assert main(argv + ["--quiet"]) == 0
        traces[jobs] = [(out / f"seed{s}" / "trace.csv").read_bytes() for s in (0, 1)]
    assert traces["1"] == traces["2"]
    assert traces["1"][0] != traces["1"][1]


class _RecordingContext:
    """Stands in for the spawn context: records each pool's size and maps
    in this process, so no worker is started."""

    def __init__(self):
        self.pool_sizes = []

    def Pool(self, processes):
        self.pool_sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return [fn(job) for job in jobs]


@pytest.mark.parametrize("seeds, jobs, pool_sizes", [
    ("0", "64", []), ("0,1", "64", [2]), ("0,1,2", "2", [2]),
])
def test_sweep_pool_has_at_most_one_worker_per_run(tmp_path, monkeypatch, seeds, jobs, pool_sizes):
    context = _RecordingContext()
    monkeypatch.setattr(cli, "get_context", lambda method: context)
    cfg = _write(tmp_path, RANDOM_CFG)
    out = tmp_path / "s"
    argv = ["sweep", "--config", cfg, "--out", str(out), "--seeds", seeds, "--jobs", jobs]
    assert main(argv + ["--quiet"]) == 0
    assert context.pool_sizes == pool_sizes
    assert len((out / "summary.csv").read_text().splitlines()) == 1 + len(seeds.split(","))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_error_names_the_failing_seed(tmp_path, capsys, jobs):
    cfg = _write(tmp_path, RANDOM_CFG)
    out = str(tmp_path / "s")
    argv = ["sweep", "--config", cfg, "--out", out, "--seeds", "0,-1,2", "--jobs", jobs]
    assert main(argv + ["--quiet"]) == 3
    assert "invalid configuration: seed -1: " in capsys.readouterr().err
    assert not os.path.exists(out)  # seed 0 did not run before the refusal


@pytest.mark.parametrize("seeds, token", [("0,x", "'x'"), ("0,,1", "''")])
def test_sweep_refuses_non_integer_seeds(tmp_path, capsys, seeds, token):
    cfg = _write(tmp_path, RANDOM_CFG)
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--seeds", seeds]
    assert main(argv + ["--quiet"]) == 3
    assert f"--seeds entry {token} is not an integer" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_sweep_refuses_repeated_seeds(tmp_path, capsys):
    # two runs of one seed would share one seed directory and one summary row
    cfg = _write(tmp_path, RANDOM_CFG)
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--seeds", "0,1,0"]
    assert main(argv + ["--quiet"]) == 3
    assert "--seeds repeats [0]" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("num_seeds", ["0", "-2"])
def test_table1_refuses_fewer_than_one_seed(tmp_path, capsys, num_seeds):
    out = tmp_path / "t"
    argv = ["table1", "--out", str(out), "--iterations", "2", "--num-seeds", num_seeds]
    assert main(argv + ["--benchmarks", "shekel4", "--labels", "add", "--quiet"]) == 3
    assert f"--num-seeds must be >= 1, got {num_seeds}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_and_table1_refuse_fewer_than_one_job(tmp_path, capsys, jobs):
    cfg = _write(tmp_path, RANDOM_CFG)
    out = tmp_path / "s"
    argv = ["sweep", "--config", cfg, "--out", str(out), "--seeds", "0", "--jobs", jobs]
    assert main(argv + ["--quiet"]) == 3
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()
    argv = ["table1", "--out", str(out), "--iterations", "2", "--num-seeds", "1"]
    argv += ["--benchmarks", "shekel4", "--labels", "add", "--jobs", jobs]
    assert main(argv + ["--quiet"]) == 3
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_and_table1_failures_keep_their_exit_code(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, RANDOM_CFG)
    monkeypatch.setattr(cli.engine, "make_objective", _nan_shekel4)
    out = str(tmp_path / "s")
    assert main(["sweep", "--config", cfg, "--out", out, "--seeds", "4"]) == 4
    assert "numerical failure: seed 4: " in capsys.readouterr().err
    argv = ["table1", "--out", str(tmp_path / "t"), "--iterations", "2"]
    argv += ["--num-seeds", "1", "--benchmarks", "shekel4", "--labels", "add"]
    assert main(argv + ["--quiet"]) == 4
    assert "numerical failure: seed 0: " in capsys.readouterr().err


@pytest.mark.parametrize("benchmarks, labels, repeated", [
    ("michalewicz10,michalewicz10", "add", "--benchmarks repeats ['michalewicz10']"),
    ("shekel4", "add,mf2,add", "--labels repeats ['add']"),
])
def test_table1_refuses_repeated_names(tmp_path, capsys, benchmarks, labels, repeated):
    # two runs of one cell would share its seed directories and summary row
    out = tmp_path / "t"
    argv = ["table1", "--out", str(out), "--iterations", "2", "--num-seeds", "2"]
    assert main(argv + ["--benchmarks", benchmarks, "--labels", labels, "--quiet"]) == 3
    assert repeated in capsys.readouterr().err
    assert not out.exists()


def test_table1_small_matrix(tmp_path):
    out = tmp_path / "t1"
    code = main(
        [
            "table1",
            "--out",
            str(out),
            "--iterations",
            "2",
            "--num-seeds",
            "1",
            "--benchmarks",
            "shekel4",
            "--labels",
            "add,mf2",
            "--quiet",
        ]
    )
    assert code == 0
    lines = (out / "table1_summary.csv").read_text().splitlines()
    assert lines[0] == "benchmark,algorithm,median_final_simple_regret,per_seed"
    assert sorted(l.split(",")[1] for l in lines[1:]) == ["add", "mf2"]
    assert (out / "table1" / "shekel4_mf2_seed0" / "trace.csv").exists()


def test_dump_constants(tmp_path, capsys):
    assert main(["dump-constants"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"shekel4", "hartmann6", "michalewicz10"}
    assert doc["shekel4"]["published_optimum"] == -10.5364

    out = tmp_path / "audit"
    assert main(["dump-constants", "--out", str(out), "--quiet"]) == 0
    on_disk = json.loads((out / "constants.json").read_text())
    assert on_disk == doc


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out
    for name in (
        "shekel_optimum",
        "hartmann_optimum",
        "michalewicz_optimum",
        "beta_discrete_spot",
        "gp_mean_additivity",
        "maxsum_tree_exactness",
        "posterior_blocks_bitwise",
        "grid_contraction_close",
        "packed_factors_bitwise",
        "gram_blocks_bitwise",
        "mcmc_move_counts",
    ):
        assert f"PASS  {name}" in out


def test_selftest_catches_corrupted_constants(monkeypatch, capsys):
    # negative control: breaking a benchmark table must turn the audit red
    monkeypatch.setattr(bench, "HARTMANN6_ALPHA", bench.HARTMANN6_ALPHA * 2.0)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  hartmann_optimum" in out
    assert "check(s) failed" in out


def test_benchmark_run_config_presets():
    mf2 = benchmark_run_config("shekel4", "mf2", seed=3)
    assert mf2["algorithm"] == "dec_hbo"
    assert mf2["decomposition"]["max_factor_size"] == 2
    assert mf2["beta"] == {
        "mode": "fixed_constant",
        "delta": 0.1,
        "fixed_value": 4.0,
        "lipschitz_a": 1.0,
        "lipschitz_b": 1.0,
    }
    assert mf2["grid_caps"] == [2, 32]
    mf3 = benchmark_run_config("hartmann6", "mf3", seed=0, iterations=20)
    assert mf3["decomposition"]["max_factor_size"] == 3
    assert mf3["maxsum"] == config_mod.DEFAULT_MAXSUM
    assert mf3["iterations"] == 20
    add = benchmark_run_config("michalewicz10", "add", seed=1)
    assert add["algorithm"] == "add_independent"
    assert add["grid_caps"] == [2, 16]
    with pytest.raises(ConfigurationError):
        benchmark_run_config("branin", "mf2", seed=0)
    with pytest.raises(ConfigurationError):
        benchmark_run_config("shekel4", "mf9", seed=0)
