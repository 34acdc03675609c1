"""Config validator: defaults, fail-closed keys, type/range errors, file IO."""

import json

import numpy as np
import pytest

from fgbo.bench import shekel4
from fgbo.config import DEFAULT_BETA, load_config_file, validate_config
from fgbo.errors import ConfigurationError

MINIMAL = {
    "objective": "shekel4",
    "algorithm": "random_search",
    "iterations": 10,
    "seed": 0,
}


def _dec_hbo(**overrides) -> dict:
    raw = {
        "objective": "shekel4",
        "algorithm": "dec_hbo",
        "iterations": 10,
        "seed": 0,
        "decomposition": {"mode": "static", "subsets": [[0, 1], [2, 3]]},
    }
    raw.update(overrides)
    return raw


def test_minimal_config_fills_defaults():
    out = validate_config(MINIMAL)
    assert out["initial_evaluations"] == 5
    assert out["noise_variance"] == 0.01
    assert out["beta"]["mode"] == "discrete_domain"
    assert out["beta"]["delta"] == 0.1
    assert out["grid_caps"] == [2, 64]
    assert out["maxsum"] == {"rounds": 30, "damping": 0.0, "tol": 1e-8}
    assert out["gp"] == {
        "signal_variance": None,
        "lengthscale": 0.2,
        "center_observations": True,
    }
    assert out["decomposition"] is None
    assert out["measure_wall_time"] is False
    assert out["optimum_value"] is None


def test_validation_is_idempotent():
    out = validate_config(_dec_hbo())
    assert validate_config(out) == out


def test_unknown_keys_fail_closed_at_every_level():
    cases = [
        dict(MINIMAL, typo=1),
        dict(MINIMAL, beta={"mode": "discrete_domain", "extra": 1}),
        dict(MINIMAL, maxsum={"rounds": 5, "sweeps": 2}),
        dict(MINIMAL, gp={"lengthscale": 0.2, "nugget": 1e-6}),
        _dec_hbo(decomposition={"mode": "static", "subsets": [[0, 1]], "seed": 3}),
        dict(
            MINIMAL,
            objective={
                "kind": "prior_sample",
                "dims": 2,
                "subsets": [[0], [1]],
                "sample_seed": 0,
                "bogus": True,
            },
        ),
    ]
    for raw in cases:
        with pytest.raises(ConfigurationError, match="unknown key"):
            validate_config(raw)


def test_numpy_seed_and_in_memory_objective_are_accepted():
    obj = shekel4()
    out = validate_config(dict(MINIMAL, seed=np.int64(3), objective=obj))
    assert out["seed"] == 3 and type(out["seed"]) is int
    assert out["objective"] is obj  # passed through unchanged


def test_missing_required_keys():
    for key in ("objective", "algorithm", "iterations", "seed"):
        raw = dict(MINIMAL)
        del raw[key]
        with pytest.raises(ConfigurationError, match="missing required"):
            validate_config(raw)


@pytest.mark.parametrize(
    "patch, fragment",
    [
        ({"seed": True}, "integer"),
        ({"seed": 1.5}, "integer"),
        ({"iterations": "5"}, "integer"),
        ({"iterations": 0}, ">= 1"),
        ({"initial_evaluations": 0}, ">= 1"),
        ({"noise_variance": -0.1}, ">= 0"),
        ({"algorithm": "simplex"}, "algorithm"),
        ({"objective": "branin"}, "unknown objective"),
        ({"objective": 42}, "objective"),
        ({"beta": {"delta": 1.0}}, "< 1"),
        ({"beta": {"delta": 0.0}}, "> 0"),
        ({"beta": {"mode": "ucb1"}}, "mode"),
        ({"maxsum": {"damping": 1.0}}, "< 1"),
        ({"maxsum": {"rounds": 0}}, ">= 1"),
        ({"grid_caps": [1, 64]}, ">= 2"),
        ({"grid_caps": [8, 4]}, ">= 8"),
        ({"grid_caps": [4]}, "min_points"),
        ({"gp": {"lengthscale": 0.0}}, "> 0"),
        ({"gp": {"center_observations": 1}}, "boolean"),
        ({"measure_wall_time": "yes"}, "boolean"),
        ({"optimum_value": "low"}, "number"),
        ({"seed": -1}, "seed: must be >= 0"),
        (
            {"objective": {"kind": "prior_sample", "dims": 2, "subsets": [[0, 1]], "sample_seed": -1}},
            "sample_seed: must be >= 0",
        ),
    ],
)
def test_type_and_range_errors(patch, fragment):
    raw = dict(MINIMAL)
    raw.update(patch)
    with pytest.raises(ConfigurationError, match=fragment):
        validate_config(raw)


def test_beta_fixed_constant_rules():
    raw = dict(MINIMAL, beta={"mode": "fixed_constant", "fixed_value": 4.0})
    assert validate_config(raw)["beta"]["fixed_value"] == 4.0
    with pytest.raises(ConfigurationError, match="requires fixed_value"):
        validate_config(dict(MINIMAL, beta={"mode": "fixed_constant"}))
    with pytest.raises(ConfigurationError, match="only valid"):
        validate_config(
            dict(MINIMAL, beta={"mode": "discrete_domain", "fixed_value": 4.0})
        )


def test_decomposition_rules():
    with pytest.raises(ConfigurationError, match="requires a decomposition"):
        validate_config(_dec_hbo(decomposition=None))
    with pytest.raises(ConfigurationError, match="does not accept"):
        validate_config(
            dict(MINIMAL, decomposition={"mode": "random", "max_factor_size": 2})
        )
    with pytest.raises(ConfigurationError, match="requires subsets"):
        validate_config(_dec_hbo(decomposition={"mode": "static"}))
    with pytest.raises(ConfigurationError, match="requires max_factor_size"):
        validate_config(_dec_hbo(decomposition={"mode": "random"}))
    with pytest.raises(ConfigurationError, match="mcmc mode requires"):
        validate_config(_dec_hbo(decomposition={"mode": "mcmc", "max_factor_size": 2}))
    with pytest.raises(ConfigurationError, match="mode"):
        validate_config(_dec_hbo(decomposition={"mode": "greedy"}))

    out = validate_config(_dec_hbo())
    assert out["decomposition"] == {
        "mode": "static",
        "subsets": [[0, 1], [2, 3]],
        "max_factor_size": 2,
    }
    out = validate_config(
        _dec_hbo(
            decomposition={"mode": "mcmc", "max_factor_size": 2, "chain_length": 100}
        )
    )
    assert out["decomposition"]["interval"] == 10
    assert out["decomposition"]["num_samples"] == 1


def test_prior_sample_objective_validation():
    spec = {"kind": "prior_sample", "dims": 3, "subsets": [[0, 1], [2]], "sample_seed": 7}
    out = validate_config(dict(MINIMAL, objective=spec))
    assert out["objective"] == {
        "kind": "prior_sample",
        "dims": 3,
        "subsets": [[0, 1], [2]],
        "signal_variance": 1.0,
        "lengthscale": 0.2,
        "grid_points": 7,
        "sample_seed": 7,
    }
    for bad in (
        {"kind": "prior_sample", "dims": 3, "subsets": [[0, 1]]},  # no sample_seed
        {"kind": "prior_sample", "dims": 0, "subsets": [[0]], "sample_seed": 1},
        {"kind": "prior_sample", "dims": 2, "subsets": [], "sample_seed": 1},
        {"kind": "prior_sample", "dims": 2, "subsets": [[0, "a"]], "sample_seed": 1},
        {"kind": "gp_draw", "dims": 2, "subsets": [[0]], "sample_seed": 1},
    ):
        with pytest.raises(ConfigurationError):
            validate_config(dict(MINIMAL, objective=bad))


def test_model_algorithms_reject_zero_noise():
    raw = _dec_hbo(noise_variance=0.0)
    with pytest.raises(ConfigurationError, match="noise_variance"):
        validate_config(raw)
    assert validate_config(dict(MINIMAL, noise_variance=0.0))["noise_variance"] == 0.0


def test_canonical_output_is_detached():
    out = validate_config(dict(MINIMAL))
    out["beta"]["delta"] = 0.9
    assert DEFAULT_BETA["delta"] == 0.1
    assert validate_config(dict(MINIMAL))["beta"]["delta"] == 0.1


def test_load_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MINIMAL))
    assert load_config_file(str(path)) == MINIMAL

    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"fgbo_version": "0.0.0", "config": validate_config(MINIMAL)})
    )
    doc = load_config_file(str(manifest))
    assert doc["objective"] == "shekel4"  # unwrapped

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_config_file(str(bad))
    with pytest.raises(FileNotFoundError):
        load_config_file(str(tmp_path / "absent.json"))
