"""Run configuration: the schema, every default, and fail-closed validation.

This module is the only place that knows what a run config may hold.  A
configuration is a JSON object, or the fields of RunConfig (its top-level
keys), which passes them through here on construction; so the CLI and the
Python API accept and reject the same inputs, with the same exceptions.
validate_config fills the defaults and rejects unknown keys, wrong types,
and cross-field inconsistencies with a ConfigurationError naming the
offending path.  The returned canonical dict holds every key, nested ones
included, and is what manifests embed, so validating it again is a no-op.
An in-memory SyntheticObjective passes through unchanged.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import MISSING, dataclass, fields

from .bench import OBJECTIVES, SyntheticObjective
from .decomposition import McmcConfig
from .errors import ConfigurationError, is_integer

ALGORITHMS = ("dec_hbo", "add_independent", "centralized_gp_ucb", "random_search")

DEFAULT_BETA = {
    "mode": "discrete_domain",
    "delta": 0.1,
    "fixed_value": None,
    "lipschitz_a": 1.0,
    "lipschitz_b": 1.0,
}
DEFAULT_MAXSUM = {"rounds": 30, "damping": 0.0, "tol": 1e-8}
DEFAULT_GP = {"signal_variance": None, "lengthscale": 0.2, "center_observations": True}

BETA_MODES = ("discrete_domain", "continuous_lipschitz", "fixed_constant")
_DECOMPOSITION_MODES = ("static", "random", "mcmc")

_PRIOR_SAMPLE_KEYS = (
    "kind", "dims", "subsets", "signal_variance", "lengthscale", "grid_points",
    "sample_seed",
)
_PRIOR_SAMPLE_REQUIRED = ("kind", "dims", "subsets", "sample_seed")


def _fail(path: str, message: str):
    raise ConfigurationError(f"config error at {path}: {message}")


def _check_keys(doc: dict, allowed, path: str):
    for key in doc:
        if key not in allowed:
            _fail(path, f"unknown key {key!r} (fail-closed)")


def _section(value, defaults: dict, path: str) -> dict:
    """A config section: an object of known keys, merged over its defaults."""
    if not isinstance(value, dict):
        _fail(path, "expected an object")
    _check_keys(value, tuple(defaults), path)
    return {**defaults, **value}


def _as_int(value, path, minimum=None):
    if not is_integer(value):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return int(value)


def _as_number(value, path, minimum=None, exclusive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        _fail(path, f"must be a finite number, got {value!r}")
    if minimum is not None:
        if exclusive and v <= minimum:
            _fail(path, f"must be > {minimum}, got {value}")
        if not exclusive and v < minimum:
            _fail(path, f"must be >= {minimum}, got {value}")
    return v


def _as_bool(value, path):
    if not isinstance(value, bool):
        _fail(path, f"expected a boolean, got {value!r}")
    return value


def _validate_subsets(value, path):
    if not isinstance(value, list) or not value:
        _fail(path, "expected a nonempty list of index lists")
    out = []
    for i, s in enumerate(value):
        if not isinstance(s, list) or not s:
            _fail(f"{path}[{i}]", "expected a nonempty list of integers")
        out.append(sorted(_as_int(j, f"{path}[{i}]", minimum=0) for j in s))
    return out


def _validate_objective(value, path):
    if isinstance(value, SyntheticObjective):
        return value
    if isinstance(value, str):
        if value not in OBJECTIVES:
            _fail(path, f"unknown objective {value!r}; choose from {tuple(OBJECTIVES)}")
        return value
    if isinstance(value, dict):
        _check_keys(value, _PRIOR_SAMPLE_KEYS, path)
        if value.get("kind") != "prior_sample":
            _fail(f"{path}.kind", "objective dicts must have kind 'prior_sample'")
        for key in _PRIOR_SAMPLE_REQUIRED:
            if key not in value:
                _fail(path, f"missing required key {key!r}")
        out = {
            "kind": "prior_sample",
            "dims": _as_int(value["dims"], f"{path}.dims", minimum=1),
            "subsets": _validate_subsets(value["subsets"], f"{path}.subsets"),
            "signal_variance": _as_number(
                value.get("signal_variance", 1.0), f"{path}.signal_variance", 0.0, True
            ),
            "lengthscale": _as_number(
                value.get("lengthscale", 0.2), f"{path}.lengthscale", 0.0, True
            ),
            "grid_points": _as_int(value.get("grid_points", 7), f"{path}.grid_points", 1),
            "sample_seed": _as_int(value["sample_seed"], f"{path}.sample_seed", minimum=0),
        }
        return out
    _fail(path, f"expected an objective name or prior_sample dict, got {value!r}")


def _validate_decomposition(value, path):
    if not isinstance(value, dict):
        _fail(path, "expected a decomposition object")
    mode = value.get("mode")
    if mode not in _DECOMPOSITION_MODES:
        _fail(f"{path}.mode", f"expected one of {_DECOMPOSITION_MODES}, got {mode!r}")
    if mode == "static":
        _check_keys(value, ("mode", "subsets", "max_factor_size"), path)
        if "subsets" not in value:
            _fail(path, "static mode requires subsets")
        subsets = _validate_subsets(value["subsets"], f"{path}.subsets")
        m = value.get("max_factor_size")
        m = max(len(s) for s in subsets) if m is None else _as_int(
            m, f"{path}.max_factor_size", minimum=1
        )
        return {"mode": "static", "subsets": subsets, "max_factor_size": m}
    if mode == "random":
        _check_keys(value, ("mode", "max_factor_size", "num_extra_overlaps"), path)
        if "max_factor_size" not in value:
            _fail(path, "random mode requires max_factor_size")
        return {
            "mode": "random",
            "max_factor_size": _as_int(
                value["max_factor_size"], f"{path}.max_factor_size", minimum=1
            ),
            "num_extra_overlaps": _as_int(
                value.get("num_extra_overlaps", 0), f"{path}.num_extra_overlaps", 0
            ),
        }
    allowed = (
        "mode", "max_factor_size", "chain_length", "burn_in",
        "thinning", "num_samples", "interval", "size_penalty",
    )
    _check_keys(value, allowed, path)
    for key in ("max_factor_size", "chain_length"):
        if key not in value:
            _fail(path, f"mcmc mode requires {key!r}")
    out = {
        "mode": "mcmc",
        "max_factor_size": _as_int(value["max_factor_size"], f"{path}.max_factor_size"),
        "chain_length": _as_int(value["chain_length"], f"{path}.chain_length"),
        "burn_in": _as_int(value.get("burn_in", 0), f"{path}.burn_in"),
        "thinning": _as_int(value.get("thinning", 1), f"{path}.thinning"),
        "num_samples": _as_int(value.get("num_samples", 1), f"{path}.num_samples"),
        "interval": _as_int(value.get("interval", 10), f"{path}.interval", 1),
        "size_penalty": _as_number(value.get("size_penalty", 0.0), f"{path}.size_penalty"),
    }
    try:  # the sampler's own checks, before anything runs
        McmcConfig(**{k: v for k, v in out.items() if k not in ("mode", "interval")})
    except ConfigurationError as exc:
        _fail(path, str(exc))
    return out


def _validate_beta(value, path):
    out = _section(value, DEFAULT_BETA, path)
    if out["mode"] not in BETA_MODES:
        _fail(f"{path}.mode", f"expected one of {BETA_MODES}, got {out['mode']!r}")
    delta = _as_number(out["delta"], f"{path}.delta", 0.0, True)
    if delta >= 1.0:
        _fail(f"{path}.delta", f"must be < 1, got {delta}")
    out["delta"] = delta
    if out["mode"] == "fixed_constant":
        if out.get("fixed_value") is None:
            _fail(path, "fixed_constant mode requires fixed_value")
        out["fixed_value"] = _as_number(out["fixed_value"], f"{path}.fixed_value", 0.0, True)
    elif out.get("fixed_value") is not None:
        _fail(f"{path}.fixed_value", "only valid with mode fixed_constant")
    out["lipschitz_a"] = _as_number(out["lipschitz_a"], f"{path}.lipschitz_a", 0.0, True)
    out["lipschitz_b"] = _as_number(out["lipschitz_b"], f"{path}.lipschitz_b", 0.0, True)
    return out


def _validate_maxsum(value, path):
    out = _section(value, DEFAULT_MAXSUM, path)
    out["rounds"] = _as_int(out["rounds"], f"{path}.rounds", minimum=1)
    damping = _as_number(out["damping"], f"{path}.damping", 0.0)
    if damping >= 1.0:
        _fail(f"{path}.damping", f"must be < 1, got {damping}")
    out["damping"] = damping
    out["tol"] = _as_number(out["tol"], f"{path}.tol", 0.0)
    return out


def _validate_gp(value, path):
    out = _section(value, DEFAULT_GP, path)
    if out["signal_variance"] is not None:
        out["signal_variance"] = _as_number(
            out["signal_variance"], f"{path}.signal_variance", 0.0, True
        )
    out["lengthscale"] = _as_number(out["lengthscale"], f"{path}.lengthscale", 0.0, True)
    out["center_observations"] = _as_bool(
        out["center_observations"], f"{path}.center_observations"
    )
    return out


@dataclass(frozen=True)
class RunConfig:
    """A run description, validated on construction like a CLI config.

    The fields are the top-level keys of a config document, required when
    they have no default; a field left None takes this module's default,
    and nested dicts may be partial.  Construction runs them through
    validate_config, so a bad value raises ConfigurationError, and stores
    the canonical values.
    """

    objective: object  # name, prior-sample spec dict, or SyntheticObjective
    algorithm: str
    iterations: int
    seed: int
    initial_evaluations: int | None = None
    noise_variance: float | None = None
    decomposition: dict | None = None
    beta: dict | None = None
    grid_caps: list | tuple | None = None
    maxsum: dict | None = None
    gp: dict | None = None
    measure_wall_time: bool | None = None
    optimum_value: float | None = None

    def __post_init__(self):
        given = {f.name: getattr(self, f.name) for f in fields(self)}
        canonical = validate_config({k: v for k, v in given.items() if v is not None})
        for name, value in canonical.items():
            object.__setattr__(self, name, value)

    def to_canonical_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        if isinstance(self.objective, SyntheticObjective):
            doc["objective"] = {"kind": self.objective.kind, "in_memory": True}
        return copy.deepcopy(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Construct from a config document or a manifest's canonical config."""
        return cls(**validate_config(doc))


_TOP_KEYS = tuple(f.name for f in fields(RunConfig))
_REQUIRED = tuple(f.name for f in fields(RunConfig) if f.default is MISSING)


def validate_config(raw: dict) -> dict:
    """Validate a raw config document into canonical form (fail-closed).

    Every nested container of the result is built here, so it shares no
    state with the input or with the defaults above.
    """
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "config")
    for key in _REQUIRED:
        if key not in raw:
            _fail("config", f"missing required key {key!r}")
    algorithm = raw["algorithm"]
    if algorithm not in ALGORITHMS:
        _fail("config.algorithm", f"expected one of {ALGORITHMS}, got {algorithm!r}")
    out = {
        "objective": _validate_objective(raw["objective"], "config.objective"),
        "algorithm": algorithm,
        "iterations": _as_int(raw["iterations"], "config.iterations", minimum=1),
        "seed": _as_int(raw["seed"], "config.seed", minimum=0),
        "initial_evaluations": _as_int(
            raw.get("initial_evaluations", 5), "config.initial_evaluations", 1
        ),
        "noise_variance": _as_number(
            raw.get("noise_variance", 0.01), "config.noise_variance", 0.0
        ),
        "decomposition": None,
        "beta": _validate_beta(raw.get("beta", {}), "config.beta"),
        "grid_caps": None,
        "maxsum": _validate_maxsum(raw.get("maxsum", {}), "config.maxsum"),
        "gp": _validate_gp(raw.get("gp", {}), "config.gp"),
        "measure_wall_time": _as_bool(
            raw.get("measure_wall_time", False), "config.measure_wall_time"
        ),
        "optimum_value": raw.get("optimum_value"),
    }
    caps = raw.get("grid_caps", [2, 64])
    if not isinstance(caps, (list, tuple)) or len(caps) != 2:
        _fail("config.grid_caps", "expected [min_points, max_points]")
    lo = _as_int(caps[0], "config.grid_caps[0]", minimum=2)
    hi = _as_int(caps[1], "config.grid_caps[1]", minimum=lo)
    out["grid_caps"] = [lo, hi]
    if out["optimum_value"] is not None:
        out["optimum_value"] = _as_number(out["optimum_value"], "config.optimum_value")
    dec = raw.get("decomposition")
    if algorithm == "dec_hbo":
        if dec is None:
            _fail("config.decomposition", "dec_hbo requires a decomposition")
        out["decomposition"] = _validate_decomposition(dec, "config.decomposition")
    elif dec is not None:
        _fail(
            "config.decomposition",
            f"algorithm {algorithm!r} does not accept a decomposition",
        )
    if algorithm != "random_search" and out["noise_variance"] <= 0:
        _fail("config.noise_variance", "model-based algorithms need noise_variance > 0")
    return out


def load_config_file(path: str) -> dict:
    """Read a JSON config or manifest file; manifests are unwrapped."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    if isinstance(doc, dict) and "fgbo_version" in doc and "config" in doc:
        doc = doc["config"]
    return doc
