"""Run manifests: one JSON document that pins a whole experiment.

Every subcommand is reproducible from its manifest plus a seed; unknown
keys and values of the wrong JSON type are rejected so typos fail loudly,
and omitted keys fall back to the defaults of ``ModelConfig`` and
``TrainConfig`` (which the parsed manifest echoes back).
"""

from __future__ import annotations

import json
import typing
from dataclasses import MISSING, dataclass, field, fields

from .config import ConfigError, ModelConfig
from .training import TrainConfig

_JSON_TYPES = {
    str: "a string",
    int: "an integer",
    float: "a number",
    tuple[int, ...]: "a list of integers",
}


@dataclass
class RunManifest:
    model: ModelConfig
    train: TrainConfig
    paths: dict = field(default_factory=dict)

    def echo(self) -> dict:
        """The fully resolved document, defaults included."""
        return {"model": _as_json(self.model), "train": _as_json(self.train), "paths": dict(self.paths)}


def _keys(cls) -> tuple[dict, list]:
    """(the type of each field, the fields with no default): a section's keys and its required ones."""
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    return typing.get_type_hints(cls), required


_MODEL_KEYS = _keys(ModelConfig)
_TRAIN_KEYS = _keys(TrainConfig)
_PATH_KEYS = (dict.fromkeys(("corpus", "checkpoint", "store", "report"), str), [])


def _as_json(cfg) -> dict:
    """A config dataclass's fields in order, tuples as JSON lists."""
    values = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


def _fits(value, hint) -> bool:
    """Whether a JSON value is acceptable for a field of type ``hint``; no bool passes as a number."""
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and all(_fits(v, typing.get_args(hint)[0]) for v in value)
    if hint is str:
        return isinstance(value, str)
    return not isinstance(value, bool) and isinstance(value, (int, float) if hint is float else int)


def _section(doc: dict, name: str, hints: dict, required: list) -> dict:
    """The type-checked keys one section gives; the config dataclass fills in the omitted ones."""
    given = doc.get(name, {})
    if not isinstance(given, dict):
        raise ConfigError(f"{name} section must be a JSON object, got {given!r}")
    unknown = set(given) - set(hints)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name} section: {', '.join(sorted(unknown))}")
    for key in required:
        if key not in given:
            raise ConfigError(f"manifest is missing the required key: {name}.{key}")
    kw = {}
    for key, value in given.items():
        shorthand = key == "expert_layers" and _fits(value, int)  # "the first n layers"
        if not (shorthand or _fits(value, hints[key])):
            raise ConfigError(f"{name}.{key} must be {_JSON_TYPES[hints[key]]}, got {value!r}")
        kw[key] = tuple(value) if isinstance(value, list) else value
    n = kw.get("expert_layers")
    if isinstance(n, int):  # num_layers is required and type-checked with it
        if not 0 <= n <= kw["num_layers"]:
            raise ConfigError(f"{name}.expert_layers {n} is not a layer count in 0..num_layers ({kw['num_layers']})")
        kw["expert_layers"] = tuple(range(n))
    return kw


def parse_manifest_dict(doc: dict) -> RunManifest:
    if not isinstance(doc, dict):
        raise ConfigError("manifest must be a JSON object")
    unknown = set(doc) - {"model", "train", "paths"}
    if unknown:
        raise ConfigError(f"unknown key(s) in top-level section: {', '.join(sorted(unknown))}")
    if "model" not in doc:
        raise ConfigError("manifest is missing the required key: model")
    model = ModelConfig(**_section(doc, "model", *_MODEL_KEYS))
    train = TrainConfig(**_section(doc, "train", *_TRAIN_KEYS))
    return RunManifest(model=model, train=train, paths=_section(doc, "paths", *_PATH_KEYS))


def parse_manifest(path) -> RunManifest:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"manifest not found: {path}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"manifest {path} is not UTF-8: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"manifest is not valid JSON: {e}")
    return parse_manifest_dict(doc)
