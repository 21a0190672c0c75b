"""Scenario files: strict JSON ingestion plus named presets.

A scenario document is a JSON object with sections:

    table       optional; {"collaboration": {...}, "beefing": {...}} with
                clicks / watch_time / shares / drama_risk per strategy
                (defaults to the built-in table)
    weights     required; {"alpha": x, "beta": x, "gamma": x}
    creator     required; {"delta": x, "model": "linear" | "nonlinear"}
                (model defaults to "linear")
    population  optional; {"deltas": [...]} or
                {"grid": {"min": x, "max": x, "count": n}}
                (defaults to the single creator above)
    rule        optional; "exact" | {"quantal": {"lambda": x}}
                | {"satisficing": {"aspiration": x}} (defaults to "exact")
    domain      optional; {"simplex": {"total": x, "resolution": n}} or
                {"box": {"alpha_max": x, "beta_max": x, "gamma_max": x,
                "resolution": n}} (defaults to the unit simplex at
                resolution 100)

Parsing is strict: unknown keys anywhere raise ScenarioError with the
offending key path, as do NaN, infinities and integers too large for a
float; load_scenario also refuses a key given twice in one object. A typo
in an incentive parameter must never silently fall back to a default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable

from .core import (
    AlgorithmWeights,
    CreatorParams,
    DEFAULT_TABLE,
    EngagementProfile,
    GameTable,
    InvalidScenarioError,
    Strategy,
    UtilityModel,
)
from .leader import BoxDomain, SimplexDomain, WeightDomain
from .population import Population, make_delta_grid_population
from .response import Exact, Quantal, ResponseRule, Satisficing


class ScenarioError(ValueError):
    """The scenario document failed validation; the message carries the key path."""


@dataclass(frozen=True)
class Scenario:
    """A fully resolved scenario, defaults applied."""

    weights: AlgorithmWeights
    creator: CreatorParams
    table: GameTable
    population: Population
    rule: ResponseRule
    domain: WeightDomain


# Built-in presets: the three worked examples plus two platform archetypes
# (short-form viral platforms overweight clicks and shares; long-form
# platforms overweight watch time).
PRESETS: dict[str, dict] = {
    "example1": {
        "weights": {"alpha": 1.0, "beta": 2.0, "gamma": 1.5},
        "creator": {"delta": 1.0, "model": "linear"},
    },
    "example2": {
        "weights": {"alpha": 1.0, "beta": 2.0, "gamma": 1.5},
        "creator": {"delta": 2.5, "model": "linear"},
    },
    "example3": {
        "weights": {"alpha": 2.5, "beta": 0.5, "gamma": 2.0},
        "creator": {"delta": 1.0, "model": "linear"},
    },
    "tiktok-like": {
        "weights": {"alpha": 3.0, "beta": 0.5, "gamma": 2.5},
        "creator": {"delta": 1.0, "model": "linear"},
    },
    "youtube-like": {
        "weights": {"alpha": 0.5, "beta": 3.0, "gamma": 1.0},
        "creator": {"delta": 1.0, "model": "linear"},
    },
}


def _object(doc: object, path: str, keys: Iterable[str]) -> dict:
    """doc as an object whose keys are all among keys."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: expected an object, got {type(doc).__name__}")
    unknown = doc.keys() - keys
    if unknown:
        raise ScenarioError(f"{path}.{min(unknown)}: unknown key")
    return doc


_TOO_LARGE = "expected a number, got an integer too large for a float"


def _value(obj: dict, key: str, path: str, integer: bool, default: float | None):
    """The number field obj[key], an int if integer, else a float; default
    when the field is absent, which is an error when default is None."""
    if key not in obj:
        if default is None:
            raise ScenarioError(f"{path}.{key}: missing required value")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ScenarioError(f"{path}.{key}: expected {'an integer' if integer else 'a number'}, got {value!r}")
    if integer:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{path}.{key}: {_TOO_LARGE}") from None


# A record is (make, fields): a section of number fields only, key ->
# (integer, default), in the order of make's arguments.
_NUMBER, _INTEGER, _RESOLUTION = (False, None), (True, None), (True, 100)
_WEIGHTS = (AlgorithmWeights, dict.fromkeys(("alpha", "beta", "gamma"), _NUMBER))
_PROFILE = (EngagementProfile, dict.fromkeys(("clicks", "watch_time", "shares", "drama_risk"), _NUMBER))
_GRID = {"min": _NUMBER, "max": _NUMBER, "count": _INTEGER}
_BOX_MAX = dict.fromkeys(("alpha_max", "beta_max", "gamma_max"), _NUMBER)
_STRATEGIES = {"collaboration": Strategy.COLLABORATION, "beefing": Strategy.BEEFING}


def _record(record: tuple, doc: object, path: str, *extra):
    """make(*values, *extra), the values read from doc in the fields' order."""
    make, fields = record
    obj = _object(doc, path, fields)
    return make(*[_value(obj, key, path, integer, default) for key, (integer, default) in fields.items()], *extra)


def _wrapped(path: str, read: Callable, *args):
    """read(*args), with a model constructor's error re-raised under path."""
    try:
        return read(*args)
    except InvalidScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _creator(doc: object, path: str) -> CreatorParams:
    obj = _object(doc, path, ("delta", "model"))
    delta = _value(obj, "delta", path, False, None)
    model = obj.get("model", "linear")
    if model not in ("linear", "nonlinear"):
        raise ScenarioError(f'{path}.model: expected "linear" or "nonlinear", got {model!r}')
    return CreatorParams(delta, UtilityModel(model))


def _table(doc: object, path: str) -> GameTable:
    obj = _object(doc, path, _STRATEGIES)
    profiles = {}
    for key, strategy in _STRATEGIES.items():
        if key not in obj:
            raise ScenarioError(f"{path}.{key}: missing required section")
        sub_path = f"{path}.{key}"
        profiles[strategy] = _wrapped(sub_path, _record, _PROFILE, obj[key], sub_path)
    return GameTable(profiles)


def _deltas(doc: object, path: str, model: UtilityModel) -> Population:
    if not isinstance(doc, list) or not doc:
        raise ScenarioError(f"{path}: expected a non-empty list")
    members = []
    for i, value in enumerate(doc):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"{path}[{i}]: expected a number, got {value!r}")
        try:
            delta = float(value)
        except OverflowError:
            raise ScenarioError(f"{path}[{i}]: {_TOO_LARGE}") from None
        members.append(CreatorParams(delta=delta, model=model))
    return Population(tuple(members))


def _grid(doc: object, path: str, model: UtilityModel) -> Population:
    # the name is looked up per call, so a rebinding of it (bench/spans.py traces this way) is seen
    return _record((make_delta_grid_population, _GRID), doc, path, model)


# The sections that take exactly one of their options: section -> (the
# message when they do not, {option: reader(doc, path, *extra)}).
_ONE_OF = {
    "population": ('give exactly one of "deltas" or "grid"', {"deltas": _deltas, "grid": _grid}),
    "rule": ('expected "exact" or exactly one of quantal/satisficing', {
        "quantal": partial(_record, (Quantal, {"lambda": _NUMBER})),
        "satisficing": partial(_record, (Satisficing, {"aspiration": _NUMBER})),
    }),
    "domain": ("expected exactly one of simplex/box", {
        "simplex": partial(_record, (SimplexDomain, {"total": (False, 1.0), "resolution": _RESOLUTION})),
        "box": partial(_record, (BoxDomain, {**_BOX_MAX, "resolution": _RESOLUTION})),
    }),
}


def _one_of(doc: object, section: str, *extra):
    """The section read by its one option; a constructor's error is
    re-raised under the section's path."""
    path = f"scenario.{section}"
    message, options = _ONE_OF[section]
    obj = _object(doc, path, options)
    if len(obj) != 1:
        raise ScenarioError(f"{path}: {message}")
    ((key, value),) = obj.items()
    return _wrapped(path, options[key], value, f"{path}.{key}", *extra)


def parse_scenario(doc: object) -> Scenario:
    """Validate a scenario document (a parsed JSON object) and apply defaults."""
    doc = _object(doc, "scenario", ("table", "weights", "creator", "population", "rule", "domain"))
    for section in ("weights", "creator"):
        if section not in doc:
            raise ScenarioError(f"scenario.{section}: missing required section")
    weights = _wrapped("scenario.weights", _record, _WEIGHTS, doc["weights"], "scenario.weights")
    creator = _wrapped("scenario.creator", _creator, doc["creator"], "scenario.creator")
    table = _table(doc["table"], "scenario.table") if "table" in doc else DEFAULT_TABLE
    if "population" in doc:
        population = _one_of(doc["population"], "population", creator.model)
    else:
        population = Population((creator,))
    rule = Exact() if doc.get("rule", "exact") == "exact" else _one_of(doc["rule"], "rule")
    domain = _one_of(doc["domain"], "domain") if "domain" in doc else SimplexDomain()
    return Scenario(weights, creator, table, population, rule, domain)


def preset_scenario(name: str) -> Scenario:
    """One of the built-in presets, fully resolved."""
    if name not in PRESETS:
        raise ScenarioError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return parse_scenario(PRESETS[name])


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario from a JSON file.

    Raises OSError for I/O problems and ScenarioError for content problems,
    a key given twice in one object and nesting too deep to decode included.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        doc = _DECODER.decode(raw.decode(json.detect_encoding(raw), "surrogatepass"))  # json.loads's path for bytes
    except (ValueError, RecursionError) as exc:  # also integers past int's digit limit, and deep nesting
        raise ScenarioError(f"scenario: invalid JSON: {exc}") from exc
    return parse_scenario(doc)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # built once: it holds a compiled scanner
