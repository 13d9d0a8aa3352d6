"""Scenario configuration: JSON schema, strict validation, and named presets.

A scenario file must be complete; nothing is defaulted silently, and a key
repeated within one object is an error rather than a silent last-wins. The
schema is the one validator of every scenario value: the engine reads the
validated ``Scenario`` and does not check its ranges again. The named
presets carry the standard indoor parameter set (100 m x 100 m area, omega 0.2,
1e5 users/km2, 100 mW APs, 3 dB SINR threshold, 5% outage budget, 3 Wi-Fi
channels) in its open and obstructed propagation variants. The total system
bandwidth is a knob; the presets use 60 MHz so each Wi-Fi channel is 20 MHz.
"""

import copy
import json
import math
import os
from dataclasses import dataclass, field, fields

from .channel import PropagationParams, noise_power_mw
from .geometry import ServiceArea

ENV_PREFIX = "APDIM_"


class ScenarioError(ValueError):
    """Configuration parse or schema violation, with the offending key path."""


# --- schema -----------------------------------------------------------------

def _num(v) -> bool:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _grid(v) -> bool:
    ok = isinstance(v, list) and len(v) >= 1 and all(_num(x) and x > 0 for x in v)
    return ok and all(b >= a for a, b in zip(v, v[1:]))


# check kind -> (accepts the JSON value, what it expects, JSON value -> field value)
_CHECKS = {
    "string": (lambda v: isinstance(v, str) and v != "", "non-empty string", str),
    "number": (_num, "finite number", float),
    "positive": (lambda v: _num(v) and v > 0, "positive number", float),
    "nonneg": (lambda v: _num(v) and v >= 0, "number >= 0", float),
    "fraction01": (lambda v: _num(v) and 0 < v < 1, "number in (0, 1)", float),
    "fraction01c": (lambda v: _num(v) and 0 <= v <= 1, "number in [0, 1]", float),
    "fraction01r": (lambda v: _num(v) and 0 < v <= 1, "number in (0, 1]", float),
    "nonneg_int": (lambda v: _int(v) and v >= 0, "integer >= 0", int),
    "positive_int": (lambda v: _int(v) and v >= 1, "integer >= 1", int),
    "u64": (lambda v: _int(v) and 0 <= v < 2**64, "integer in [0, 2^64)", int),
    "demand_grid": (_grid, "ascending list of positive numbers", lambda v: tuple(map(float, v))),
}


def _key(kind: str):
    """A field read from the JSON key of the same name and checked as ``kind``."""
    return field(metadata={"kind": kind})


# Sections whose classes live outside the config layer: their keys in order,
# each (JSON key, check kind) or (JSON key, check kind, field name).
_FOREIGN = {
    "area": (("lx_m", "positive", "lx"), ("ly_m", "positive", "ly"),
             ("wx", "nonneg_int"), ("wy", "nonneg_int")),
    "propagation": (("l0_db", "number"), ("alpha", "nonneg"), ("lw_db", "nonneg")),
}


@dataclass(frozen=True)
class TrafficConfig:
    omega: float = _key("fraction01r")  # busy-hour fraction of the day
    lambda_u_per_km2: float = _key("positive")  # mean user density


@dataclass(frozen=True)
class RadioConfig:
    bandwidth_mhz: float = _key("positive")
    pt_mw: float = _key("positive")
    gamma_t_db: float = _key("number")
    beta: float = _key("fraction01")
    boltzmann_j_per_k: float = _key("positive")
    temperature_k: float = _key("positive")
    sigma_z2: float = _key("positive")


@dataclass(frozen=True)
class WifiConfig:
    cs_thr_baseline_dbm: float = _key("number")
    cs_thr_aggressive_dbm: float = _key("number")
    k_wifi: int = _key("positive_int")
    eta_wifi: float = _key("positive")


@dataclass(frozen=True)
class StaticConfig:
    eta_sta: float = _key("positive")
    k_max: int = _key("positive_int")


@dataclass(frozen=True)
class ZfConfig:
    eta_zf: float = _key("positive")
    delta: float = _key("fraction01c")
    rho: float = _key("fraction01c")


@dataclass(frozen=True)
class EngineConfig:
    n_snapshots: int = _key("positive_int")
    seed: int = _key("u64")
    ladder_max_aps: int = _key("positive_int")


@dataclass(frozen=True)
class Scenario:
    """A validated scenario; its fields are the JSON file's keys, in order.

    A field without a check kind is a section, keyed by its class's fields or
    by its ``_FOREIGN`` row.
    """

    scenario_id: str = _key("string")
    area: ServiceArea
    propagation: PropagationParams
    traffic: TrafficConfig
    radio: RadioConfig
    wifi: WifiConfig
    static: StaticConfig
    zf: ZfConfig
    engine: EngineConfig
    demand_gb_month: tuple[float, ...] = _key("demand_grid")

    @property
    def sigma2_mw(self) -> float:
        """Thermal noise power over the whole system bandwidth, mW."""
        return noise_power_mw(
            self.radio.boltzmann_j_per_k, self.radio.temperature_k, self.radio.bandwidth_mhz * 1e6
        )

    @property
    def gamma_t_linear(self) -> float:
        return 10.0 ** (self.radio.gamma_t_db / 10.0)

    @property
    def n_users(self) -> int:
        """Users dropped per snapshot: round(E[lambda_u] * |area|)."""
        return max(1, round(self.traffic.lambda_u_per_km2 * self.area.area_km2))

    def to_dict(self) -> dict:
        out = {}
        for key, spec in _SCHEMA.items():
            value = getattr(self, key)
            if isinstance(spec, str):
                out[key] = list(value) if isinstance(value, tuple) else value
            else:
                out[key] = {k: getattr(value, name) for k, name, _ in spec[1]}
        return out


def _section_keys(f) -> tuple:
    """(JSON key, field name, check kind) for each key of a section field, in order."""
    if f.name in _FOREIGN:
        return tuple((k, name[0] if name else k, kind) for k, kind, *name in _FOREIGN[f.name])
    return tuple((g.name, g.name, g.metadata["kind"]) for g in fields(f.type))


# Top-level key -> check kind, or (section class, _section_keys) for a section.
_SCHEMA = {
    f.name: f.metadata["kind"] if "kind" in f.metadata else (f.type, _section_keys(f))
    for f in fields(Scenario)
}


def _fail(path: str, expected: str, got) -> ScenarioError:
    return ScenarioError(f"{path}: expected {expected}, got {got!r}")


def _check_keys(prefix: str, value: dict, expected) -> None:
    unknown = set(value) - set(expected)
    if unknown:
        raise ScenarioError(f"{prefix}unknown key(s): {', '.join(sorted(unknown))}")
    missing = set(expected) - set(value)
    if missing:
        raise ScenarioError(f"{prefix}missing key(s): {', '.join(sorted(missing))}")


def _convert(path: str, kind: str, value):
    check, label, convert = _CHECKS[kind]
    if not check(value):
        raise _fail(path, label, value)
    return convert(value)


def from_dict(raw: dict) -> Scenario:
    """Build a validated Scenario from a raw dict (no defaults applied).

    Each key is checked as it is converted, in schema order, so the
    ScenarioError names the first offending key.
    """
    if not isinstance(raw, dict):
        raise _fail("scenario", "a JSON object", type(raw).__name__)
    _check_keys("", raw, _SCHEMA)
    values = {}
    for key, spec in _SCHEMA.items():
        value = raw[key]
        if isinstance(spec, str):
            values[key] = _convert(key, spec, value)
            continue
        if not isinstance(value, dict):
            raise _fail(key, "a JSON object", value)
        cls, keys = spec
        _check_keys(f"{key}: ", value, [sub for sub, _, _ in keys])
        values[key] = cls(
            **{name: _convert(f"{key}.{sub}", kind, value[sub]) for sub, name, kind in keys}
        )
    return Scenario(**values)


def apply_env_overrides(raw: dict, environ=None) -> dict:
    """Apply APDIM_SECTION__KEY (or APDIM_KEY) environment overrides to a raw dict.

    Values are parsed as JSON literals, falling back to the raw string. Only
    keys already present in the scenario can be overridden; anything else is a
    ScenarioError, so typos fail loudly in CI.
    """
    environ = os.environ if environ is None else environ
    raw = copy.deepcopy(raw)
    for name, text in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        path = name[len(ENV_PREFIX):].lower().split("__")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        for part in path[:-1]:
            node = node.get(part) if isinstance(node, dict) else None
        if not isinstance(node, dict) or path[-1] not in node:
            raise ScenarioError(f"env override {name}: no such key {'.'.join(path)}")
        node[path[-1]] = value
    return raw


def load_scenario(path: str) -> Scenario:
    """Load, override from the environment, and validate a scenario file."""

    def unique_keys(pairs: list) -> dict:
        out = {}
        for key, value in pairs:
            if key in out:
                raise ScenarioError(f"{path}: repeated key {key!r}")
            out[key] = value
        return out

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's recursion limit
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    return from_dict(apply_env_overrides(raw))


# --- presets -----------------------------------------------------------------

_BASE_PRESET = {
    "area": {"lx_m": 100.0, "ly_m": 100.0, "wx": 0, "wy": 0},
    "propagation": {"l0_db": 37.0, "alpha": 2.0, "lw_db": 0.0},
    "traffic": {"omega": 0.2, "lambda_u_per_km2": 1.0e5},
    "radio": {
        "bandwidth_mhz": 60.0,
        "pt_mw": 100.0,
        "gamma_t_db": 3.0,
        "beta": 0.05,
        "boltzmann_j_per_k": 1.38e-23,
        "temperature_k": 300.0,
        "sigma_z2": 1.0,
    },
    "wifi": {
        "cs_thr_baseline_dbm": -85.0,
        "cs_thr_aggressive_dbm": -65.0,
        "k_wifi": 3,
        "eta_wifi": 2.7,
    },
    "static": {"eta_sta": 3.75, "k_max": 12},
    "zf": {"eta_zf": 3.75, "delta": 0.02, "rho": 0.9},
    "engine": {"n_snapshots": 500, "seed": 20240601, "ladder_max_aps": 100},
    "demand_gb_month": [1.0, 2.0, 5.0, 10.0, 20.0, 40.0],
}


def _preset_raws() -> dict:
    open_env = copy.deepcopy(_BASE_PRESET)
    open_env["scenario_id"] = "table1-open"

    obstructed = copy.deepcopy(_BASE_PRESET)
    obstructed["scenario_id"] = "table1-obstructed"
    obstructed["area"].update(wx=4, wy=4)  # 25 rooms
    obstructed["propagation"].update(alpha=4.0, lw_db=10.0)
    return {"table1-open": open_env, "table1-obstructed": obstructed}


PRESET_NAMES = tuple(sorted(_preset_raws()))


def preset_raw(name: str) -> dict:
    raws = _preset_raws()
    if name not in raws:
        raise ScenarioError(f"unknown preset {name!r}; available: {', '.join(sorted(raws))}")
    return raws[name]


def preset(name: str) -> Scenario:
    """A named preset with the environment's overrides applied."""
    return from_dict(apply_env_overrides(preset_raw(name)))
