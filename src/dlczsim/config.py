"""Flat key-value configuration files with dotted section names.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored. Unknown keys are hard errors; a silent typo in a physics parameter
is worse than a rejected file.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from .errors import ConfigError
from .params import (CycleTiming, DecayParams, DetectionChain,
                     EnsembleGeometry, ExperimentParams)
from .repeater import RepeaterParams

# Zero-delay visibility calibration: the value implied by a CHSH parameter
# of 2.5 through V = S / (2 sqrt 2).
DEFAULT_VISIBILITY = 2.5 / (2.0 * math.sqrt(2.0))

_FLOAT, _INT, _BOOL, _STR = "float", "int", "bool", "str"

# key -> (type, required within its section)
_SCHEMA: Dict[str, Dict[str, tuple]] = {
    "experiment": {
        "chi": (_FLOAT, True),
        "noise_b": (_FLOAT, True),
        "noise_c": (_FLOAT, True),
        "eta_s": (_FLOAT, False),  # defaults to eta_as
        "eta_as": (_FLOAT, True),
        "visibility": (_FLOAT, False),
        "phase": (_FLOAT, False),
    },
    "decay": {
        "r0": (_FLOAT, True),
        "tau0": (_FLOAT, True),
    },
    "chain": {
        "t_oc": (_FLOAT, True),
        "cavity_loss": (_FLOAT, True),
        "eta_smf": (_FLOAT, True),
        "eta_filter": (_FLOAT, True),
        "eta_mmf": (_FLOAT, True),
        "eta_d": (_FLOAT, True),
    },
    "geometry": {
        "wavelength": (_FLOAT, True),
        "temperature": (_FLOAT, True),
        "atomic_mass": (_FLOAT, True),
        "bd_separation": (_FLOAT, True),
        "f_btd": (_FLOAT, True),
        "f0": (_FLOAT, True),
    },
    "timing": {
        "prep_duration": (_FLOAT, True),
        "run_duration": (_FLOAT, True),
        "trial_period": (_FLOAT, True),
        "write_duration": (_FLOAT, False),
        "read_duration": (_FLOAT, False),
        "clean_duration": (_FLOAT, False),
        "interval": (_FLOAT, False),
    },
    "engine": {
        "double_pair": (_BOOL, False),
    },
    "repeater": {
        "nest_level": (_INT, True),
        "modes": (_INT, True),
        "distance": (_FLOAT, True),
        "attenuation_length": (_FLOAT, True),
        "fiber_speed": (_FLOAT, True),
        "chi": (_FLOAT, True),
        "eta_fc": (_FLOAT, True),
        "eta_td": (_FLOAT, True),
        "r0": (_FLOAT, True),
        "tau0": (_FLOAT, True),
        "link_divisor": (_STR, False),
    },
}


@dataclass(frozen=True)
class Config:
    """Parsed configuration; sections absent from the file are None."""

    path: str
    config_hash: str
    experiment: Optional[ExperimentParams]
    chain: Optional[DetectionChain]
    geometry: Optional[EnsembleGeometry]
    timing: Optional[CycleTiming]
    repeater: Optional[RepeaterParams]
    double_pair: bool


def parse_kv_lines(text: str) -> Dict[str, str]:
    """Parse ``key = value`` lines, rejecting malformed or duplicate keys."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _convert(key: str, value: str, kind: str):
    try:
        if kind == _FLOAT:
            return float(value)
        if kind == _INT:
            return int(value, 10)
        if kind == _BOOL:
            low = value.lower()
            if low in ("true", "false"):
                return low == "true"
            raise ValueError(value)
        return value
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as {kind}")


def _split_sections(raw: Dict[str, str]):
    sections: Dict[str, Dict[str, object]] = {}
    loss_items: Dict[str, float] = {}
    for key, value in raw.items():
        if key.startswith("chain.loss."):
            name = key[len("chain.loss."):]
            if not name:
                raise ConfigError(f"unknown key {key!r}")
            loss_items[name] = _convert(key, value, _FLOAT)
            continue
        section, _, field = key.partition(".")
        if section not in _SCHEMA or field not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r}")
        kind, _required = _SCHEMA[section][field]
        sections.setdefault(section, {})[field] = _convert(key, value, kind)
    if loss_items:
        sections.setdefault("chain", {})["loss_items"] = loss_items
    for section, fields in sections.items():
        for field, (kind, required) in _SCHEMA[section].items():
            if required and field not in fields:
                raise ConfigError(
                    f"section {section!r} is missing required key "
                    f"'{section}.{field}'")
    return sections


def load_config(path) -> Config:
    """Load, hash and validate a configuration file."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    digest = "sha256:" + hashlib.sha256(data).hexdigest()
    raw = parse_kv_lines(data.decode("utf-8"))
    sections = _split_sections(raw)

    def build(section, factory):
        fields = sections.get(section)
        if fields is None:
            return None
        try:
            return factory(**fields)
        except ValueError as exc:
            raise ConfigError(f"section {section!r}: {exc}") from exc

    if "experiment" in sections and "decay" not in sections:
        raise ConfigError("section 'experiment' requires section 'decay'")
    decay = build("decay", DecayParams)  # validated even when unused

    def experiment(eta_as, eta_s=None, visibility=DEFAULT_VISIBILITY,
                   phase=0.0, **fields):
        return ExperimentParams(eta_s=eta_as if eta_s is None else eta_s,
                                eta_as=eta_as, v0=visibility, phase=phase,
                                decay=decay, **fields)

    engine = sections.get("engine", {})
    return Config(
        path=str(path),
        config_hash=digest,
        experiment=build("experiment", experiment),
        chain=build("chain", DetectionChain),
        geometry=build("geometry", EnsembleGeometry),
        timing=build("timing", CycleTiming),
        repeater=build("repeater", RepeaterParams),
        double_pair=bool(engine.get("double_pair", False)),
    )
