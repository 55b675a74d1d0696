"""Flat key-value configuration files with dotted section names.

Format: UTF-8 text (a leading byte-order mark is dropped) read by
:func:`errors.read_lines`, one ``section.key = value`` per line, ``#``
comments, blank lines ignored. A section's keys are the parameters of the
class that builds it (``_BUILDERS``) annotated ``float``, ``int``, ``bool``
or ``str``; those without a default are required. Unknown keys are hard
errors; a silent typo in a physics parameter is worse than a rejected file.
"""

from __future__ import annotations

import hashlib
import inspect
from pathlib import Path
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from .errors import ConfigError, read_lines
from .params import (CycleTiming, DecayParams, DetectionChain,
                     EnsembleGeometry, ExperimentParams)
from .repeater import RepeaterParams


def _engine(double_pair: bool = False) -> bool:
    return double_pair


_BUILDERS = {"experiment": ExperimentParams, "decay": DecayParams,
             "chain": DetectionChain, "geometry": EnsembleGeometry,
             "timing": CycleTiming, "engine": _engine,
             "repeater": RepeaterParams}

# section -> key -> (type, required), read from the builder's signature
_KEYS: Dict[str, Dict[str, tuple]] = {
    section: {name: (param.annotation, param.default is param.empty)
              for name, param in inspect.signature(build).parameters.items()
              if param.annotation in ("float", "int", "bool", "str")}
    for section, build in _BUILDERS.items()}


class Config(NamedTuple):
    """Parsed configuration; sections absent from the file are None."""

    config_hash: str
    experiment: Optional[ExperimentParams]
    chain: Optional[DetectionChain]
    geometry: Optional[EnsembleGeometry]
    timing: Optional[CycleTiming]
    repeater: Optional[RepeaterParams]
    double_pair: bool


def parse_kv_lines(lines: Iterable[Tuple[int, str]]) -> Dict[str, str]:
    """Parse numbered ``key = value`` lines, as :func:`errors.read_lines`
    gives them, rejecting malformed or duplicate keys."""
    out: Dict[str, str] = {}
    for lineno, line in lines:
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
        if kind == "float":
            return float(value)
        if kind == "int":
            return int(value, 10)
        if kind == "bool":
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
            loss_items[name] = _convert(key, value, "float")
            continue
        section, _, field = key.partition(".")
        if field not in _KEYS.get(section, ()):
            raise ConfigError(f"unknown key {key!r}")
        sections.setdefault(section, {})[field] = _convert(
            key, value, _KEYS[section][field][0])
    if loss_items:
        sections.setdefault("chain", {})["loss_items"] = loss_items
    for section, fields in sections.items():
        for field, (kind, required) in _KEYS[section].items():
            if required and field not in fields:
                raise ConfigError(
                    f"section {section!r} is missing required key "
                    f"'{section}.{field}'")
    return sections


def _build(sections, section: str, **context):
    """The section's object from its keys, or None when the file has none."""
    fields = sections.get(section)
    if fields is None:
        return None
    try:
        return _BUILDERS[section](**context, **fields)
    except ValueError as exc:
        raise ConfigError(f"section {section!r}: {exc}") from exc


def load_config(path) -> Config:
    """Load, hash and validate a configuration file."""
    path, digest = Path(path), hashlib.sha256()
    try:
        _, lines = read_lines(path, ConfigError, digest)
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    sections = _split_sections(parse_kv_lines(lines))
    if "experiment" in sections and "decay" not in sections:
        raise ConfigError("section 'experiment' requires section 'decay'")
    decay = _build(sections, "decay")  # validated even when unused
    return Config(
        config_hash="sha256:" + digest.hexdigest(),
        experiment=_build(sections, "experiment", decay=decay),
        chain=_build(sections, "chain"),
        geometry=_build(sections, "geometry"),
        timing=_build(sections, "timing"),
        repeater=_build(sections, "repeater"),
        double_pair=bool(_build(sections, "engine")),
    )
