"""CSV and key-value data files with embedded provenance.

Every file starts with a ``#`` comment block ("# dlczsim <kind> v1" then
"# key = value" lines) so outputs are self-describing; the payload is a
plain one-header CSV readable by any plotting tool. Writers are
deterministic: no timestamps, fixed float repr, LF newlines.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .engine import CountsTable
from .entanglement import AngleSettings
from .errors import SchemaError

FORMAT_VERSION = "v1"

COUNTS_COLUMNS = ("theta_s_deg", "theta_as_deg", "storage_time_s",
                  "n_pulses", "n_d1", "n_d2", "c13", "c24", "c14", "c23")
DECAY_COLUMNS = ("t_seconds", "R")
DECAY_SIGMA_COLUMN = "sigma_R"


def fmt_value(value) -> str:
    """Deterministic text form: shortest round-trip repr for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _provenance_block(kind: str, provenance: Mapping[str, object]) -> str:
    lines = [f"# dlczsim {kind} {FORMAT_VERSION}"]
    for key, value in provenance.items():
        lines.append(f"# {key} = {fmt_value(value)}")
    return "\n".join(lines) + "\n"


def write_csv(path, kind: str, columns: Sequence[str],
              rows: Iterable[Union[str, Sequence]],
              provenance: Mapping[str, object]) -> None:
    """Write a CSV; a ``str`` item of ``rows`` is pre-rendered text.

    ``rows`` is consumed lazily: each item goes to the open file before the
    next is requested, so a caller's chunks are never all held at once.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(_provenance_block(kind, provenance))
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(row if isinstance(row, str)
                      else ",".join(fmt_value(v) for v in row) + "\n")


def write_kv(path, kind: str, entries: Mapping[str, object],
             provenance: Mapping[str, object]) -> None:
    out = [_provenance_block(kind, provenance)]
    for key, value in entries.items():
        out.append(f"{key} = {fmt_value(value)}\n")
    Path(path).write_text("".join(out), encoding="utf-8", newline="\n")


def _put_pair(target: Dict[str, str], text: str) -> None:
    key, sep, value = text.partition("=")
    if sep:
        target[key.strip()] = value.strip()


def _read_lines(path) -> Tuple[Dict[str, str], List[Tuple[int, str]]]:
    """Provenance from ``# key = value`` comments, then every other
    non-blank line with its 1-based line number."""
    provenance: Dict[str, str] = {}
    body: List[Tuple[int, str]] = []
    for lineno, raw in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            _put_pair(provenance, line[1:])
        elif line:
            body.append((lineno, line))
    return provenance, body


def read_kv(path) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Read a kv file, returning (entries, provenance)."""
    provenance, body = _read_lines(path)
    entries: Dict[str, str] = {}
    for _, line in body:
        _put_pair(entries, line)
    return entries, provenance


def _read_rows(path) -> Tuple[List[str], List[Tuple[int, List[str]]],
                              Dict[str, str]]:
    """Header cells, (line number, cells) of each data row, provenance."""
    provenance, body = _read_lines(path)
    if not body:
        raise SchemaError(f"{path}: no header row found")
    rows = [(n, [c.strip() for c in line.split(",")]) for n, line in body]
    return rows[0][1], rows[1:], provenance


def _column_map(path, header: Sequence[str], required: Sequence[str],
                optional: Sequence[str] = ()) -> Dict[str, int]:
    for column in required:
        if column not in header:
            raise SchemaError(f"{path}: missing column {column!r}")
    allowed = set(required) | set(optional)
    for column in header:
        if column not in allowed:
            raise SchemaError(f"{path}: unexpected column {column!r}")
        if header.count(column) > 1:
            raise SchemaError(f"{path}: duplicate column {column!r}")
    return {column: header.index(column) for column in header}


def _parse_float(path, lineno, column, text) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(
            f"{path}: line {lineno}, column {column!r}: {text!r} "
            "is not a number")
    if math.isnan(value):
        raise SchemaError(
            f"{path}: line {lineno}, column {column!r}: NaN not allowed")
    return value


def _parse_int(path, lineno, column, text) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise SchemaError(
            f"{path}: line {lineno}, column {column!r}: {text!r} "
            "is not an integer")


def _degrees(theta: float) -> float:
    """``theta`` in degrees, read back as exactly ``theta``: of
    math.degrees(theta) and its two neighbours, the first whose
    math.radians is ``theta`` (one exists for every angle made by
    ``AngleSettings.from_degrees``)."""
    deg = math.degrees(theta)
    for candidate in (deg, math.nextafter(deg, math.inf),
                      math.nextafter(deg, -math.inf)):
        if math.radians(candidate) == theta:
            return candidate
    return deg


def write_counts_csv(path, tables: Sequence[CountsTable],
                     provenance: Mapping[str, object]) -> None:
    rows = []
    for tb in tables:
        rows.append((_degrees(tb.settings.theta_s),
                     _degrees(tb.settings.theta_as),
                     tb.storage_time, tb.n_pulses, tb.n_d1, tb.n_d2,
                     tb.c13, tb.c24, tb.c14, tb.c23))
    write_csv(path, "counts", COUNTS_COLUMNS, rows, provenance)


def read_counts_csv(path) -> Tuple[List[CountsTable], Dict[str, str]]:
    header, rows, provenance = _read_rows(path)
    col = _column_map(path, header, COUNTS_COLUMNS)
    tables = []
    for lineno, row in rows:
        if len(row) != len(header):
            raise SchemaError(
                f"{path}: line {lineno}: expected {len(header)} fields, "
                f"got {len(row)}")

        def fval(name):
            return _parse_float(path, lineno, name, row[col[name]])

        def ival(name):
            return _parse_int(path, lineno, name, row[col[name]])

        try:
            tables.append(CountsTable(
                settings=AngleSettings.from_degrees(
                    fval("theta_s_deg"), fval("theta_as_deg")),
                storage_time=fval("storage_time_s"),
                n_pulses=ival("n_pulses"),
                n_d1=ival("n_d1"), n_d2=ival("n_d2"),
                c13=ival("c13"), c24=ival("c24"),
                c14=ival("c14"), c23=ival("c23")))
        except ValueError as exc:
            raise SchemaError(f"{path}: line {lineno}: {exc}") from exc
    return tables, provenance


def read_decay_csv(path) -> List[Tuple[float, ...]]:
    """Read (t_seconds, R[, sigma_R]) samples for the decay fit."""
    header, rows, _ = _read_rows(path)
    col = _column_map(path, header, DECAY_COLUMNS,
                      optional=(DECAY_SIGMA_COLUMN,))
    with_sigma = DECAY_SIGMA_COLUMN in col
    samples: List[Tuple[float, ...]] = []
    for lineno, row in rows:
        if len(row) != len(header):
            raise SchemaError(
                f"{path}: line {lineno}: expected {len(header)} fields, "
                f"got {len(row)}")
        t = _parse_float(path, lineno, "t_seconds", row[col["t_seconds"]])
        r = _parse_float(path, lineno, "R", row[col["R"]])
        if with_sigma:
            sigma = _parse_float(path, lineno, DECAY_SIGMA_COLUMN,
                                 row[col[DECAY_SIGMA_COLUMN]])
            samples.append((t, r, sigma))
        else:
            samples.append((t, r))
    return samples
