"""CSV and key-value data files with embedded provenance.

Every file starts with a ``#`` comment block ("# dlczsim <kind> v1" then
"# key = value" lines) so outputs are self-describing; the payload is a
plain one-header CSV readable by any plotting tool. Writers are
deterministic: no timestamps, fixed float repr, LF newlines. Readers take
the provenance and numbered lines from :func:`errors.read_lines`.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

from .engine import TrialRecord
from .entanglement import AngleSettings
from .errors import SchemaError, read_lines
from .params import CountsTable

FORMAT_VERSION = "v1"

# Column -> type of each input CSV, in parse order (for the counts, the
# order of CountsTable's fields).
COUNTS_KINDS = dict(theta_s_deg=float, theta_as_deg=float,
                    storage_time_s=float,
                    **dict.fromkeys(CountsTable._fields[2:], int))
COUNTS_COLUMNS = tuple(COUNTS_KINDS)
DECAY_COLUMNS = ("t_seconds", "R")
DECAY_SIGMA_COLUMN = "sigma_R"
DECAY_KINDS = dict.fromkeys(DECAY_COLUMNS + (DECAY_SIGMA_COLUMN,), float)
RECORDS_LIMIT = 1_000_000  # per-trial CSVs above this are refused
RECORDS_CHUNK = 1 << 14  # trials rendered per text chunk of a records CSV


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


def read_kv(path) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Read a kv file, returning (entries, provenance)."""
    provenance, body = read_lines(path, SchemaError)
    pairs = (line.partition("=") for _, line in body)
    return ({key.strip(): value.strip() for key, sep, value in pairs if sep},
            provenance)


_NOT_A = {float: "a number", int: "an integer"}


def _read_rows(path, kinds: Mapping[str, type], optional: Sequence[str] = (),
               digest=None
               ) -> Tuple[Dict[str, str], Iterable[Tuple[int, dict]]]:
    """Provenance, and per data row (line number, {column: value}) parsed
    in ``kinds`` order by each column's type; a float must be finite.
    Header faults raise at once: missing columns (all of ``kinds`` but
    ``optional`` are required), then unexpected or duplicate ones in
    header order. Rows are checked as they are consumed. ``digest`` is
    passed to :func:`errors.read_lines`."""
    provenance, body = read_lines(path, SchemaError, digest)
    if not body:
        raise SchemaError(f"{path}: no header row found")
    header = [c.strip() for c in body[0][1].split(",")]
    for column in kinds:
        if column not in header and column not in optional:
            raise SchemaError(f"{path}: missing column {column!r}")
    for column in header:
        if column not in kinds:
            raise SchemaError(f"{path}: unexpected column {column!r}")
        if header.count(column) > 1:
            raise SchemaError(f"{path}: duplicate column {column!r}")
    present = [(c, kinds[c], header.index(c)) for c in kinds if c in header]

    def rows():
        for lineno, line in body[1:]:
            cells = [c.strip() for c in line.split(",")]
            if len(cells) != len(header):
                raise SchemaError(f"{path}: line {lineno}: expected "
                                  f"{len(header)} fields, got {len(cells)}")
            values = {}
            for column, kind, i in present:
                try:
                    values[column] = kind(cells[i])
                except ValueError:
                    fault = _NOT_A[kind]
                else:
                    if kind is int or math.isfinite(values[column]):
                        continue
                    fault = "finite"
                raise SchemaError(f"{path}: line {lineno}, column "
                                  f"{column!r}: {cells[i]!r} is not {fault}")
            yield lineno, values
    return provenance, rows()


def write_counts_csv(path, tables: Sequence[CountsTable],
                     provenance: Mapping[str, object]) -> None:
    rows = [(*tb.settings.degrees, *tb._values()[1:]) for tb in tables]
    write_csv(path, "counts", COUNTS_COLUMNS, rows, provenance)


def write_records_csv(path, outcomes, blocks,
                      provenance: Mapping[str, object]) -> None:
    """Per-trial CSV of :func:`engine.trial_outcome_blocks`' ``outcomes``
    and ``blocks``: row k after the header is trial k. Each outcome's row
    is rendered once into a NUL-padded fixed-width byte table, and each
    chunk of at most ``RECORDS_CHUNK`` trials gathers its rows from it."""
    records = (TrialRecord.from_outcome(0, 0.0, o) for o in outcomes)
    table = np.array([",".join((
        r.stokes_click or "none", r.antistokes_click or "none",
        fmt_value(r.pair_created))).encode("ascii") + b"\n" for r in records])

    def chunks():
        for _, trials in blocks:
            for lo in range(0, len(trials), RECORDS_CHUNK):
                rows = table.take(trials[lo:lo + RECORDS_CHUNK]).tobytes()
                yield rows.replace(b"\0", b"").decode("ascii")

    write_csv(path, "trials",
              ("stokes_click", "antistokes_click", "pair_created"), chunks(),
              provenance)


def read_counts_csv(path, digest=None
                    ) -> Tuple[List[CountsTable], Dict[str, str]]:
    """Counts tables and provenance of a counts CSV; ``digest`` (a hashlib
    object), if given, is updated with the bytes parsed."""
    provenance, rows = _read_rows(path, COUNTS_KINDS, digest=digest)
    tables = []
    for lineno, values in rows:
        theta_s, theta_as, storage_time, *counts = values.values()
        try:
            tables.append(CountsTable(
                AngleSettings.from_degrees(theta_s, theta_as), storage_time,
                *counts))
        except ValueError as exc:
            raise SchemaError(f"{path}: line {lineno}: {exc}") from exc
    return tables, provenance


def read_decay_csv(path) -> List[Tuple[float, ...]]:
    """Read (t_seconds, R[, sigma_R]) samples for the decay fit."""
    _, rows = _read_rows(path, DECAY_KINDS, optional=(DECAY_SIGMA_COLUMN,))
    return [tuple(values.values()) for _, values in rows]
