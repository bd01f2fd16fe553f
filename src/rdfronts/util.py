"""Small shared helpers: deterministic float formatting, CSV writing, hashing,
checked step counts, and the checked reading of JSON config values."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import MISSING, fields
from typing import Sequence

import numpy as np

from .errors import ValidationError


def fmt(x) -> str:
    """Shortest round-trip decimal form of a float (byte-stable across runs)."""
    return repr(float(x))


def config_hash(config: dict) -> str:
    """First 16 hex digits of the SHA-256 of the canonical JSON encoding."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


CSV_CHUNK_ROWS = 512        # rows formatted per write, so memory stays flat


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell


def _column_cells(column) -> list:
    """The cells of one CSV column as text.

    Strings are written as they are (an error message, an empty cell, an
    integer already turned into text, a column formatted once and written
    many times), quoted as RFC 4180 asks when they hold a comma, a quote or
    a line break; a column of strings none of which needs quotes is checked
    once and written verbatim.  Every other cell is a number and is written
    as ``fmt`` writes it.  A column with no strings is converted once and
    split into runs of consecutive cells with the same bits (-0.0 and 0.0
    differ; NaNs of one payload merge); each run is formatted once with
    ``float.__repr__`` and repeated.
    """
    if not isinstance(column, np.ndarray) and any(isinstance(c, str) for c in column):
        if all(type(c) is str for c in column) and not _NEEDS_QUOTES.search("".join(column)):
            return list(column)
        return [_quoted(c) if isinstance(c, str) else fmt(c) for c in column]
    values = np.asarray(column, dtype=float)
    bits = values.view(np.int64)
    run_starts = np.ones(len(bits), dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=run_starts[1:])
    starts = np.flatnonzero(run_starts)
    cells = np.fromiter(map(float.__repr__, values[starts].tolist()), dtype=object,
                        count=len(starts))
    return np.repeat(cells, np.diff(starts, append=len(bits))).tolist()


def write_csv(path, header: Sequence[str], columns: Sequence[Sequence],
              comments: Sequence[str] = ()) -> None:
    """Write a CSV file of equal-length columns with optional leading '#'
    comment lines.

    Cells are formatted by ``_column_cells``, so identical inputs give
    byte-identical files.
    """
    n_rows = min((len(c) for c in columns), default=0)
    with open(path, "w", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, CSV_CHUNK_ROWS):
            cells = [_column_cells(c[lo:lo + CSV_CHUNK_ROWS]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


# Steps of one fixed-step run.  ode.integrate keeps three float arrays of
# steps + 1 entries, so 2**24 steps hold them at about 0.4 GB.
STEP_CAP = 2 ** 24

# Cells of one grid: an eigen period or Dirichlet interval, a pde domain, a
# stationary cell, and the steps of a CLI lambda grid.
REFINE_CAP = 2 ** 20


def step_count(span: float, dt: float) -> int:
    """int(round(span / dt)), the steps of a run of length span; a quotient
    that is not finite or passes STEP_CAP is rejected before the run."""
    steps = span / dt
    if not steps <= STEP_CAP:                 # inf and nan fail too
        raise ValidationError(f"a run of {span!r} time units at dt={dt!r} takes "
                              f"more than {STEP_CAP} steps")
    return int(round(steps))


# -- JSON config values --------------------------------------------------------
# A reader takes (value, name), checks the value and returns what the program
# uses; its errors name the value.  A schema maps each key of a JSON object to
# (reader, default), with REQUIRED as the default of a key that must be given.

REQUIRED = object()


def read_object(obj, context: str, schema: dict) -> dict:
    """Every value of the JSON object `obj`, read by its schema entry.

    Unknown and missing keys are rejected; an absent optional key takes its
    default as it stands.  A value is named ``{context}.{key}`` in errors.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{context} must be a JSON object")
    unknown = set(obj) - set(schema)
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)} in {context}")
    missing = {key for key, (_, default) in schema.items() if default is REQUIRED} - set(obj)
    if missing:
        raise ValidationError(f"missing keys {sorted(missing)} in {context}")
    return {key: read(obj[key], f"{context}.{key}") if key in obj else default
            for key, (read, default) in schema.items()}


def number(val, name: str) -> float:
    """A JSON number, not a boolean, as a float.  JSON floats are finite once
    loaded, but an integer can lie past the float range."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ValidationError(f"{name} must be a number")
    try:
        return float(val)
    except OverflowError:
        raise ValidationError(f"{name} must be a finite number") from None


def positive(val, name: str) -> float:
    val = number(val, name)
    if not val > 0:
        raise ValidationError(f"{name} must be positive")
    return val


def fraction(val, name: str) -> float:
    """A number in (0, 1]."""
    val = number(val, name)
    if not 0 < val <= 1:
        raise ValidationError(f"{name} must lie in (0, 1]")
    return val


def integer(val, name: str) -> int:
    if not isinstance(val, int) or isinstance(val, bool):
        raise ValidationError(f"{name} must be an integer")
    return val


def string(val, name: str) -> str:
    if not isinstance(val, str):
        raise ValidationError(f"{name} must be a string")
    return val


def list_of(read, nonempty: bool = False):
    """A reader of a JSON list whose every item `read` checks.  The list is
    returned as written, so an integer item stays an integer."""
    def read_list(val, name: str) -> list:
        if not isinstance(val, list) or (nonempty and not val):
            raise ValidationError(f"{name} must be a {'nonempty ' * nonempty}list")
        for i, item in enumerate(val):
            read(item, f"{name}[{i}]")
        return val
    return read_list


_FIELD_READERS = {"float": number, "int": integer, "str": string}


def read_dataclass(cls, context: str):
    """A reader that builds the dataclass `cls` from a JSON object keyed by
    its field names.  A field without a default is required, and each value
    is read by its annotated type (float, int or str); `cls` checks ranges."""
    schema = {f.name: (_FIELD_READERS[f.type], REQUIRED if f.default is MISSING else f.default)
              for f in fields(cls)}
    return lambda val, name: cls(**read_object(val, context, schema))
