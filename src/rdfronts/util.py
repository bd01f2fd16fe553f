"""Small shared helpers: deterministic float formatting, CSV writing, hashing."""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

import numpy as np


def fmt(x) -> str:
    """Shortest round-trip decimal form of a float (byte-stable across runs)."""
    return repr(float(x))


def config_hash(config: dict) -> str:
    """First 16 hex digits of the SHA-256 of the canonical JSON encoding."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


CSV_CHUNK_ROWS = 512        # rows formatted per write, so memory stays flat


def _column_cells(column) -> list:
    """The cells of one CSV column as text.

    Strings are written verbatim (an error message, an empty cell, an
    integer already turned into text); every other cell is a number and is
    written as ``fmt`` writes it.  A column with no strings is converted
    once and formatted with ``float.__repr__`` over its Python floats.
    """
    if not isinstance(column, np.ndarray) and any(isinstance(c, str) for c in column):
        return [c if isinstance(c, str) else fmt(c) for c in column]
    return list(map(float.__repr__, np.asarray(column, dtype=float).tolist()))


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
