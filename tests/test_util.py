"""CSV writing, byte-for-byte the per-cell formatter it replaced, and the
checked step count of fixed-step runs."""

import math

import numpy as np
import pytest

from rdfronts import util
from rdfronts.errors import ValidationError


def per_cell_csv(path, header, rows, comments=()):
    """The CSV writer as first written: every cell formatted on its own."""
    with open(path, "w", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [c if isinstance(c, str) else repr(float(c)) for c in row]
            fh.write(",".join(cells) + "\n")


ODD_NUMBERS = [1.5, 3, np.int64(-7), math.nan, math.inf, -math.inf, -0.0, 5e-324,
               1e308, np.float64(0.1), 2 ** 53 + 1, 1.0 / 3.0]


def test_write_csv_matches_per_cell_formatting(tmp_path):
    n = 2 * util.CSV_CHUNK_ROWS + 17            # three chunks, the last one short
    rng = np.random.default_rng(3)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    odd = [ODD_NUMBERS[i % len(ODD_NUMBERS)] for i in range(n)]
    mixed = ["" if i % 5 == 0 else f"ValidationError: row {i}" if i % 7 == 0
             else str(i) if i % 11 == 0 else ODD_NUMBERS[i % len(ODD_NUMBERS)]
             for i in range(n)]
    mixed[util.CSV_CHUNK_ROWS:2 * util.CSV_CHUNK_ROWS] = odd[:util.CSV_CHUNK_ROWS]
    ints = np.arange(n, dtype=np.int64)
    columns = (floats, odd, mixed, ints, tuple(floats.tolist()))
    header = ("a", "b", "c", "d", "e")
    comments = ["config_hash=0123", "t=1.0"]
    util.write_csv(tmp_path / "new.csv", header, columns, comments)
    per_cell_csv(tmp_path / "old.csv", header, zip(*columns), comments)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_without_rows(tmp_path):
    util.write_csv(tmp_path / "empty.csv", ("x", "y"), ([], np.array([])), ["c"])
    assert (tmp_path / "empty.csv").read_text() == "# c\nx,y\n"


@pytest.mark.parametrize("span, dt, steps", [(100.0, 0.01, 10 ** 4), (200.0, 1e-3, 200000),
                                             (1.0, 0.3, 3), (0.1, 1.0, 0),
                                             (float(util.STEP_CAP), 1.0, util.STEP_CAP)])
def test_step_count_is_the_rounded_quotient(span, dt, steps):
    count = util.step_count(span, dt)
    assert count == steps == int(round(span / dt)) and isinstance(count, int)


@pytest.mark.parametrize("span, dt", [(1e300, 1e-10), (1e9, 1e-3),
                                      (util.STEP_CAP + 1.0, 1.0), (math.inf, 1.0),
                                      (math.nan, 1.0)])
def test_step_count_rejects_an_overflowing_or_huge_quotient(span, dt):
    with pytest.raises(ValidationError, match="steps"):
        util.step_count(span, dt)
