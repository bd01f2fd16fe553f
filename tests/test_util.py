"""CSV writing, byte-for-byte the per-cell formatter it replaced, with
quoted text cells, and the checked step count of fixed-step runs."""

import csv
import math

import numpy as np
import pytest

from rdfronts import util
from rdfronts.errors import ValidationError


def per_cell_csv(path, header, rows, comments=()):
    """The CSV writer as first written, every cell formatted on its own, with
    text quoted as RFC 4180 asks."""
    def text(cell):
        if any(c in cell for c in ',"\r\n'):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    with open(path, "w", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [text(c) if isinstance(c, str) else repr(float(c)) for c in row]
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


def test_write_csv_runs_match_per_cell_formatting(tmp_path):
    # columns of repeated cells; a run is formatted once and repeated
    chunk = util.CSV_CHUNK_ROWS
    n = 3 * chunk + 5
    crossing = np.repeat([0.25, 1.0 / 3.0, -2.0, 7.0],
                         [chunk - 12, chunk + 40, chunk - 40, n - 3 * chunk + 12])
    single = np.full(n, 0.5)
    single[[chunk - 1, 2 * chunk - 1, n - 1]] = [0.75, -0.5, 1e-300]   # runs of 1 at chunk ends
    special = np.repeat([math.nan, math.inf, -math.inf, 5e-324, 1e-310, math.nan, 0.0],
                        [chunk + 3, 200, 7, 300, chunk, 1, n - 2 * chunk - 511])
    zeros = np.zeros(n)
    zeros[1::2] = -0.0                       # -0.0 == 0.0, but its cell is "-0.0"
    zeros[chunk:chunk + 100] = -0.0
    text = ["0.5"] * n
    text[chunk + 9:chunk + 30] = ["1.5"] * 21
    text[2 * chunk + 4] = 'a "quoted", cell'
    columns = (crossing, single, special, zeros, text, tuple(zeros.tolist()))
    header = ("a", "b", "c", "d", "e", "f")
    util.write_csv(tmp_path / "new.csv", header, columns, ["config_hash=0123"])
    per_cell_csv(tmp_path / "old.csv", header, zip(*columns), ["config_hash=0123"])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_without_rows(tmp_path):
    util.write_csv(tmp_path / "empty.csv", ("x", "y"), ([], np.array([])), ["c"])
    assert (tmp_path / "empty.csv").read_text() == "# c\nx,y\n"


def test_write_csv_quotes_text_cells_with_separators(tmp_path):
    # RFC 4180: a text cell with a comma, a quote or a line break is quoted,
    # its quotes doubled; numbers and plain text are written as they are
    texts = ["root search hit its cap of 60 steps; bracket [1, 2]", 'say "no"',
             "two\nlines", "plain", ""]
    util.write_csv(tmp_path / "t.csv", ("epsilon", "error"), ([0.5] * 5, texts))
    with open(tmp_path / "t.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["epsilon", "error"]] + [["0.5", t] for t in texts]
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[1] == '0.5,"root search hit its cap of 60 steps; bracket [1, 2]"'
    assert lines[2] == '0.5,"say ""no"""' and lines[5:] == ["0.5,plain", "0.5,"]


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
