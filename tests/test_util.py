"""CSV writing: byte-for-byte the per-cell formatter it replaced."""

import math

import numpy as np

from rdfronts import util


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
