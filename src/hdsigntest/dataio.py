"""Reading and writing observation matrices as CSV.

One observation per row, comma-separated decimals, in UTF-8 with an
optional byte-order mark.  A single header line is tolerated on input and
detected by a non-numeric first row.  Output uses repr serialization (17
significant digits), so a written matrix reads back bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import DataFileError
from .statistics import as_matrix


def parse_matrix_csv(text: str, source: str = "input") -> np.ndarray:
    """Parse CSV text into an observation matrix.

    A leading byte-order mark is dropped, so it cannot make the first row
    look like a header.  Errors carry 1-based row/column context, counted
    after any header.
    """
    lines = [line for line in text.removeprefix("\ufeff").splitlines() if line.strip() != ""]
    if not lines:
        raise DataFileError(f"{source}: file contains no data rows")

    start = 0
    try:
        [float(cell) for cell in lines[0].split(",")]
    except ValueError:
        start = 1
        if len(lines) == 1:
            raise DataFileError(f"{source}: only a header line, no data rows")

    rows = lines[start:]
    try:
        # One C-level pass over every cell; it accepts a subset of what
        # float() does and parses it to the same double, and it refuses
        # rows of unequal width.
        matrix = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        matrix = _slow_parse(rows, source)
    if not np.isfinite(matrix).all():
        bad = np.argwhere(~np.isfinite(matrix))[0]
        raise DataFileError(
            f"{source}: row {int(bad[0]) + 1}, column {int(bad[1]) + 1}: "
            "non-finite value"
        )
    return matrix


def _slow_parse(rows: list, source: str) -> np.ndarray:
    """The matrix of ``rows``, or a DataFileError naming the first row of
    the wrong width, else the first cell that does not convert: the slow
    path that runs only once the rows have failed to parse as a whole."""
    width = rows[0].count(",") + 1
    for rownum, line in enumerate(rows, start=1):
        if line.count(",") + 1 != width:
            raise DataFileError(
                f"{source}: row {rownum}: expected {width} fields, "
                f"found {line.count(',') + 1}"
            )
    return np.array([
        [_cell_value(cell, source, rownum, colnum)
         for colnum, cell in enumerate(line.split(","), start=1)]
        for rownum, line in enumerate(rows, start=1)
    ])


def _cell_value(cell: str, source: str, rownum: int, colnum: int) -> float:
    """float(cell), or a DataFileError naming the cell: the slow path that
    runs only once the cells have failed to convert as a whole."""
    try:
        return float(cell)
    except ValueError:
        raise DataFileError(
            f"{source}: row {rownum}, column {colnum}: "
            f"non-numeric value {cell.strip()!r}"
        ) from None


def read_matrix_csv(path) -> np.ndarray:
    """The observation matrix of the CSV file at ``path``.  The bytes are
    decoded as UTF-8 in one piece, so an undecodable byte is named by its
    offset from the start of the file; a byte-order mark is left to
    ``parse_matrix_csv``."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise DataFileError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFileError(
            f"{path}: byte offset {exc.start}: not UTF-8 text ({exc.reason})"
        ) from None
    del data  # so that parsing holds the text alone
    return parse_matrix_csv(text, source=str(path))


def matrix_to_csv(matrix) -> str:
    matrix = as_matrix(matrix)
    return "\n".join(",".join(repr(float(v)) for v in row) for row in matrix) + "\n"


def write_matrix_csv(matrix, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(matrix_to_csv(matrix))
