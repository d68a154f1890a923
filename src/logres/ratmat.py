"""Exact rank computation for dense rational matrices.

`rank` is the dense oracle: plain Gauss-Jordan elimination over `Fraction`
with "first nonzero in column" pivoting.  `residues` uses it on residue
matrices (c-1 rows), and the tests check the per-block rank of
`logconn.connection_rank` against it.  Connection matrices are block
diagonal with one row per block, so `connection_rank` reads the blocks and
never builds the matrix; the dense matrix exists only for `rank --matrix`,
which prints it with `to_text`, and for the tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from typing import Sequence

Matrix = Sequence[Sequence[Fraction]]


def rank(matrix: Matrix) -> int:
    """Exact rank by Gauss-Jordan elimination."""
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def to_text(matrix: Matrix) -> str:
    """Dense exact text format: one row per line, entries as p/q.

    Entries must be Fractions or ints, whose ``str`` is already p/q.  Only
    the nonzero entries are passed to ``str``: each run of zeros before one
    is written in one step, as is the run after the last."""
    return "\n".join(map(_row_text, matrix))


def _row_text(row: Sequence[Fraction]) -> str:
    pieces, last = [], -1  # each entry is written with the space after it
    for i in compress(count(), row):
        pieces.append("0 " * (i - last - 1) + str(row[i]) + " ")
        last = i
    pieces.append("0 " * (len(row) - 1 - last))
    return "".join(pieces)[:-1]
