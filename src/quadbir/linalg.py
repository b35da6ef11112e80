"""Small exact linear algebra over the rationals on sparse rows.

A row (or vector) is a dict {column: value}; absent columns are zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

Row = dict[int, Fraction]


def _subtract(row: Row, f: Fraction, other: Row) -> None:
    """row -= f * other, in place, dropping the entries that cancel."""
    for k, v in other.items():
        w = row.get(k, 0) - f * v
        if w:
            row[k] = w
        else:
            del row[k]


def echelon(rows: Iterable[dict]) -> dict:
    """Forward elimination of a stream of rows: {pivot column: row}.

    Each row is reduced by the rows kept so far; unless it reduces to zero,
    it is kept, scaled to a leading 1 at its smallest column (its pivot).
    Columns may be any totally ordered keys, such as exponent tuples.  The
    kept rows span the same space as the input rows.
    """
    echelon: dict = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            c = min(row)
            pivot = echelon.get(c)
            if pivot is None:
                inv = 1 / row[c]
                echelon[c] = {k: v * inv for k, v in row.items()}
                break
            _subtract(row, row[c], pivot)
    return echelon


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    The rows come ordered by pivot, each with its entries in column order.
    """
    reduced = echelon(rows)
    pivots = sorted(reduced)
    # back substitution, last pivot first, so each row used is already reduced
    for c in reversed(pivots):
        row = reduced[c]
        for k in [k for k in row if k != c and k in reduced]:
            _subtract(row, row[k], reduced[k])
    return [dict(sorted(reduced[c].items())) for c in pivots], pivots


def kernel_basis(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of the right kernel {v : A v = 0} of a matrix with ncols columns.

    One vector per free column f, in column order: 1 at f, 0 at the other
    free columns, entries in column order.
    """
    echelon, pivots = rref(rows)
    basis: dict[int, Row] = {f: {} for f in range(ncols)}
    for c in pivots:
        del basis[c]
    # a reduced row is nonzero only at its pivot and at free columns
    for c, row in zip(pivots, echelon):
        for f, x in row.items():
            if f != c:
                basis[f][c] = -x
    for f, v in basis.items():
        v[f] = Fraction(1)
    return list(basis.values())
