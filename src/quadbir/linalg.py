"""Small exact linear algebra over the rationals on sparse rows.

A row (or vector) is a dict {column: value}; absent columns are zero.
Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): each row's
denominators are cleared, rows are combined by cross-multiplication, and
every combination is divided by its content.  `echelon` returns these
primitive integer rows; `rref` and `kernel_basis` return `Fraction` rows,
scaled to a leading 1.  The content and denominator helpers here also
serve the Groebner kernel and `Poly`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Iterator

Row = dict[int, Fraction]


def content(*rows: dict) -> int:
    """The gcd of all entries of the integer rows; 0 if they are all empty."""
    return gcd(*chain.from_iterable(map(dict.values, rows)))


def primitive(row: dict) -> dict:
    """An integer row divided by its content, signs kept."""
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def integral(row: dict) -> dict:
    """The primitive integer row that is a positive multiple of a rational row."""
    den = lcm(*(v.denominator for v in row.values()))
    return primitive({k: v.numerator * (den // v.denominator) for k, v in row.items()})


def cofactors(c: int, lead: int) -> tuple[int, int]:
    """The smallest (a, b) with a*c == b*lead, a of the sign of lead: a row
    with c where a pivot row has lead loses that entry as a*row - b*pivot."""
    g = gcd(c, lead)
    return lead // g, c // g


def _eliminate(row: dict, c, pivot: dict) -> dict:
    """The primitive integer row a*row - b*pivot that is zero at column c.
    Consumes row."""
    a, b = cofactors(row[c], pivot[c])
    if a != 1:
        row = {k: a * v for k, v in row.items()}
    for k, v in pivot.items():
        w = row.get(k, 0) - b * v
        if w:
            row[k] = w
        else:
            del row[k]
    return primitive(row)


def echelon(rows: Iterable[dict]) -> dict:
    """Forward elimination of a stream of rows, one at a time: {pivot: row}.

    Each row is cleared of denominators and reduced by the rows kept so
    far; unless it reduces to zero, it is kept under its smallest column
    (its pivot).  Columns may be any totally ordered keys, such as exponent
    tuples.  The kept rows are primitive integer rows, nonzero at their
    pivots, and span the same space as the input rows.
    """
    kept: dict = {}
    for row in rows:
        row = integral({c: v for c, v in row.items() if v})
        while row:
            c = min(row)
            pivot = kept.get(c)
            if pivot is None:
                kept[c] = row
                break
            row = _eliminate(row, c, pivot)
    return kept


def _back_substitute(kept: dict) -> Iterator[Row]:
    """The rows of `rref`, from an `echelon` result that it consumes: each
    integer row is popped as its monic `Fraction` row is made."""
    pivots = sorted(kept)
    # back substitution, last pivot first, so each row used is already reduced
    for c in reversed(pivots):
        row = kept[c]
        for k in [k for k in row if k != c and k in kept]:
            row = _eliminate(row, k, kept[k])
        kept[c] = row
    for c in pivots:
        row = kept.pop(c)
        yield {k: Fraction(v, row[c]) for k, v in sorted(row.items())}


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    The rows come ordered by pivot, monic, with entries in column order.
    """
    reduced = echelon(rows)
    pivots = sorted(reduced)
    return list(_back_substitute(reduced)), pivots


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
