import random
from fractions import Fraction

import pytest

from quadbir.linalg import cofactors, content, echelon, integral, kernel_basis, primitive, rref


def _random_matrix(seed, big=False):
    """Sparse rational rows over ncols columns, with zero rows, repeated rows
    and combinations of earlier rows mixed in (so often rank-deficient).
    With `big`, fresh entries have numerators and denominators up to 10^20,
    so elimination has large contents to divide out."""
    rng = random.Random(seed)
    if big:
        entry = lambda: Fraction(
            rng.randint(1, 10**20) * rng.choice([-1, 1]), rng.randint(1, 10**20)
        )
    else:
        entry = lambda: Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), rng.randint(1, 4))
    ncols = rng.randint(1, 9)
    rows = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.25 and rows:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.45 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            s, t = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 3), rng.randint(1, 4))
            combo = {c: s * a.get(c, 0) + t * b.get(c, 0) for c in set(a) | set(b)}
            rows.append({c: combo[c] for c in sorted(combo) if combo[c]})
        else:
            cols = sorted(rng.sample(range(ncols), rng.randint(1, min(ncols, 4))))
            rows.append({c: entry() for c in cols})
    return rows, ncols


def _dense_rank(rows, ncols):
    """Rank by plain dense elimination, independent of linalg."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] / mat[rank][c]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


SEEDS = range(200)


def _check_rref_against_sympy(big):
    sympy = pytest.importorskip("sympy")
    for s in SEEDS:
        rows, ncols = _random_matrix(s, big)
        echelon, pivots = rref(rows)
        if not rows:
            assert (echelon, pivots) == ([], [])
            continue
        dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        ref, ref_pivots = sympy.Matrix(dense).rref()
        assert pivots == list(ref_pivots), s
        expected = [
            {c: Fraction(int(x.p), int(x.q)) for c in range(ncols) if (x := ref[r, c]) != 0}
            for r in range(len(ref_pivots))
        ]
        assert echelon == expected, s


def test_rref_matches_sympy():
    _check_rref_against_sympy(big=False)


def test_rref_matches_sympy_on_large_entries():
    _check_rref_against_sympy(big=True)


def test_integer_row_helpers():
    row = {0: Fraction(-4, 3), 2: Fraction(2, 9), 5: Fraction(6)}
    assert integral(row) == {0: -6, 2: 1, 5: 27}
    assert integral({1: Fraction(-5, 7)}) == {1: -1}
    assert integral({}) == primitive({}) == {}
    assert primitive({0: -12, 3: 18, 4: 30}) == {0: -2, 3: 3, 4: 5}
    assert primitive({0: 5, 1: -7}) == {0: 5, 1: -7}
    assert content({0: 12, 1: -18}, {7: 30}) == 6
    assert content({}, {}) == 0
    for c, lead in [(6, 4), (-6, 4), (6, -4), (7, 1), (0, 5)]:
        a, b = cofactors(c, lead)
        assert a * c == b * lead and (a > 0) == (lead > 0), (c, lead)
    assert cofactors(6, 4) == (2, 3)


def test_rref_shape():
    for s in SEEDS:
        rows, ncols = _random_matrix(s)
        echelon, pivots = rref(rows)
        assert len(pivots) == _dense_rank(rows, ncols), s
        assert pivots == sorted(pivots)
        for row, c in zip(echelon, pivots):
            assert list(row) == sorted(row) and min(row) == c and row[c] == 1
            assert all(isinstance(x, Fraction) and x for x in row.values())
            assert not any(k in row for k in pivots if k != c)


def test_kernel_basis_vectors():
    for s in SEEDS:
        rows, ncols = _random_matrix(s)
        kern = kernel_basis(rows, ncols)
        # column c is free when it does not raise the rank of columns 0..c-1
        free = [c for c in range(ncols) if _dense_rank(rows, c + 1) == _dense_rank(rows, c)]
        assert len(kern) == len(free) == ncols - _dense_rank(rows, ncols), s
        for v, f in zip(kern, free):
            assert list(v) == sorted(v)
            assert v[f] == 1 and not any(v.get(g) for g in free if g != f), s
            for row in rows:
                assert sum(x * v.get(c, 0) for c, x in row.items()) == 0, s


def test_empty_and_zero_matrices():
    assert rref([]) == ([], [])
    assert rref([{}, {2: Fraction(0)}]) == ([], [])
    assert kernel_basis([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert kernel_basis([{}], 2) == [{0: 1}, {1: 1}]
    assert kernel_basis([{0: Fraction(2)}], 1) == []


def test_echelon_streams_rows_with_exponent_columns():
    # column c becomes an exponent tuple whose order differs from c's
    def column(c):
        return (c % 3, 2 - c // 3)

    for s in SEEDS:
        rows, ncols = _random_matrix(s)
        kept = echelon({column(c): v for c, v in row.items()} for row in rows)
        assert len(kept) == _dense_rank(rows, ncols), s
        for pivot, row in kept.items():
            assert min(row) == pivot and row[pivot], s
            assert all(type(x) is int and x for x in row.values()), s
            assert content(row) == 1, s
        # the kept rows lie in the span of the input rows
        index = {column(c): c for c in range(ncols)}
        back = [{index[e]: v for e, v in row.items()} for row in kept.values()]
        assert _dense_rank(rows + back, ncols) == _dense_rank(rows, ncols), s
