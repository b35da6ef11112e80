"""Hilbert series, Hilbert polynomials, and derived projective invariants.

The Hilbert series of R/I is computed from the initial ideal of a Groebner
basis by the standard pivot-variable recursion on monomial ideals; it is
independent of the monomial order.  Writing the series as Q(t)/(1-t)^D with
Q(1) != 0, the Hilbert polynomial comes out exactly as a sum of binomial
terms, together with a regularity witness m0 such that the polynomial and
the Hilbert function agree in all degrees >= m0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import factorial
from operator import and_, lshift, sub
from typing import Iterable, Sequence

from .groebner import Ideal, StepBudget, _budget
from .linalg import _back_substitute, echelon
from .polyring import DEGREVLEX, MonomialOrder, Poly, Ring, format_poly, mono_deg

Exponent = tuple


def initial_ideal(
    I: Ideal,
    order: MonomialOrder = DEGREVLEX,
    budget: StepBudget | int | None = None,
) -> Ideal:
    """Monomial ideal of leading monomials of the reduced Groebner basis."""
    if not I.is_homogeneous():
        raise ValueError("initial ideal needs a homogeneous ideal")
    gb = I.groebner(order, budget)
    ring = I.ring
    gens = [ring.monomial(g.lead_monomial(order)) for g in gb]
    return Ideal(ring, gens)


# ---------------------------------------------------------------------------
# integer polynomials in one variable t, as dense coefficient tuples

def _padd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _pshift(a: Sequence[int], k: int) -> tuple[int, ...]:
    return (0,) * k + tuple(a)


def _pmul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _ptrim(a: Sequence[int]) -> tuple[int, ...]:
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return tuple(a)


def _minimalize(gens: Sequence[Exponent]) -> tuple[Exponent, ...]:
    """The minimal generators of the monomial ideal, sorted.

    Each monomial becomes one int whose fields hold its exponents, each
    field with a clear guard bit on top, so h divides g iff g - h borrows
    from no field, that is iff (g - h) & guard == 0.  A proper divisor has
    a smaller degree, so scanning by degree tests each monomial only
    against the ones already kept.
    """
    if not gens:
        return ()
    w = max(map(max, gens)).bit_length() + 1
    shifts = tuple(range(0, w * len(gens[0]), w))
    guard = sum(1 << (s + w - 1) for s in shifts)
    out: list[Exponent] = []
    kept: list[int] = []
    for g in sorted(gens, key=mono_deg):
        p = sum(map(lshift, g, shifts))
        if all(map(and_, map(sub, repeat(p), kept), repeat(guard))):
            out.append(g)
            kept.append(p)
    return tuple(sorted(out))


def hilbert_series_numerator(
    monomials: Sequence[Exponent], nvars: int
) -> tuple[int, ...]:
    """Numerator N(t) with HS(R/M) = N(t)/(1-t)^nvars for the monomial ideal M."""
    for m in monomials:
        if len(m) != nvars:
            raise ValueError("exponent length mismatch")
    return _numerator(_minimalize(monomials), nvars, {})


def _numerator(gens: tuple[Exponent, ...], nvars: int, memo: dict) -> tuple[int, ...]:
    """The numerator for the minimal generators gens, by the pivot-variable
    recursion; memo maps the generator tuples met so far to theirs."""
    if not gens:
        return (1,)
    if len(gens) == 1:
        d = mono_deg(gens[0])
        return _ptrim((1,) + (0,) * (d - 1) + (-1,))
    cached = memo.get(gens)
    if cached is not None:
        return cached
    # coprime supports: the generators form a regular sequence
    support_count = [0] * nvars
    for g in gens:
        for i, e in enumerate(g):
            if e:
                support_count[i] += 1
    if all(c <= 1 for c in support_count):
        result = (1,)
        for g in gens:
            d = mono_deg(g)
            result = _pmul(result, (1,) + (0,) * (d - 1) + (-1,))
        result = _ptrim(result)
        memo[gens] = result
        return result
    pivot = max(range(nvars), key=lambda i: support_count[i])
    # M + (x_pivot)
    unit = tuple(1 if i == pivot else 0 for i in range(nvars))
    plus = _minimalize([unit] + [g for g in gens if g[pivot] == 0])
    # M : x_pivot
    colon = _minimalize(
        [
            g[:pivot] + (g[pivot] - 1,) + g[pivot + 1 :] if g[pivot] else g
            for g in gens
        ]
    )
    result = _ptrim(
        _padd(_numerator(plus, nvars, memo), _pshift(_numerator(colon, nvars, memo), 1))
    )
    memo[gens] = result
    return result


def series_coefficients(
    numerator: Sequence[int], nvars: int, upto: int
) -> list[int]:
    """Hilbert function values HF(0..upto) from N(t)/(1-t)^nvars."""
    vals = [numerator[i] if i < len(numerator) else 0 for i in range(upto + 1)]
    for _ in range(nvars):
        for i in range(1, upto + 1):
            vals[i] += vals[i - 1]
    return vals


def standard_monomial_count(
    initial_gens: Sequence[Exponent], nvars: int, degree: int
) -> int:
    """Brute-force count of degree-d monomials outside the monomial ideal.

    Enumerates the monomials one exponent at a time.  Each level keeps only
    the generators whose exponents so far fit under the prefix, and a
    prefix that one of them already divides (its remaining exponents are
    all zero) heads a subtree of divisible monomials, which counts 0.
    """
    # the position after each generator's last nonzero exponent
    ends = {g: max((i + 1 for i, x in enumerate(g) if x), default=0) for g in initial_gens}

    def rec(pos: int, remaining: int, gens: list[Exponent]) -> int:
        if any(ends[g] <= pos for g in gens):
            return 0
        if pos == nvars - 1:
            return 0 if any(g[pos] <= remaining for g in gens) else 1
        return sum(
            rec(pos + 1, remaining - e, [g for g in gens if g[pos] <= e])
            for e in range(remaining + 1)
        )

    return rec(0, degree, list(ends))


# ---------------------------------------------------------------------------
# Hilbert polynomial and geometric invariants

def _binomial_poly(shift: int, k: int) -> tuple[Fraction, ...]:
    """Coefficients of binom(t + shift, k) as a polynomial in t."""
    coeffs: list[Fraction] = [Fraction(1)]
    for i in range(k):
        # multiply by (t + shift - i)
        c = Fraction(shift - i)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for j, a in enumerate(coeffs):
            nxt[j] += a * c
            nxt[j + 1] += a
        coeffs = nxt
    return tuple(a / factorial(k) for a in coeffs)


def poly_eval(coeffs: Sequence[Fraction], t) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * t + c
    return acc


@dataclass(frozen=True)
class HilbertData:
    """Hilbert series numerator and the derived projective invariants."""

    numerator: tuple[int, ...]  # over (1-t)^nvars
    nvars: int
    hp: tuple[Fraction, ...]  # Hilbert polynomial coefficients in t
    dim_proj: int  # -1 for the empty scheme
    degree: int | None  # None when dim_proj == -1
    sectional_genus: int | None  # defined for dim_proj >= 1
    chi: int | None  # hp(0)
    regularity_witness: int  # hp(m) == HF(m) for all m >= this

    def hp_value(self, t) -> Fraction:
        return poly_eval(self.hp, t)

    def hilbert_function(self, upto: int) -> list[int]:
        return series_coefficients(self.numerator, self.nvars, upto)

    def hp_str(self) -> str:
        return format_poly(Poly(Ring(("t",)), {(k,): c for k, c in enumerate(self.hp) if c}))


def hilbert_data(
    I: Ideal,
    order: MonomialOrder = DEGREVLEX,
    budget: StepBudget | int | None = None,
) -> HilbertData:
    """Full Hilbert data of a homogeneous ideal, read from R/I as given.

    `numerator`, `hilbert_function` and `regularity_witness` belong to the
    ideal as given.  `hp`, `dim_proj`, `degree`, `sectional_genus` and
    `chi` are invariants of the scheme V(I): the saturation of I by the
    irrelevant ideal differs from I only in finitely many degrees, so it
    has the same Hilbert polynomial and need not be computed.
    """
    if not I.is_homogeneous():
        raise ValueError("hilbert_data needs a homogeneous ideal")
    b = _budget(budget)
    nvars = I.ring.nvars
    if I.is_zero():
        monos: list[Exponent] = []
    else:
        gb = I.groebner(order, b)
        monos = [g.lead_monomial(order) for g in gb]
        if any(mono_deg(m) == 0 for m in monos):
            # unit ideal: empty scheme with zero series
            return HilbertData((0,), nvars, (Fraction(0),), -1, None, None, None, 0)
    numerator = hilbert_series_numerator(monos, nvars)
    # strip factors of (1-t): N = (1-t)^s * Q with Q(1) != 0
    q = list(numerator)
    s = 0
    while len(q) >= 1 and sum(q) == 0 and any(q):
        # synthetic division by (1-t): N(t) = (1-t)*Q(t)
        out = [0] * (len(q) - 1)
        acc = 0
        for i in range(len(q) - 1):
            acc = q[i] + acc
            out[i] = acc
        q = out if out else [0]
        s += 1
    krull = nvars - s
    dim_proj = krull - 1
    # HF(m) = sum_j q_j * binom(m - j + krull - 1, krull - 1) is a polynomial
    # in m once m >= j - krull + 1 for every j
    m0 = max(len(q) - krull, 0)
    if krull == 0 or not any(q):
        # finite length: an m-primary ideal's HF vanishes from degree m0 on
        return HilbertData(numerator, nvars, (Fraction(0),), -1, None, None, None, m0)
    degree = sum(q)
    k = krull - 1  # degree of the Hilbert polynomial
    hp = [Fraction(0)] * (k + 1)
    for j, qj in enumerate(q):
        if qj == 0:
            continue
        term = _binomial_poly(k - j, k)
        for idx, c in enumerate(term):
            hp[idx] += qj * c
    # a curve section has Hilbert polynomial sum_j q_j * (t - j + 1), the
    # (k-1)-th difference of hp, so its genus 1 - hp_curve(0) is 1 - Q(1) + Q'(1)
    genus = 1 - degree + sum(j * qj for j, qj in enumerate(q)) if dim_proj >= 1 else None
    return HilbertData(
        numerator, nvars, tuple(hp), dim_proj, degree, genus, int(poly_eval(hp, 0)), m0
    )


def graded_piece(I: Ideal, e: int) -> tuple[int, list[Poly]]:
    """Dimension and the `_span_basis` of the degree-e piece of a homogeneous
    I, which the degree-e multiples of its generators span."""
    if not I.is_homogeneous():
        raise ValueError("graded piece needs a homogeneous ideal")
    rows = (
        {tuple(x + y for x, y in zip(shift, ge)): c for ge, c in g.terms.items()}
        for g in I.generators
        if g.degree() <= e
        for shift in _degree_monomials(I.ring.nvars, e - g.degree())
    )
    basis = _span_basis(I.ring, rows)
    return len(basis), basis


def _span_basis(ring: Ring, terms: Iterable[dict]) -> list[Poly]:
    """The reduced echelon basis of the QQ-span of a stream of term dicts,
    leading monomial first: on columns keyed (-degree, reversed exponents),
    the column order of F4 (Faugere, J. Pure Appl. Algebra 139, 1999), each
    pivot is its row's degrevlex lead, so every basis polynomial is monic
    and its lead occurs in no other.  The stream passes through `echelon`
    once, and each reduced row is released as its polynomial is made."""
    rows = _back_substitute(echelon({(-sum(m), m[::-1]): c for m, c in t.items()} for t in terms))
    return [Poly(ring, {m[::-1]: c for (_, m), c in row.items()}) for row in rows]


def _degree_monomials(nvars: int, degree: int) -> list[Exponent]:
    """All degree-d monomials, leading monomial first (descending degrevlex)."""
    heads: list[tuple] = [()]  # the exponents of all variables but the last
    for _ in range(nvars - 1):
        heads = [h + (e,) for h in heads for e in range(degree - sum(h) + 1)]
    return DEGREVLEX.sorted_monomials([h + (degree - sum(h),) for h in heads])
