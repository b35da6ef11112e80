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
from functools import cache
from itertools import accumulate, compress, repeat, zip_longest
from math import factorial
from operator import and_, not_, rshift, sub
from typing import Iterable, Sequence

from .groebner import StepBudget, _Packing
from .linalg import _back_substitute, echelon
from .polyring import DEGREVLEX, Ideal, MonomialOrder, Poly, Ring, format_poly, mono_deg

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
    return tuple(map(sum, zip_longest(a, b, fillvalue=0)))


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


def _packing(nvars: int, degree: int) -> _Packing:
    """The degrevlex `groebner._Packing` whose fields hold every monomial
    of degree at most `degree`."""
    return _Packing(DEGREVLEX, nvars, max(degree, 1).bit_length())


def _minimalize(gens: Iterable[int], guard: int) -> tuple[int, ...]:
    """The minimal generators of a monomial ideal of packed monomials,
    ascending.

    h divides g iff (g - h) & guard == 0, and a proper divisor is a
    smaller int, since every monomial order refines divisibility; so
    scanning in ascending order tests each monomial only against the ones
    already kept, and a repeated monomial is dropped as divisible.
    """
    kept: list[int] = []
    for g in sorted(gens):
        if all(map(and_, map(sub, repeat(g), kept), repeat(guard))):
            kept.append(g)
    return tuple(kept)


def hilbert_series_numerator(
    monomials: Sequence[Exponent], nvars: int
) -> tuple[int, ...]:
    """Numerator N(t) with HS(R/M) = N(t)/(1-t)^nvars for the monomial ideal M."""
    for m in monomials:
        if len(m) != nvars:
            raise ValueError("exponent length mismatch")
    P = _packing(nvars, max(map(mono_deg, monomials), default=0))
    return _packed_numerator(map(P.pack, monomials), P)


def _packed_numerator(monomials: Iterable[int], P: _Packing) -> tuple[int, ...]:
    """`hilbert_series_numerator` of monomials packed by P, of any order."""
    return _numerator(_minimalize(monomials, P.guard), P, {})


def _numerator(gens: tuple[int, ...], P: _Packing, memo: dict) -> tuple[int, ...]:
    """The numerator for the minimal packed generators gens, by the
    pivot-variable recursion (Bigatti, J. Pure Appl. Algebra 119, 1997);
    memo maps the generator tuples met so far to theirs.  Field 0 of a
    packed monomial is its degree, and M : x_i subtracts the packed x_i
    from each generator that x_i divides."""
    cached = memo.get(gens)
    if cached is not None:
        return cached
    # the exponents of each variable, and the number of generators it divides
    fields = [list(map(and_, map(rshift, gens, repeat(s)), repeat(P.fmax))) for s in P.shifts]
    support = [len(f) - f.count(0) for f in fields]
    if max(support, default=0) <= 1:
        # coprime supports: the generators form a regular sequence
        result = (1,)
        for g in gens:
            result = _pmul(result, _padd((1,), _pshift((-1,), g & P.full)))
    else:
        pivot = support.index(max(support))
        unit = P.complete(1 << P.shifts[pivot])
        # M + (x_pivot) and M : x_pivot
        plus = _minimalize([unit, *compress(gens, map(not_, fields[pivot]))], P.guard)
        colon = _minimalize([g - unit if e else g for g, e in zip(gens, fields[pivot])], P.guard)
        result = _ptrim(_padd(_numerator(plus, P, memo), _pshift(_numerator(colon, P, memo), 1)))
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
    nvars = I.ring.nvars
    monos = [g.lead_monomial(order) for g in I.groebner(order, budget)]
    numerator = hilbert_series_numerator(monos, nvars)
    # strip factors of (1-t): N = (1-t)^s * Q with Q(1) != 0
    q = list(numerator)
    s = 0
    while any(q) and sum(q) == 0:
        # N(t) = (1-t)*Q(t), and Q's coefficients are the partial sums of N's
        q = list(accumulate(q[:-1]))
        s += 1
    krull = nvars - s
    dim_proj = krull - 1
    # HF(m) = sum_j q_j * binom(m - j + krull - 1, krull - 1) is a polynomial
    # in m once m >= j - krull + 1 for every j
    m0 = max(len(q) - krull, 0)
    if krull == 0 or not any(q):
        # finite length: the HF of an m-primary or unit ideal vanishes from degree m0 on
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
    nvars = I.ring.nvars
    P = _packing(nvars, e)
    shifts = cache(lambda d: list(map(P.pack, _degree_monomials(nvars, d))))

    def rows():
        # each generator and each shift is packed once; a multiple adds them
        for g in I.generators:
            if g.degree() <= e:
                terms = {-P.pack(m): c for m, c in g.terms.items()}
                for s in shifts(e - g.degree()):
                    yield {t - s: c for t, c in terms.items()}

    basis = _span_basis(I.ring, P, rows())
    return len(basis), basis


def _span_basis(ring: Ring, P: _Packing, rows: Iterable[dict]) -> list[Poly]:
    """The reduced echelon basis of the QQ-span of a stream of rows, leading
    monomial first.  A row maps negated monomials, packed by the degrevlex
    packing P, to coefficients: on these columns, the column order of F4
    (Faugere, J. Pure Appl. Algebra 139, 1999), each pivot is its row's
    degrevlex lead, so every basis polynomial is monic and its lead occurs
    in no other.  The stream passes through `echelon` once, and each
    reduced row is released as its polynomial is made."""
    unpack = cache(lambda m: P.unpack(-m))  # once per column, its tuple shared
    return [
        Poly(ring, {unpack(m): c for m, c in row.items()})
        for row in _back_substitute(echelon(rows))
    ]


def _degree_monomials(nvars: int, degree: int) -> list[Exponent]:
    """All degree-d monomials, leading monomial first (descending degrevlex)."""
    heads: list[tuple] = [()]  # the exponents of all variables but the last
    for _ in range(nvars - 1):
        heads = [h + (e,) for h in heads for e in range(degree - sum(h) + 1)]
    return DEGREVLEX.sorted_monomials([h + (degree - sum(h),) for h in heads])
