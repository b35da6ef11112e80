"""Buchberger-based ideal arithmetic.

Division with remainder, reduced Groebner bases, membership, elimination,
intersection, ideal quotient, saturation, and ideal equality.  The
Buchberger loop works fraction-free on integer-primitive polynomials;
public results are returned as exact rational polynomials normalized to
primitive integer form with a positive leading coefficient.

Every basis computation charges a step budget so that heavy runs fail with
a distinct `BudgetExceeded` error instead of hanging.

`Ideal` is defined in `polyring`, next to `Ring` and `Poly`, so that
building one loads no engine; it is re-exported here.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress, count, repeat
from operator import and_, attrgetter, lshift, not_, rshift, sub
from typing import Iterable, Sequence

from .linalg import cofactors, content, integral, primitive
from .polyring import (
    DEGREVLEX,
    Exponent,
    Ideal,
    MonomialOrder,
    Poly,
    Ring,
    _fresh_name,
    mono_divides,
)

DEFAULT_STEP_BUDGET = 8_000_000


class BudgetExceeded(RuntimeError):
    """A Groebner computation ran past its step budget."""

    def __init__(self, steps: int):
        self.steps = steps
        super().__init__(f"step budget exceeded after {steps} steps")


class HilbertMismatch(RuntimeError):
    """A Hilbert-driven run found more or fewer new leading monomials in a
    degree than the Hilbert function it was given allows: that function
    does not belong to the input."""

    def __init__(self, degree: int, deficit: int):
        super().__init__(
            f"Hilbert function disagrees with the basis in degree {degree} "
            f"(deficit {deficit})"
        )


class SaturationUncertified(RuntimeError):
    """Kept for importers; nothing raises it since saturation is exact."""


class StepBudget:
    """Mutable countdown shared across one logical computation.

    One step is one pair popped from the Buchberger queue, one input
    generator, or one division step.  A pair that a criterion removed, or
    that the Hilbert driver skips, still costs the step of its pop.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        self.limit = DEFAULT_STEP_BUDGET if limit is None else limit
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded(self.used)


def _budget(budget: StepBudget | int | None) -> StepBudget:
    if isinstance(budget, StepBudget):
        return budget
    return StepBudget(budget)


# ---------------------------------------------------------------------------
# packed monomials
#
# Inside the Buchberger kernel a monomial is one Python int (Bachmann and
# Schoenemann, ISSAC 1998).  Each field holds `bits` value bits under one
# guard bit, which is zero in every monomial the kernel holds.  From the
# least significant end:
#
#   field 0          the total degree;
#   fields 1..n      the exponents (the E part), placed as the order needs;
#                    `shifts` alone says which variable sits where, so the
#                    saturation by a variable permutes it to rank that
#                    variable last;
#   fields n+1..2n   prefix sums of the E part inside each degrevlex block
#                    (the O part; lex has none).  Degrevlex is the one-block
#                    case; block(k) puts the first k variables above the rest.
#
# Read from the top, the O part (for lex, the E part) is an order-equivalent
# form of `MonomialOrder.key()`: degrevlex compares the degree and then the
# sums that leave out the last variables one by one.  So comparing two ints
# compares the monomials, multiplying monomials is adding ints, and x^a
# divides x^b iff (b - a) & guard == 0: a field that underflows borrows from
# the field above, and either one ends up with its guard bit set.
#
# Every field is at most the degree, so the kernel keeps each degree at most
# `fmax` and checks that before it multiplies; a run that would exceed it
# raises `_Overflow` and is restarted with twice as many bits per field.

_PAIR_BITS = 32  # width of each basis index in a pair record


class _Overflow(ArithmeticError):
    """A product or lcm would not fit its packed fields."""


class _Packing:
    """The packed layout of one monomial order in n variables."""

    __slots__ = (
        "bits", "full", "fmax", "shifts", "emask", "eguard", "guard",
        "blocks", "rall", "oshift", "width",
    )

    def __init__(self, order: MonomialOrder, nvars: int, bits: int):
        n = nvars
        w = bits + 1
        self.bits = bits
        self.full = (1 << w) - 1
        self.fmax = (1 << bits) - 1
        if order.kind == "lex":
            pos = [n - i for i in range(n)]
            spans = []
        else:
            k = n if order.kind == "degrevlex" else min(order.block, n)
            pos = [n - k + 1 + i if i < k else 1 + i - k for i in range(n)]
            spans = [(a, length) for a, length in ((1, n - k), (n - k + 1, k)) if length]
        ones = lambda a, length: sum(1 << (w * f) for f in range(a, a + length))
        self.shifts = tuple(w * p for p in pos)
        self.emask = ones(1, n) * self.full
        self.eguard = ones(1, n) << bits
        fields = 2 * n + 1 if spans else n + 1
        self.guard = ones(0, fields) << bits
        self.width = w * fields
        self.rall = ones(0, n)
        self.oshift = w * n
        self.blocks = tuple((ones(a, length) * self.full, ones(0, length)) for a, length in spans)

    def complete(self, e: int) -> int:
        """The monomial whose E part is e: adds the O part and the degree."""
        prod = e * self.rall
        deg = (prod >> self.oshift) & self.full
        if deg > self.fmax:
            raise _Overflow(deg)
        o = 0
        for bmask, r in self.blocks:
            o |= (e & bmask) * r & bmask
        return (o << self.oshift) | e | deg

    def pack(self, e: Exponent) -> int:
        if sum(e) > self.fmax:
            raise _Overflow(e)
        return self.complete(sum(map(lshift, e, self.shifts)))

    def unpack(self, m: int) -> Exponent:
        return tuple(map(and_, map(rshift, repeat(m), self.shifts), repeat(self.fmax)))

    def lcm_e(self, a: int, b: int) -> int:
        """The E part of lcm(a, b): the fieldwise maximum, without branches."""
        ea = a & self.emask
        eb = b & self.emask
        ge = ((ea | self.eguard) - eb) & self.eguard  # guard set where ea >= eb
        m = ge - (ge >> self.bits)
        return (ea & m) | (eb & ~m)


def _widening(order: MonomialOrder, nvars: int, degree: int, budget: StepBudget, run):
    """run(packing) with fields sized from the input degree; a run that
    overflows them is restarted with twice the bits and the budget it had
    at the start, so the step count is that of the wider run alone."""
    bits = max(8, 4 * degree).bit_length()
    used = budget.used
    while True:
        try:
            return run(_Packing(order, nvars, bits))
        except _Overflow:
            budget.used = used
            bits *= 2


# ---------------------------------------------------------------------------
# fraction-free integer polynomials: dict {packed monomial: int}

def _to_int_terms(p: Poly, P: _Packing) -> dict:
    pack = P.pack
    return {pack(e): v for e, v in integral(p.terms).items()}


class _Entry:
    """Basis element: leading monomial and coefficient (made positive), the
    remaining terms, and the largest degree of any term.  Takes ownership
    of the terms dict."""

    __slots__ = ("lm", "lc", "tail", "idx", "maxdeg")

    def __init__(self, terms: dict, idx: int, P: _Packing):
        lm = max(terms)
        if terms[lm] < 0:
            terms = {e: -v for e, v in terms.items()}
        self.maxdeg = max(map(and_, terms, repeat(P.full)))
        self.lm = lm
        self.lc = terms.pop(lm)
        self.tail = terms
        self.idx = idx


def _first_divisor(lm: int, leads: list, guard: int):
    """Position of the first lead dividing lm, or None."""
    hits = compress(count(), map(not_, map(and_, map(sub, repeat(lm), leads), repeat(guard))))
    return next(hits, None)


def _reduce_int(
    p: dict, reducers: Sequence[_Entry], leads: list, P: _Packing, budget: StepBudget
) -> dict:
    """Full normal form of p modulo reducers, up to a positive scalar.
    Consumes p.  `leads` holds the reducers' leading monomials, in order.

    The terms still to reduce are a dict with a heap of their monomials; a
    monomial cancelled after it was pushed stays in the heap and is skipped.
    """
    heap = [-e for e in p]
    heapify(heap)
    guard, full, fmax = P.guard, P.full, P.fmax
    r: dict = {}
    scale_events = 0
    while heap:
        lm = -heappop(heap)
        c = p.pop(lm, 0)
        if not c:
            continue
        k = _first_divisor(lm, leads, guard)
        if k is None:
            r[lm] = c
            continue
        hit = reducers[k]
        budget.tick()
        a, b = cofactors(c, hit.lc)
        if a != 1:
            for e in p:
                p[e] *= a
            for e in r:
                r[e] *= a
            scale_events += 1
        shift = lm - hit.lm
        if (shift & full) + hit.maxdeg > fmax:
            raise _Overflow(lm)
        for ge, gv in hit.tail.items():
            e = ge + shift
            v = p.get(e)
            if v is None:
                p[e] = -b * gv
                heappush(heap, -e)
            else:
                v -= b * gv
                if v:
                    p[e] = v
                else:
                    del p[e]
        if scale_events >= 16:
            # divide the unreduced part and the remainder by one common content
            g = content(p, r)
            if g > 1:
                p = {e: v // g for e, v in p.items()}
                r = {e: v // g for e, v in r.items()}
            scale_events = 0
    return primitive(r)


def _spoly_int(f: _Entry, g: _Entry, lcm: int, P: _Packing) -> dict:
    """S-polynomial of f and g, whose leading monomials have lcm `lcm`."""
    cf, cg = cofactors(f.lc, g.lc)
    sf = lcm - f.lm
    sg = lcm - g.lm
    if (sf & P.full) + f.maxdeg > P.fmax or (sg & P.full) + g.maxdeg > P.fmax:
        raise _Overflow(lcm)
    out = {e + sf: cf * v for e, v in f.tail.items()}
    for e, v in g.tail.items():
        e += sg
        w = out.get(e, 0) - cg * v
        if w:
            out[e] = w
        else:
            del out[e]
    return out


def _gm_partners(lm: int, leads: Sequence[int], P: _Packing) -> list[tuple[int, int]]:
    """Positions i of the leads whose pair with a new leading monomial lm
    survives the Gebauer-Moeller criteria on new pairs, each with the E part
    of its lcm: lm and leads[i] share a variable, and lcm(lm, leads[i]) is a
    minimal element of the set of all lcm(lm, leads[j]).  Equal lcms do not
    exclude each other.

    A strict divisor is a smaller packed int, so the distinct lcms are
    scanned in ascending order, each tested only against the minimal ones
    kept.  Coprime leads are those whose lcm is their product.
    """
    lcm_e, emask, eguard = P.lcm_e, P.emask, P.eguard
    lcms = [lcm_e(lm, g) for g in leads]
    minimal: list = []
    for l in sorted(set(lcms)):
        if 0 not in map(and_, map(sub, repeat(l), minimal), repeat(eguard)):
            minimal.append(l)
    keep = set(minimal)
    le = lm & emask
    return [
        (i, l)
        for i, (g, l) in enumerate(zip(leads, lcms))
        if l in keep and l != le + (g & emask)
    ]


def _buchberger_entries(
    polys: Iterable[dict],
    P: _Packing,
    budget: StepBudget,
    hilbert: Sequence[int] | None = None,
) -> list[_Entry]:
    """Gebauer-Moeller installation of Buchberger's algorithm.

    A pair record is one int: from the top, the degree of the lcm, the
    packed lcm, the basis indices i < j, and a dead bit.  The heap pops by
    degree, then order, then indices.  A pair the chain criterion removes
    has its dead bit set in place, which keeps the heap ordered, and is
    skipped when popped.

    `hilbert`, for homogeneous input only, is the numerator N(t) of the
    input ideal's Hilbert series N(t)/(1-t)^n.  Pairs then pop degree by
    degree, and at the first live pair of degree d the deficit is the
    number of degree-d monomials outside the current leads minus HF(d):
    the leads of degree d the basis still lacks.  Each nonzero remainder
    supplies one, and once none is missing every other pair of degree d
    reduces to zero and is not reduced (Traverso, J. Symbolic Comput. 22,
    1996).  A deficit that goes negative, or is left over when the degree
    ends, raises `HilbertMismatch`.
    """
    entries: list[_Entry] = []
    G: list[_Entry] = []
    leads: list[int] = []  # the leading monomials of G, in step with it
    pairs: list[int] = []
    live = 0
    ib = _PAIR_BITS
    pb = 2 * ib + 1
    low = (1 << ib) - 1
    mono = (1 << P.width) - 1
    full, guard, emask = P.full, P.guard, P.emask
    lcm_e = P.lcm_e
    chain_mask = (guard << pb) | 1

    def update(h: _Entry) -> None:
        nonlocal G, leads, live
        hlm = h.lm
        # chain criterion on live pairs: h.lm divides lcm(gi, gj), tested on
        # the records themselves, and neither lcm with h equals lcm(gi, gj)
        hits = map(not_, map(and_, map(sub, pairs, repeat(hlm << pb)), repeat(chain_mask)))
        dead = []
        for k in compress(count(), hits):
            x = pairs[k]
            lij = (x >> pb) & emask
            gi, gj = entries[(x >> (ib + 1)) & low], entries[(x >> 1) & low]
            if lcm_e(gi.lm, hlm) != lij and lcm_e(gj.lm, hlm) != lij:
                dead.append(k)
        for k in dead:
            pairs[k] |= 1
        live -= len(dead)
        j = h.idx
        for pos, l in _gm_partners(hlm, leads, P):
            l = P.complete(l)
            i = G[pos].idx
            heappush(pairs, ((((l & full) << P.width | l) << ib | i) << ib | j) << 1)
            live += 1
        keep = [(g - hlm) & guard for g in leads]
        G = list(compress(G, keep))
        leads = list(compress(leads, keep))
        G.append(h)
        leads.append(hlm)

    for terms in polys:
        if not terms:
            continue
        budget.tick()
        red = _reduce_int(terms, G, leads, P, budget)
        if red:
            h = _Entry(red, len(entries), P)
            entries.append(h)
            update(h)

    driven = hilbert is not None
    if driven:
        from .hilbert import _packed_numerator, series_coefficients

        n = len(P.shifts)
        hf = lambda numerator, d: series_coefficients(numerator, n, d)[d]
    degree = deficit = 0
    while live:
        budget.tick()
        x = heappop(pairs)
        if x & 1:
            continue
        live -= 1
        if driven:
            d = x >> (pb + P.width)
            if d != degree:
                if deficit:
                    raise HilbertMismatch(degree, deficit)
                degree = d
                outside = _packed_numerator(leads, P)
                deficit = hf(outside, d) - hf(hilbert, d)
            if deficit < 0:
                raise HilbertMismatch(degree, deficit)
            if not deficit:
                continue
        f, g = entries[(x >> (ib + 1)) & low], entries[(x >> 1) & low]
        s = _spoly_int(f, g, (x >> pb) & mono, P)
        red = _reduce_int(s, G, leads, P, budget)
        if red:
            h = _Entry(red, len(entries), P)
            entries.append(h)
            update(h)
            deficit -= 1
            if not h.lm:
                break  # basis contains a unit
    if driven and deficit:
        raise HilbertMismatch(degree, deficit)
    return G


def _reduced_basis(G: list[_Entry], P: _Packing, budget: StepBudget) -> list[dict]:
    """Tail-reduce; unique reduced basis up to scaling, as dicts
    {exponent tuple: int} sorted by leading monomial.

    G is already minimal: each new element is a normal form modulo G, so
    no lead in G divides its lead, and `update` drops every lead that the
    new lead divides.  So each lead survives its tail reduction with a
    positive coefficient.
    """
    minimal = sorted(G, key=attrgetter("lm"))
    leads = [g.lm for g in minimal]
    unpack = P.unpack
    out = []
    for k, g in enumerate(minimal):
        others, lothers = minimal[:k] + minimal[k + 1 :], leads[:k] + leads[k + 1 :]
        red = _reduce_int({g.lm: g.lc, **g.tail}, others, lothers, P, budget)
        out.append({unpack(e): v for e, v in red.items()})
    return out


# ---------------------------------------------------------------------------
# public surface (the `Ideal` it takes is defined in `polyring`)

def _negated(key):
    """The key of the opposite order: every int of a nested key negated."""
    return tuple(map(_negated, key)) if isinstance(key, tuple) else -key


def reduce(
    f: Poly,
    basis: Sequence[Poly],
    order: MonomialOrder = DEGREVLEX,
    with_quotients: bool = False,
):
    """Deterministic multivariate division: divisors tried in sequence order.

    Returns the remainder r (no term of r is divisible by any basis leading
    monomial) with f - r in the ideal generated by the basis; optionally
    also the quotient list q with f = sum(q[i]*basis[i]) + r.
    """
    ring = f.ring
    if any(g.ring != ring for g in basis):
        raise ValueError("division basis in wrong ring")
    keyf = order.key()
    # (position in basis, divisor, its leading monomial and coefficient)
    active = [(i, g, g.lead_monomial(order), g.lead_coefficient(order))
              for i, g in enumerate(basis) if g]
    quotients = [ring.zero() for _ in basis] if with_quotients else None
    neg = lambda e: (_negated(keyf(e)), e)
    p = dict(f.terms)
    heap = list(map(neg, p))  # leads pop first; cancelled terms are skipped
    heapify(heap)
    r: dict = {}
    while heap:
        lm = heappop(heap)[1]
        c = p.pop(lm, None)
        if c is None:
            continue
        hit = next((d for d in active if mono_divides(d[2], lm)), None)
        if hit is None:
            r[lm] = c
            continue
        i, g, glm, glc = hit
        factor = c / glc
        shift = tuple(x - y for x, y in zip(lm, glm))
        for ge, gv in g.terms.items():
            if ge == glm:
                continue
            e = tuple(x + y for x, y in zip(shift, ge))
            v = p.get(e)
            if v is None:
                p[e] = -factor * gv
                heappush(heap, neg(e))
            elif v := v - factor * gv:
                p[e] = v
            else:
                del p[e]
        if quotients is not None:
            quotients[i] = quotients[i] + Poly(ring, {shift: factor})
    rem = Poly(ring, r)
    if with_quotients:
        return rem, quotients
    return rem


def buchberger(
    ideal: Ideal | Sequence[Poly],
    order: MonomialOrder = DEGREVLEX,
    budget: StepBudget | int | None = None,
) -> tuple[Poly, ...]:
    """Unique reduced Groebner basis (primitive integer, positive leads).

    Idempotent: running it on its own output returns the same basis.

    Homogeneous generators under an elimination order take a Hilbert-driven
    run (Traverso, "Hilbert functions and the Buchberger algorithm",
    J. Symbolic Comput. 22, 1996): their degrevlex basis, charged to the
    same budget, gives the Hilbert function, which is the same under every
    order, and the elimination run skips the pairs it proves reduce to
    zero.  Other input runs plain Buchberger.
    """
    if isinstance(ideal, Ideal):
        ring = ideal.ring
        gens = ideal.generators
    else:
        gens = [g for g in ideal if g]
        if not gens:
            raise ValueError("need at least one nonzero generator")
        ring = gens[0].ring
        if any(g.ring != ring for g in gens):
            raise ValueError("generators in different rings")
    if not gens:
        return ()
    b = _budget(budget)
    hilbert = None
    if order.kind == "block" and all(g.is_homogeneous() for g in gens):
        from .hilbert import hilbert_series_numerator

        drl = buchberger(gens, DEGREVLEX, b)
        hilbert = hilbert_series_numerator([g.lead_monomial(DEGREVLEX) for g in drl], ring.nvars)
    run = lambda P: _kernel_basis(gens, P, b, hilbert)
    reduced = _widening(order, ring.nvars, max(g.degree() for g in gens), b, run)
    return tuple(Poly(ring, {e: Fraction(v) for e, v in t.items()}) for t in reduced)


def _kernel_basis(
    gens: Sequence[Poly], P: _Packing, budget: StepBudget, hilbert: Sequence[int] | None = None
) -> list[dict]:
    """The reduced basis of nonzero gens in the order P packs, as
    `_reduced_basis` gives it.  The inputs are sorted stably by packed
    leading monomial, which is the order, and each is packed again only
    when the loop reaches it, so no second copy of the inputs exists."""
    ordered = sorted(gens, key=lambda g: max(map(P.pack, g.terms)))
    G = _buchberger_entries((_to_int_terms(g, P) for g in ordered), P, budget, hilbert)
    return _reduced_basis(G, P, budget)


def membership(
    f: Poly, ideal: Ideal, budget: StepBudget | int | None = None
) -> bool:
    """True iff f reduces to zero modulo a Groebner basis of the ideal."""
    return _contained_in([f], ideal, _budget(budget))


def _contained_in(polys: Sequence[Poly], I: Ideal, budget: StepBudget) -> bool:
    """True iff every poly reduces to zero modulo I's degrevlex basis,
    which is packed once for all of them."""
    if any(f.ring != I.ring for f in polys):
        raise ValueError("ideals in different rings")
    polys = [f for f in polys if f]
    if not polys:
        return True
    if I.is_zero():
        return False
    gb = I.groebner(DEGREVLEX, budget)

    def run(P: _Packing) -> bool:
        entries = [_Entry(_to_int_terms(g, P), i, P) for i, g in enumerate(gb)]
        leads = [g.lm for g in entries]
        return all(not _reduce_int(_to_int_terms(f, P), entries, leads, P, budget) for f in polys)

    degree = max(g.degree() for g in (*polys, *gb))
    return _widening(DEGREVLEX, I.ring.nvars, degree, budget, run)


def contains_one(ideal: Ideal, budget: StepBudget | int | None = None) -> bool:
    gb = ideal.groebner(DEGREVLEX, budget)
    return any(g.is_constant() and g for g in gb)


def ideal_equal(
    I: Ideal, J: Ideal, budget: StepBudget | int | None = None
) -> bool:
    """Equality of the unique reduced degrevlex bases."""
    if I.ring != J.ring:
        raise ValueError("ideals in different rings")
    b = _budget(budget)
    return I.groebner(DEGREVLEX, b) == J.groebner(DEGREVLEX, b)


# ---------------------------------------------------------------------------
# elimination

def eliminate(
    I: Ideal, drop: int, budget: StepBudget | int | None = None
) -> Ideal:
    """Intersection of I with the subring omitting the first `drop` variables.

    The ring must be ordered so that the variables to drop come first.  A
    homogeneous I is eliminated by the Hilbert-driven run of `buchberger`,
    whose step count includes the degrevlex basis that drives it.
    """
    if drop <= 0 or drop >= I.ring.nvars:
        raise ValueError("drop count must be between 1 and nvars-1")
    gb = I.groebner(MonomialOrder.elimination(drop), budget)
    target = Ring(I.ring.variables[drop:])
    kept = [
        Poly(target, {e[drop:]: c for e, c in g.terms.items()})
        for g in gb
        if all(all(x == 0 for x in e[:drop]) for e in g.terms)
    ]
    return Ideal(target, kept)


# ---------------------------------------------------------------------------
# quotient and saturation

def exact_divide(g: Poly, f: Poly) -> Poly:
    """Quotient g/f when f divides g exactly."""
    r, q = reduce(g, [f], DEGREVLEX, with_quotients=True)
    if r:
        raise ValueError("division is not exact")
    return q[0]


def intersect(
    I: Ideal, J: Ideal, budget: StepBudget | int | None = None
) -> Ideal:
    """I ∩ J = elim_t(t·I + (1-t)·J), t a fresh variable."""
    if I.ring != J.ring:
        raise ValueError("ideals in different rings")
    ring = I.ring
    tname = _fresh_name(ring)
    big = Ring((tname,) + ring.variables)
    lift = lambda p: Poly(big, {(0,) + e: c for e, c in p.terms.items()})
    t = big.var(tname)
    gens = [t * lift(g) for g in I.generators]
    gens += [(big.one() - t) * lift(g) for g in J.generators]
    return eliminate(Ideal(big, gens), 1, budget)


def ideal_quotient(
    I: Ideal, f: Poly, budget: StepBudget | int | None = None
) -> Ideal:
    """(I : f) = (I ∩ (f)) / f."""
    if not f:
        raise ValueError("cannot quotient by zero")
    inter = intersect(I, Ideal(I.ring, [f]), budget)
    return Ideal(I.ring, [exact_divide(g, f) for g in inter.generators])


def saturate(
    I: Ideal, f: Poly, budget: StepBudget | int | None = None
) -> Ideal:
    """(I : f^inf) for a variable f and a homogeneous ideal I."""
    if f.ring != I.ring:
        raise ValueError("saturating variable of a different ring")
    fvar = _poly_as_variable(f)
    if fvar is None or not I.is_homogeneous():
        raise ValueError("saturation needs a variable and a homogeneous ideal")
    return _saturate_by_variable(I, fvar, _budget(budget))


def _poly_as_variable(f: Poly) -> int | None:
    if len(f.terms) != 1:
        return None
    ((e, c),) = f.terms.items()
    if c != 1 or sum(e) != 1:
        return None
    return e.index(1)


def _last_variable_basis(I: Ideal, var: int, budget: StepBudget) -> list[dict]:
    """The reduced basis of I, as `_reduced_basis` gives it, in degrevlex
    with x_var ranked last: the order of the ring with x_var moved to the
    end.  The packing places x_var's field where degrevlex places the last
    variable's, so the kernel packs I's own generators and unpacks to
    exponents of I.ring."""
    if I.is_zero():
        return []

    def run(P: _Packing) -> list[dict]:
        s = P.shifts
        P.shifts = s[:var] + s[-1:] + s[var:-1]
        return _kernel_basis(I.generators, P, budget)

    return _widening(DEGREVLEX, I.ring.nvars, max(g.degree() for g in I.generators), budget, run)


def _saturate_by_variable(I: Ideal, var: int, budget: StepBudget) -> Ideal:
    """(I : x^inf) for homogeneous I (Bayer-Stillman): x ranks last in the
    order of `_last_variable_basis`, so dividing each element of that basis
    by its largest power of x saturates."""
    divided = []
    for t in _last_variable_basis(I, var, budget):
        k = min(e[var] for e in t)
        terms = {e[:var] + (e[var] - k,) + e[var + 1 :]: Fraction(v) for e, v in t.items()}
        divided.append(Poly(I.ring, terms))
    return Ideal(I.ring, divided)


def saturate_irrelevant(
    I: Ideal, budget: StepBudget | int | None = None
) -> Ideal:
    """(I : m^inf) for the irrelevant ideal m of a homogeneous I, exactly.

    Each S_i = (I : x_i^inf) contains the saturation, which contains I, so
    the first S_i inside I proves I saturated.  Otherwise the result is the
    intersection of all S_i: if x_i^(k_i)·f lies in I for every i, then so
    does m^K·f for K = sum(k_i - 1) + 1.
    """
    b = _budget(budget)
    if not I.is_homogeneous():
        raise ValueError("irrelevant-ideal saturation needs a homogeneous ideal")
    if I.is_zero():
        return I
    sats = []
    for var in range(I.ring.nvars):
        S = _saturate_by_variable(I, var, b)
        if _contained_in(S.generators, I, b):
            return I
        sats.append(S)
    out = sats[0]
    for S in sats[1:]:
        if not _contained_in(out.generators, S, b):
            out = intersect(out, S, b)
    return out


# ---------------------------------------------------------------------------
# affine charts

def dehomogenize(p: Poly, var: int, target: Ring) -> Poly:
    out: dict = {}
    for e, c in p.terms.items():
        e2 = e[:var] + e[var + 1 :]
        out[e2] = out.get(e2, Fraction(0)) + c
    return Poly(target, {e: c for e, c in out.items() if c})


def solve_simplify(
    gens: Sequence[Poly], ring: Ring, budget: StepBudget | int | None = None
) -> tuple[list[Poly], Ring]:
    """Eliminate solved variables from an affine system.

    Repeatedly looks for a Groebner-basis element of the form c*x_i + g
    where x_i occurs nowhere else in that element, substitutes
    x_i = -g/c everywhere, and drops the variable.  The resulting system
    presents an isomorphic variety (each step is a graph projection).

    Returns the generators and their ring.
    """
    b = _budget(budget)
    gens = [g for g in gens if g]
    while ring.nvars > 1 and gens:
        if any(g.is_constant() and g for g in gens):
            break
        gb = list(buchberger(gens, DEGREVLEX, b))
        if any(g.is_constant() and g for g in gb):
            return gb, ring
        solved = None
        for g in gb:
            for i in range(ring.nvars):
                unit = tuple(1 if j == i else 0 for j in range(ring.nvars))
                if unit in g.terms and all(e == unit or e[i] == 0 for e in g.terms):
                    solved = (i, g, unit)
                    break
            if solved:
                break
        if not solved:
            return gb, ring
        i, g, unit = solved
        c = g.terms[unit]
        newring = Ring(ring.variables[:i] + ring.variables[i + 1 :])
        rest = Poly(
            newring,
            {e[:i] + e[i + 1 :]: -q / c for e, q in g.terms.items() if e != unit},
        )
        step = [
            rest if j == i else newring.var(ring.variables[j])
            for j in range(ring.nvars)
        ]
        gens = [h.substitute(step) for h in gb if h is not g]
        gens = [h for h in gens if h]
        ring = newring
    return gens, ring

