"""Buchberger-based ideal arithmetic.

Division with remainder, reduced Groebner bases, membership, elimination,
ideal quotient, saturation, and ideal equality.  The Buchberger loop works
fraction-free on integer-primitive polynomials; public results are returned
as exact rational polynomials normalized to primitive integer form with a
positive leading coefficient.

Every basis computation charges a step budget so that heavy runs fail with
a distinct `BudgetExceeded` error instead of hanging.
"""

from __future__ import annotations

import heapq
import os
import random
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .polyring import (
    DEGREVLEX,
    MonomialOrder,
    Poly,
    Ring,
    mono_deg,
    mono_divides,
    mono_lcm,
)

DEFAULT_STEP_BUDGET = 8_000_000
_BUDGET_ENV = "QUADBIR_BUDGET"


class BudgetExceeded(RuntimeError):
    """A Groebner computation ran past its step budget."""

    def __init__(self, steps: int):
        self.steps = steps
        super().__init__(f"step budget exceeded after {steps} steps")


class SaturationUncertified(RuntimeError):
    """Saturation by the irrelevant ideal could not be certified."""


class StepBudget:
    """Mutable countdown shared across one logical computation."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        if limit is None:
            limit = int(os.environ.get(_BUDGET_ENV, DEFAULT_STEP_BUDGET))
        self.limit = limit
        self.used = 0

    def tick(self, n: int = 1) -> None:
        self.used += n
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceeded(self.used)


def _budget(budget: StepBudget | int | None) -> StepBudget:
    if isinstance(budget, StepBudget):
        return budget
    return StepBudget(budget)


# ---------------------------------------------------------------------------
# fraction-free integer polynomials: dict {exponent tuple: int}

def _to_int_terms(p: Poly) -> dict:
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    out = {e: int(c * den) for e, c in p.terms.items()}
    return _primitive_int(out)


def _primitive_int(terms: dict) -> dict:
    if not terms:
        return terms
    g = 0
    for v in terms.values():
        g = gcd(g, abs(v))
        if g == 1:
            return terms
    if g > 1:
        return {e: v // g for e, v in terms.items()}
    return terms


def _from_int_terms(ring: Ring, terms: dict) -> Poly:
    return Poly(ring, {e: Fraction(v) for e, v in terms.items()})


class _KeyCache:
    """Memoized monomial-order keys, so max() runs on a C-level dict lookup."""

    __slots__ = ("fn", "map")

    def __init__(self, keyf):
        self.fn = keyf
        self.map: dict = {}

    def ensure_all(self, terms: dict) -> None:
        m = self.map
        fn = self.fn
        for e in terms:
            if e not in m:
                m[e] = fn(e)


class _Entry:
    """Basis element with cached leading data (positive leading coefficient);
    mask has bit i set when variable i occurs in the leading monomial."""

    __slots__ = ("terms", "lm", "lc", "lmkey", "idx", "mask")

    def __init__(self, terms: dict, kc: _KeyCache, idx: int):
        kc.ensure_all(terms)
        lm = max(terms, key=kc.map.__getitem__)
        if terms[lm] < 0:
            terms = {e: -v for e, v in terms.items()}
        self.terms = terms
        self.lm = lm
        self.lc = terms[lm]
        self.lmkey = kc.map[lm]
        self.idx = idx
        self.mask = sum(1 << i for i, x in enumerate(lm) if x)


def _reduce_int(p: dict, reducers: Sequence[_Entry], kc: _KeyCache, budget: StepBudget) -> dict:
    """Full normal form of p modulo reducers, up to a positive scalar."""
    p = dict(p)
    kc.ensure_all(p)
    keymap = kc.map
    keyfn = kc.fn
    r: dict = {}
    scale_events = 0
    while p:
        lm = max(p, key=keymap.__getitem__)
        c = p.pop(lm)
        hit = None
        for g in reducers:
            glm = g.lm
            ok = True
            for a, b in zip(glm, lm):
                if a > b:
                    ok = False
                    break
            if ok:
                hit = g
                break
        if hit is None:
            r[lm] = c
            continue
        budget.tick()
        m = gcd(c, hit.lc)
        a = hit.lc // m
        b = c // m
        if a != 1:
            for e in p:
                p[e] *= a
            for e in r:
                r[e] *= a
            scale_events += 1
        shift = tuple(x - y for x, y in zip(lm, hit.lm))
        if any(shift):
            for ge, gv in hit.terms.items():
                if ge == hit.lm:
                    continue
                e = tuple(x + y for x, y in zip(shift, ge))
                v = p.get(e, 0) - b * gv
                if v:
                    p[e] = v
                    if e not in keymap:
                        keymap[e] = keyfn(e)
                else:
                    p.pop(e, None)
        else:
            for ge, gv in hit.terms.items():
                if ge == hit.lm:
                    continue
                v = p.get(ge, 0) - b * gv
                if v:
                    p[ge] = v
                else:
                    p.pop(ge, None)
        if scale_events >= 16:
            # divide the unreduced part and the remainder by one common content
            g = gcd(*p.values(), *r.values())
            if g > 1:
                p = {e: v // g for e, v in p.items()}
                r = {e: v // g for e, v in r.items()}
            scale_events = 0
    return _primitive_int(r)


def _spoly_int(f: _Entry, g: _Entry) -> dict:
    lcm = mono_lcm(f.lm, g.lm)
    m = gcd(f.lc, g.lc)
    cf = g.lc // m
    cg = f.lc // m
    sf = tuple(x - y for x, y in zip(lcm, f.lm))
    sg = tuple(x - y for x, y in zip(lcm, g.lm))
    out: dict = {}
    for e, v in f.terms.items():
        e2 = tuple(x + y for x, y in zip(sf, e))
        out[e2] = out.get(e2, 0) + cf * v
    for e, v in g.terms.items():
        e2 = tuple(x + y for x, y in zip(sg, e))
        w = out.get(e2, 0) - cg * v
        if w:
            out[e2] = w
        else:
            out.pop(e2, None)
    return out


def _coprime(a, b) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _gm_partners(lm, leads: Sequence) -> list[int]:
    """Positions i of the leads whose pair with a new leading monomial lm
    survives the Gebauer-Moeller criteria on new pairs: lm and leads[i]
    share a variable, and lcm(lm, leads[i]) is a minimal element of the
    set of all lcm(lm, leads[j]).  Equal lcms do not exclude each other.

    A strict divisor has lower degree, so the distinct lcms are scanned by
    ascending degree, each tested only against the minimal ones kept.
    """
    lcms = [mono_lcm(lm, g) for g in leads]
    minimal: list = []
    for l in sorted(set(lcms), key=mono_deg):
        if not any(mono_divides(m, l) for m in minimal):
            minimal.append(l)
    keep = set(minimal)
    return [i for i, (g, l) in enumerate(zip(leads, lcms)) if l in keep and not _coprime(lm, g)]


def _buchberger_entries(
    polys: Iterable[dict], kc: _KeyCache, budget: StepBudget
) -> list[_Entry]:
    """Gebauer-Moeller installation of Buchberger's algorithm."""
    entries: list[_Entry] = []
    G: list[_Entry] = []
    pairs: list[tuple] = []  # heap of (deg lcm, lcm key, i, j)
    alive: set[tuple[int, int]] = set()
    keyf = kc.fn

    def push_pair(f: _Entry, g: _Entry) -> None:
        i, j = (f.idx, g.idx) if f.idx < g.idx else (g.idx, f.idx)
        lcm = mono_lcm(f.lm, g.lm)
        heapq.heappush(pairs, (mono_deg(lcm), keyf(lcm), i, j))
        alive.add((i, j))

    def update(h: _Entry) -> None:
        nonlocal G
        hlm, hmask = h.lm, h.mask
        # chain criterion on old pairs; h.lm can divide lcm(gi, gj) only if
        # its variables occur in gi.lm or gj.lm, which the masks test first
        dead = []
        for pair in alive:
            gi, gj = entries[pair[0]], entries[pair[1]]
            if hmask & ~(gi.mask | gj.mask):
                continue
            lij = mono_lcm(gi.lm, gj.lm)
            if (
                mono_divides(hlm, lij)
                and mono_lcm(gi.lm, hlm) != lij
                and mono_lcm(gj.lm, hlm) != lij
            ):
                dead.append(pair)
        alive.difference_update(dead)
        for i in _gm_partners(hlm, [g.lm for g in G]):
            push_pair(h, G[i])
        G = [g for g in G if not mono_divides(hlm, g.lm)]
        G.append(h)

    for terms in polys:
        if not terms:
            continue
        budget.tick()
        red = _reduce_int(terms, G, kc, budget)
        if red:
            h = _Entry(red, kc, len(entries))
            entries.append(h)
            update(h)

    while alive:
        budget.tick()
        _, _, i, j = heapq.heappop(pairs)
        if (i, j) not in alive:
            continue
        alive.discard((i, j))
        f, g = entries[i], entries[j]
        s = _spoly_int(f, g)
        red = _reduce_int(s, G, kc, budget)
        if red:
            h = _Entry(red, kc, len(entries))
            entries.append(h)
            update(h)
            if not any(h.lm):
                break  # basis contains a unit
    return G


def _reduced_basis(G: list[_Entry], kc: _KeyCache, budget: StepBudget) -> list[dict]:
    """Minimalize and tail-reduce; unique reduced basis up to scaling."""
    keyf = kc.fn
    G = sorted(G, key=lambda g: g.lmkey)
    minimal: list[_Entry] = []
    for g in G:
        if not any(mono_divides(h.lm, g.lm) for h in minimal):
            minimal.append(g)
    out: list[dict] = []
    for g in minimal:
        others = [h for h in minimal if h is not g]
        red = _reduce_int(g.terms, others, kc, budget)
        out.append(red)
    result = []
    for terms in out:
        lm = max(terms, key=keyf)
        if terms[lm] < 0:
            terms = {e: -v for e, v in terms.items()}
        result.append(terms)
    result.sort(key=lambda t: keyf(max(t, key=keyf)))
    return result


# ---------------------------------------------------------------------------
# public surface

class Ideal:
    """Finitely generated ideal with cached reduced Groebner bases."""

    __slots__ = ("ring", "generators", "_gb_cache")

    def __init__(self, ring: Ring, generators: Iterable[Poly]):
        gens = []
        for g in generators:
            if not isinstance(g, Poly):
                raise TypeError("ideal generators must be Poly")
            if g.ring != ring:
                raise ValueError("generator in wrong ring")
            if g:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb_cache: dict[MonomialOrder, tuple[Poly, ...]] = {}

    def is_zero(self) -> bool:
        return not self.generators

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def groebner(
        self, order: MonomialOrder = DEGREVLEX, budget: StepBudget | int | None = None
    ) -> tuple[Poly, ...]:
        cached = self._gb_cache.get(order)
        if cached is not None:
            return cached
        gb = buchberger(self, order, budget)
        self._gb_cache[order] = gb
        return gb

    def contains(self, f: Poly, budget: StepBudget | int | None = None) -> bool:
        return membership(f, self, budget=budget)

    def __add__(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise ValueError("ideals in different rings")
        return Ideal(self.ring, self.generators + other.generators)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators[:4])
        more = "" if len(self.generators) <= 4 else f", ... ({len(self.generators)} gens)"
        return f"Ideal({gens}{more})"


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
    basis = [g for g in basis]
    for g in basis:
        if g.ring != ring:
            raise ValueError("division basis in wrong ring")
    keyf = order.key()
    leads = [(g.lead_monomial(order), g.lead_coefficient(order)) for g in basis if g]
    active = [g for g in basis if g]
    quotients = [ring.zero() for _ in basis] if with_quotients else None
    index_map = [i for i, g in enumerate(basis) if g]
    p = dict(f.terms)
    r: dict = {}
    while p:
        lm = max(p, key=keyf)
        c = p.pop(lm)
        hit = None
        for pos, (glm, glc) in enumerate(leads):
            if mono_divides(glm, lm):
                hit = pos
                break
        if hit is None:
            r[lm] = c
            continue
        g = active[hit]
        glm, glc = leads[hit]
        factor = c / glc
        shift = tuple(x - y for x, y in zip(lm, glm))
        for ge, gv in g.terms.items():
            if ge == glm:
                continue
            e = tuple(x + y for x, y in zip(shift, ge))
            v = p.get(e, Fraction(0)) - factor * gv
            if v:
                p[e] = v
            else:
                p.pop(e, None)
        if quotients is not None:
            i = index_map[hit]
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
    """
    if isinstance(ideal, Ideal):
        ring = ideal.ring
        gens = ideal.generators
    else:
        gens = [g for g in ideal if g]
        if not gens:
            raise ValueError("need at least one nonzero generator")
        ring = gens[0].ring
    if not gens:
        return ()
    b = _budget(budget)
    kc = _KeyCache(order.key())
    keyf = kc.fn
    # stable sort by leading key; each input is converted to integer terms
    # only when the loop reaches it, so no second copy of the inputs exists
    ordered = sorted(gens, key=lambda g: keyf(max(g.terms, key=keyf)))
    G = _buchberger_entries(map(_to_int_terms, ordered), kc, b)
    reduced = _reduced_basis(G, kc, b)
    return tuple(_from_int_terms(ring, t) for t in reduced)


def membership(
    f: Poly, ideal: Ideal, budget: StepBudget | int | None = None
) -> bool:
    """True iff f reduces to zero modulo a Groebner basis of the ideal."""
    if not f:
        return True
    if ideal.is_zero():
        return False
    b = _budget(budget)
    gb = ideal.groebner(DEGREVLEX, b)
    kc = _KeyCache(DEGREVLEX.key())
    entries = [_Entry(_to_int_terms(g), kc, i) for i, g in enumerate(gb)]
    return not _reduce_int(_to_int_terms(f), entries, kc, b)


def contains_one(ideal: Ideal, budget: StepBudget | int | None = None) -> bool:
    gb = ideal.groebner(DEGREVLEX, budget)
    return any(g.is_constant() and g for g in gb)


def ideal_equal(
    I: Ideal, J: Ideal, budget: StepBudget | int | None = None
) -> bool:
    """Mutual membership of generators; order-independent."""
    b = _budget(budget)
    return all(membership(g, J, budget=b) for g in I.generators) and all(
        membership(g, I, budget=b) for g in J.generators
    )


# ---------------------------------------------------------------------------
# elimination

def _project_ring(ring: Ring, drop: int) -> Ring:
    return Ring(ring.variables[drop:])


def _project_poly(p: Poly, drop: int, target: Ring) -> Poly:
    return Poly(target, {e[drop:]: c for e, c in p.terms.items()})


def eliminate(
    I: Ideal, drop: int, budget: StepBudget | int | None = None
) -> Ideal:
    """Intersection of I with the subring omitting the first `drop` variables.

    The ring must be ordered so that the variables to drop come first.
    """
    if drop <= 0 or drop >= I.ring.nvars:
        raise ValueError("drop count must be between 1 and nvars-1")
    gb = I.groebner(MonomialOrder.elimination(drop), budget)
    target = _project_ring(I.ring, drop)
    kept = [
        _project_poly(g, drop, target)
        for g in gb
        if all(all(x == 0 for x in e[:drop]) for e in g.terms)
    ]
    return Ideal(target, kept)


# ---------------------------------------------------------------------------
# quotient and saturation

def _fresh_name(ring: Ring, base: str = "t") -> str:
    name = base
    k = 0
    while name in ring.variables:
        k += 1
        name = f"{base}{k}"
    return name


def exact_divide(g: Poly, f: Poly) -> Poly:
    """Quotient g/f when f divides g exactly."""
    r, q = reduce(g, [f], DEGREVLEX, with_quotients=True)
    if r:
        raise ValueError("division is not exact")
    return q[0]


def ideal_quotient(
    I: Ideal, f: Poly, budget: StepBudget | int | None = None
) -> Ideal:
    """(I : f) via the intersection construction I ∩ (f) = elim_t(t·I + (1-t)·f)."""
    if not f:
        raise ValueError("cannot quotient by zero")
    b = _budget(budget)
    ring = I.ring
    tname = _fresh_name(ring)
    big = Ring((tname,) + ring.variables)
    lift = lambda p: Poly(big, {(0,) + e: c for e, c in p.terms.items()})
    t = big.var(tname)
    gens = [t * lift(g) for g in I.generators]
    gens.append((big.one() - t) * lift(f))
    inter = eliminate(Ideal(big, gens), 1, b)
    # inter lives in a ring with the same variable names as `ring`
    back = [Poly(ring, dict(p.terms)) for p in inter.generators]
    quotient_gens = [exact_divide(g, f) for g in back]
    return Ideal(ring, quotient_gens)


def _contained_in(
    J: Ideal, I: Ideal, budget: StepBudget
) -> bool:
    return all(membership(g, I, budget=budget) for g in J.generators)


def saturate(
    I: Ideal, f: Poly, budget: StepBudget | int | None = None
) -> Ideal:
    """(I : f^inf) by iterated quotient with a stabilization test."""
    if not f:
        raise ValueError("cannot saturate by zero")
    b = _budget(budget)
    fvar = _poly_as_variable(f)
    if fvar is not None and I.is_homogeneous():
        return _saturate_by_variable(I, fvar, b)
    current = I
    while True:
        J = ideal_quotient(current, f, b)
        if _contained_in(J, current, b):
            return current
        current = J


def _poly_as_variable(f: Poly) -> int | None:
    if len(f.terms) != 1:
        return None
    ((e, c),) = f.terms.items()
    if c != 1 or sum(e) != 1:
        return None
    return e.index(1)


def _saturate_by_variable(I: Ideal, var: int, budget: StepBudget) -> Ideal:
    """(I : x^inf) for homogeneous I (Bayer-Stillman): divide each element of
    a degrevlex basis that ranks x last by its largest power of x."""
    gb = buchberger(I, MonomialOrder.degrevlex(last=var), budget)
    divided = []
    for g in gb:
        k = min(e[var] for e in g.terms)
        if k:
            terms = {e[:var] + (e[var] - k,) + e[var + 1 :]: c for e, c in g.terms.items()}
            g = Poly(I.ring, terms)
        divided.append(g)
    return Ideal(I.ring, divided)


def saturate_irrelevant(
    I: Ideal,
    budget: StepBudget | int | None = None,
    seed: int = 0,
    max_power: int = 24,
) -> Ideal:
    """Saturation by the irrelevant maximal ideal, with a certificate.

    First tries the cheap sufficient test (stability under saturation by
    every single variable).  Otherwise saturates by a seeded random linear
    form and certifies the result: every new generator f must satisfy
    x_i^k · f in I for each variable, which pins the result to the true
    irrelevant-ideal saturation independently of the genericity of the
    linear form.
    """
    b = _budget(budget)
    if not I.is_homogeneous():
        raise ValueError("irrelevant-ideal saturation needs a homogeneous ideal")
    if I.is_zero():
        return I
    ring = I.ring
    stable = True
    for var in range(ring.nvars):
        J = _saturate_by_variable(I, var, b)
        if not _contained_in(J, I, b):
            stable = False
            break
    if stable:
        return I
    rng = random.Random(seed)
    for attempt in range(4):
        coeffs = [rng.randint(1, 7) for _ in range(ring.nvars)]
        J = _saturate_generic_linear(I, coeffs, b)
        if _certify_saturation(I, J, b, max_power):
            return J
    raise SaturationUncertified(
        "could not certify irrelevant-ideal saturation after 4 seeds"
    )


def _saturate_generic_linear(
    I: Ideal, coeffs: Sequence[int], budget: StepBudget
) -> Ideal:
    """(I : ell^inf) for ell = sum(coeffs[i] * x_i), all coeffs nonzero.

    Works in coordinates where ell becomes the last variable.
    """
    ring = I.ring
    n = ring.nvars
    last = n - 1
    a = Fraction(coeffs[last])
    # substitution x_last -> (x_last - sum_{i<last} c_i x_i) / c_last turns
    # ell into the plain variable x_last
    images = []
    for i in range(n):
        if i != last:
            images.append(ring.var(ring.variables[i]))
    subst_last = ring.var(ring.variables[last]).scale(1 / a)
    for i in range(last):
        subst_last = subst_last - ring.var(ring.variables[i]).scale(
            Fraction(coeffs[i]) / a
        )
    images.append(subst_last)
    moved = [g.substitute(images) for g in I.generators]
    J = _saturate_by_variable(Ideal(ring, moved), last, budget)
    # substitute back: x_last -> ell
    back_images = [ring.var(v) for v in ring.variables[:last]]
    ell = ring.zero()
    for i, c in enumerate(coeffs):
        ell = ell + ring.var(ring.variables[i]).scale(c)
    back_images.append(ell)
    restored = [g.substitute(back_images) for g in J.generators]
    return Ideal(ring, restored)


def _certify_saturation(
    I: Ideal, J: Ideal, budget: StepBudget, max_power: int
) -> bool:
    """Check J ⊆ (I : m^inf): each generator killed by a power of every variable."""
    ring = I.ring
    for f in J.generators:
        if membership(f, I, budget=budget):
            continue
        for var in ring.variables:
            x = ring.var(var)
            p = f
            ok = False
            for _ in range(max_power):
                p = p * x
                if membership(p, I, budget=budget):
                    ok = True
                    break
            if not ok:
                return False
    return True


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

