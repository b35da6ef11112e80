"""Paranoid test mode: every basis and Hilbert computation made anywhere in
the test session is re-verified against its defining property.  Exact
arithmetic, no tolerances.  Set QUADBIR_TEST_PARANOID=0 to disable.

- A basis is checked by Buchberger's criterion: every input generator, and
  every S-polynomial that the product and strict chain criteria leave,
  reduces to zero.  The kernel's integer division reduces them all; the
  `Fraction` division `groebner.reduce`, which shares no code with it,
  reduces every kept S-polynomial of a basis of at most 20 elements and
  an evenly spaced sample of 32 of a larger one.
- Hilbert-series coefficients must match brute-force standard-monomial
  counts out to the regularity witness plus three.

A basis returned again for the same generators and order is the same
pure function of them, so it is verified once per session.  The
saturation's degrevlex basis with a variable ranked last is checked as the
plain degrevlex basis of its generators in the ring with that variable
moved to the end.

The terminal summary prints how many checks of each kind the session made.
"""

import os
import pkgutil
import sys
from fractions import Fraction
from importlib import import_module
from itertools import compress, repeat
from operator import add, eq, or_, sub

import pytest

import quadbir
import quadbir.groebner as groebner
import quadbir.hilbert as hilbert
from quadbir.groebner import Ideal, StepBudget, _Entry, _reduce_int, _to_int_terms, _widening, reduce
from quadbir.hilbert import standard_monomial_count
from quadbir.polyring import DEGREVLEX, Poly, Ring, mono_deg, mono_divides, mono_lcm

_orig_buchberger = groebner.buchberger
_orig_last_variable_basis = groebner._last_variable_basis
_orig_hilbert_data = hilbert.hilbert_data

_stats = {
    "gb_checked": 0, "gb_repeats": 0, "spolys": 0, "product": 0, "chain": 0,
    "fraction": 0, "hilbert_checked": 0,
}

# (order, generators, basis) of every basis verified in this session
_verified = set()

# bases up to this size have every kept S-polynomial reduced by `reduce`
# as well; larger ones have this many of them, evenly spaced
FRACTION_ALL = 20
FRACTION_SAMPLE = 32


def _spoly(f, g, lf, lg):
    """S-polynomial of f and g, whose leading monomials are lf and lg, in
    arithmetic on exponent tuples, so that it shares no code with the
    kernel's packed monomials."""
    lcm = mono_lcm(lf, lg)
    sf = tuple(map(sub, lcm, lf))
    sg = tuple(map(sub, lcm, lg))
    cf, cg = g.terms[lg], f.terms[lf]
    terms = {tuple(map(add, e, sf)): cf * c for e, c in f.terms.items()}
    for e, c in g.terms.items():
        e = tuple(map(add, e, sg))
        v = terms.get(e, 0) - cg * c
        if v:
            terms[e] = v
        else:
            del terms[e]
    return Poly(f.ring, terms)


def _staircases(leads):
    """Each exponent tuple as an int with bit (v, t) set iff the exponent
    of variable v is above t.  Then lcm is bitwise or, a divides b iff
    a | b == b, and two monomials share a variable iff their ints do."""
    width = max(max(e) for e in leads) or 1
    return [
        sum(((1 << x) - 1) << (v * width) for v, x in enumerate(e))
        for e in leads
    ]


def pairs_to_check(leads):
    """The pairs (i, j), i < j, whose S-polynomials decide that a set with
    these leading monomials is a Groebner basis, and the numbers of pairs
    the product and the strict chain criterion leave out.

    The product criterion leaves out coprime leads.  The chain criterion
    leaves out (i, j) when a witness k exists: k's lead divides
    lcm(i, j) = L and neither lcm(i, k) nor lcm(j, k) equals L.  Then
    S(i, j) is a combination of S(i, k) and S(j, k), whose lcms strictly
    divide L, so induction on the lcm gives every pair a standard
    representation once the kept ones reduce to zero.  Witnesses of (i, j)
    are looked for from each side: from i's, only among the k whose
    lcm(i, k) is minimal among all lcm(i, .), which is where most are.
    """
    masks = _staircases(leads)
    chained = set()
    for i, mi in enumerate(masks):
        lcms = [mi | mk for mk in masks]
        by_lcm = {}
        for k, l in enumerate(lcms):
            if k != i:
                by_lcm.setdefault(l, []).append(masks[k])
        minimal = []
        for l in sorted(by_lcm, key=int.bit_count):
            if l not in map(or_, minimal, repeat(l)):
                minimal.append(l)
        lowest = set(minimal)
        for j, l in enumerate(lcms):
            if j == i or l in lowest or not mi & masks[j]:
                continue
            pair = (i, j) if i < j else (j, i)
            if pair in chained:
                continue
            mj = masks[j]
            # minimal lcm(i, k) strictly dividing l, then some such k with
            # lcm(j, k) != l
            for m in compress(minimal, map(eq, map(or_, minimal, repeat(l)), repeat(l))):
                if not all(map(eq, map(or_, by_lcm[m], repeat(mj)), repeat(l))):
                    chained.add(pair)
                    break
    kept = []
    product = 0
    for i, mi in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if not mi & masks[j]:
                product += 1
            elif (i, j) not in chained:
                kept.append((i, j))
    return kept, product, len(chained)


def verify_basis(ideal, order, gb) -> int:
    """Assert that gb is a Groebner basis of the ideal under the order: the
    S-polynomials left by the pair criteria and every input generator
    reduce to zero.  Returns the number of S-polynomials checked."""
    if not gb:
        return 0
    gb = list(gb)
    gens = ideal.generators if isinstance(ideal, Ideal) else [g for g in ideal if g]
    lms = [g.lead_monomial(order) for g in gb]
    kept, product, chain = pairs_to_check(lms)
    check_budget = StepBudget(None)

    def run(P):
        entries = [_Entry(_to_int_terms(g, P), i, P) for i, g in enumerate(gb)]
        leads = [e.lm for e in entries]
        for i, j in kept:
            s = _to_int_terms(_spoly(gb[i], gb[j], lms[i], lms[j]), P)
            assert not _reduce_int(s, entries, leads, P, check_budget), (
                f"S-polynomial of basis elements {i}, {j} does not reduce to zero"
            )
        for g in gens:
            assert not _reduce_int(_to_int_terms(g, P), entries, leads, P, check_budget), (
                "input generator does not reduce to zero against the basis"
            )

    # an S-polynomial has at most twice the degree of the basis
    degree = 2 * max(g.degree() for g in (*gb, *gens))
    _widening(order, gb[0].ring.nvars, degree, check_budget, run)

    sample = kept
    if len(gb) > FRACTION_ALL and len(kept) > FRACTION_SAMPLE:
        sample = [kept[t * len(kept) // FRACTION_SAMPLE] for t in range(FRACTION_SAMPLE)]
    for i, j in sample:
        assert not reduce(_spoly(gb[i], gb[j], lms[i], lms[j]), gb, order), (
            f"S-polynomial of basis elements {i}, {j} has a nonzero Fraction remainder"
        )

    _stats["gb_checked"] += 1
    _stats["spolys"] += len(kept)
    _stats["product"] += product
    _stats["chain"] += chain
    _stats["fraction"] += len(sample)
    return len(kept)


def verify_hilbert(I, order, hd) -> None:
    """Assert that the Hilbert data matches brute-force standard-monomial
    counts out to the regularity witness plus three."""
    if I.is_zero() or hd.dim_proj < 0:
        return
    gb = I.groebner(order)
    leads = [g.lead_monomial(order) for g in gb]
    mins = []
    for m in sorted(leads, key=mono_deg):
        if not any(mono_divides(h, m) for h in mins):
            mins.append(m)
    upto = hd.regularity_witness + 3
    series = hd.hilbert_function(upto)
    for m in range(upto + 1):
        brute = standard_monomial_count(mins, I.ring.nvars, m)
        assert series[m] == brute, f"Hilbert function mismatch in degree {m}"
        if m >= hd.regularity_witness:
            assert hd.hp_value(m) == brute, (
                f"Hilbert polynomial disagrees with the Hilbert function at {m}"
            )
    _stats["hilbert_checked"] += 1


def moved_basis(I, var, basis):
    """I's generators and a `groebner._last_variable_basis` result as
    `Poly`s of the ring with variable var moved to the end, where that
    basis is the plain degrevlex one."""
    to_end = lambda e: e[:var] + e[var + 1 :] + e[var : var + 1]
    moved = Ring(to_end(I.ring.variables))
    move = lambda terms: Poly(moved, {to_end(e): Fraction(c) for e, c in terms.items()})
    return tuple(move(g.terms) for g in I.generators), tuple(move(t) for t in basis)


def verify_last_variable_basis(I, var, basis) -> int:
    """`verify_basis` for a `groebner._last_variable_basis` result."""
    gens, gb = moved_basis(I, var, basis)
    return verify_basis(gens, DEGREVLEX, gb)


def _check_once(order, gens, gb) -> None:
    seen = (order, gens, gb)
    if seen in _verified:
        _stats["gb_repeats"] += 1
    else:
        verify_basis(gens, order, gb)
        _verified.add(seen)


def _checked_buchberger(ideal, order=DEGREVLEX, budget=None):
    gb = _orig_buchberger(ideal, order, budget)
    gens = ideal.generators if isinstance(ideal, Ideal) else tuple(g for g in ideal if g)
    _check_once(order, gens, gb)
    return gb


def _checked_last_variable_basis(I, var, budget):
    basis = _orig_last_variable_basis(I, var, budget)
    _check_once(DEGREVLEX, *moved_basis(I, var, basis))
    return basis


def _checked_hilbert_data(I, order=DEGREVLEX, budget=None):
    hd = _orig_hilbert_data(I, order=order, budget=budget)
    verify_hilbert(I, order, hd)
    return hd


@pytest.fixture(scope="session", autouse=True)
def paranoid_mode():
    if os.environ.get("QUADBIR_TEST_PARANOID", "1") == "0":
        yield
        return
    # the package loads a layer on first use, so load them all now: a layer
    # that a test would load later is then checked as well
    for info in pkgutil.iter_modules(quadbir.__path__):
        if info.name != "__main__":
            import_module(f"quadbir.{info.name}")
    # rebind every module-level name bound to an original, so that calls
    # through a name a module imported itself are checked too
    wrappers = ((_orig_buchberger, _checked_buchberger),
                (_orig_last_variable_basis, _checked_last_variable_basis),
                (_orig_hilbert_data, _checked_hilbert_data))
    this = sys.modules[__name__]
    undo = []
    for module in list(sys.modules.values()):
        if module is this:
            continue
        for name, value in list(getattr(module, "__dict__", {}).items()):
            for orig, wrapper in wrappers:
                if value is orig:
                    setattr(module, name, wrapper)
                    undo.append((module, name, orig))
    yield
    for module, name, value in undo:
        setattr(module, name, value)


@pytest.fixture
def paranoid_stats():
    """The counts the paranoid checks have reached so far in this session."""
    return _stats


def pytest_terminal_summary(terminalreporter):
    """Print how much the paranoid checks verified in this session."""
    if os.environ.get("QUADBIR_TEST_PARANOID", "1") == "0":
        return
    s = _stats
    terminalreporter.write_sep("-", "paranoid checks")
    terminalreporter.write_line(
        f"bases checked: {s['gb_checked']} (and {s['gb_repeats']} repeats of a checked one), "
        f"S-polynomials (kept pairs): {s['spolys']}, "
        f"pairs pruned: {s['product']} product + {s['chain']} chain, "
        f"Fraction cross-checks: {s['fraction']}, Hilbert checks: {s['hilbert_checked']}"
    )
