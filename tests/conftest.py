"""Paranoid test mode: every basis and Hilbert computation made anywhere in
the test session is re-verified against its defining property (all
S-polynomials of a returned basis reduce to zero, input generators reduce to
zero, and Hilbert-series coefficients match brute-force standard-monomial
counts out to the regularity witness plus three).  Exact arithmetic, no
tolerances.  Set QUADBIR_TEST_PARANOID=0 to disable."""

import os
import sys

import pytest

import quadbir.groebner as groebner
import quadbir.hilbert as hilbert
from quadbir.groebner import Ideal, StepBudget, _Entry, _reduce_int, _to_int_terms, _widening
from quadbir.hilbert import standard_monomial_count
from quadbir.polyring import DEGREVLEX, Poly, mono_deg, mono_divides, mono_lcm

_orig_buchberger = groebner.buchberger
_orig_hilbert_data = hilbert.hilbert_data

_stats = {"gb_checked": 0, "spolys": 0, "hilbert_checked": 0}


def _spoly(f, g, order):
    """S-polynomial of f and g in Poly arithmetic on exponent tuples, so that
    it shares no code with the kernel's packed monomials."""
    lf, lg = f.lead_monomial(order), g.lead_monomial(order)
    lcm = mono_lcm(lf, lg)
    sf = tuple(a - b for a, b in zip(lcm, lf))
    sg = tuple(a - b for a, b in zip(lcm, lg))
    return Poly(f.ring, {sf: g.terms[lg]}) * f - Poly(g.ring, {sg: f.terms[lf]}) * g


def verify_basis(ideal, order, gb) -> int:
    """Assert that gb is a Groebner basis of the ideal under the order: every
    S-polynomial and every input generator reduces to zero.  Returns the
    number of S-polynomials checked."""
    if not gb:
        return 0
    gb = list(gb)
    gens = ideal.generators if isinstance(ideal, Ideal) else [g for g in ideal if g]
    check_budget = StepBudget(None)

    def run(P):
        entries = [_Entry(_to_int_terms(g, P), i, P) for i, g in enumerate(gb)]
        spolys = 0
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                s = _to_int_terms(_spoly(gb[i], gb[j], order), P)
                assert not _reduce_int(s, entries, P, check_budget), (
                    f"S-polynomial of basis elements {i}, {j} does not reduce to zero"
                )
                spolys += 1
        for g in gens:
            assert not _reduce_int(_to_int_terms(g, P), entries, P, check_budget), (
                "input generator does not reduce to zero against the basis"
            )
        return spolys

    # an S-polynomial has at most twice the degree of the basis
    degree = 2 * max(g.degree() for g in (*gb, *gens))
    return _widening(order, gb[0].ring.nvars, degree, check_budget, run)


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


def _checked_buchberger(ideal, order=DEGREVLEX, budget=None):
    gb = _orig_buchberger(ideal, order, budget)
    if gb:
        _stats["spolys"] += verify_basis(ideal, order, gb)
        _stats["gb_checked"] += 1
    return gb


def _checked_hilbert_data(I, order=DEGREVLEX, budget=None):
    hd = _orig_hilbert_data(I, order=order, budget=budget)
    verify_hilbert(I, order, hd)
    _stats["hilbert_checked"] += 1
    return hd


@pytest.fixture(scope="session", autouse=True)
def paranoid_mode():
    if os.environ.get("QUADBIR_TEST_PARANOID", "1") == "0":
        yield
        return
    # rebind every module-level name bound to an original, so that calls
    # through a name a module imported itself are checked too
    wrappers = ((_orig_buchberger, _checked_buchberger),
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


def pytest_terminal_summary(terminalreporter):
    """Print how much the paranoid checks verified in this session."""
    if os.environ.get("QUADBIR_TEST_PARANOID", "1") == "0":
        return
    terminalreporter.write_sep("-", "paranoid checks")
    terminalreporter.write_line(
        f"bases checked: {_stats['gb_checked']}, S-polynomials: {_stats['spolys']}, "
        f"Hilbert checks: {_stats['hilbert_checked']}"
    )
