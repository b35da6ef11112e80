"""The paranoid checker of conftest.py checks only the S-polynomials its
pair criteria keep, so it must still reject every set that is not a
Groebner basis of its ideal, and every pair it leaves out must carry the
criterion it is left out by."""

import itertools
import random

import pytest
from conftest import pairs_to_check, verify_basis, verify_last_variable_basis

from quadbir.groebner import StepBudget, _last_variable_basis, buchberger, reduce
from quadbir.polyring import DEGREVLEX, LEX, Ideal, Poly, Ring, mono_divides, mono_lcm
from quadbir.varieties import elliptic_quintic_pfaffian, rational_normal_curve

IDEALS = {
    "twisted_cubic": lambda: rational_normal_curve(3),
    "elliptic_quintic": elliptic_quintic_pfaffian,
}
basis_cases = pytest.mark.parametrize(
    "name,order",
    [(name, order) for name in IDEALS for order in (DEGREVLEX, LEX)],
    ids=[f"{name}-{kind}" for name in IDEALS for kind in ("degrevlex", "lex")],
)


def _basis(name, order):
    I = IDEALS[name]()
    return I, list(buchberger(I, order))


@basis_cases
def test_dropping_a_basis_element_is_rejected(name, order):
    I, gb = _basis(name, order)
    verify_basis(I, order, gb)
    for k in range(len(gb)):
        with pytest.raises(AssertionError):
            verify_basis(I, order, gb[:k] + gb[k + 1 :])


@basis_cases
def test_changing_a_tail_coefficient_is_rejected(name, order):
    I, gb = _basis(name, order)
    kept, _, _ = pairs_to_check([g.lead_monomial(order) for g in gb])
    if name == "elliptic_quintic":
        assert len(kept) < len(gb) * (len(gb) - 1) // 2  # the criteria leave pairs out
    for k, g in enumerate(gb):
        lead = g.lead_monomial(order)
        terms = dict(g.terms)
        tail = [e for e in terms if e != lead]
        if not tail:
            continue
        terms[tail[0]] *= 2
        with pytest.raises(AssertionError):
            verify_basis(I, order, gb[:k] + [Poly(g.ring, terms)] + gb[k + 1 :])


def _times_m(I):
    return Ideal(I.ring, [g * v for g in I.generators for v in I.ring.gens()])


SATURATIONS = {
    "twisted_cubic_times_m": lambda: _times_m(rational_normal_curve(3)),
    "elliptic_quintic": elliptic_quintic_pfaffian,
}


@pytest.mark.parametrize("name", sorted(SATURATIONS))
def test_saturation_basis_mutations_are_rejected(name):
    # the saturation's basis, with x0 ranked last, is checked in the ring
    # with x0 moved to the end: dropping an element or changing a tail
    # coefficient must fail that check, as it does for a plain basis
    I, var = SATURATIONS[name](), 0
    basis = _last_variable_basis(I, var, StepBudget())
    verify_last_variable_basis(I, var, basis)
    to_end = lambda e: e[:var] + e[var + 1 :] + e[var : var + 1]
    lead = lambda t: max(t, key=lambda e: DEGREVLEX.key()(to_end(e)))
    for k, t in enumerate(basis):
        with pytest.raises(AssertionError):
            verify_last_variable_basis(I, var, basis[:k] + basis[k + 1 :])
        tail = [e for e in t if e != lead(t)]
        if tail:
            changed = {**t, tail[0]: 2 * t[tail[0]]}
            with pytest.raises(AssertionError):
                verify_last_variable_basis(I, var, basis[:k] + [changed] + basis[k + 1 :])


def test_non_basis_with_one_kept_pair_is_rejected():
    # leads z^2, y, xyz, x^2: three coprime pairs, two pairs with a chain
    # witness, and one kept pair, whose S-polynomial xz^2 - 1 leaves -1
    ring = Ring(["x", "y", "z"])
    G = [ring.parse(t) for t in ("z^2", "y + z", "x*y*z + 1", "x^2")]
    assert pairs_to_check([g.lead_monomial(DEGREVLEX) for g in G]) == ([(1, 2)], 3, 2)
    with pytest.raises(AssertionError, match="elements 1, 2"):
        verify_basis(G, DEGREVLEX, G)
    assert reduce(G[1] * ring.parse("x*z") - G[2], G) == ring.parse("-1")


def test_left_out_pairs_carry_their_criterion():
    # against the definitions on exponent tuples: a pair is left out only
    # when its leads are coprime or some lead k divides L = lcm(i, j) with
    # lcm(i, k) != L and lcm(j, k) != L
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        leads = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 12))]
        kept, product, chain = pairs_to_check(leads)
        coprime = chained = 0
        for i, j in itertools.combinations(range(len(leads)), 2):
            if (i, j) in kept:
                continue
            L = mono_lcm(leads[i], leads[j])
            if not any(map(min, leads[i], leads[j])):
                coprime += 1
            else:
                assert any(
                    mono_divides(g, L) and mono_lcm(leads[i], g) != L and mono_lcm(leads[j], g) != L
                    for g in leads
                ), (seed, i, j)
                chained += 1
        assert (coprime, chained) == (product, chain), seed
