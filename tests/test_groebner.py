import hashlib
import itertools
import math
import os
import random
from fractions import Fraction

import pytest
from conftest import moved_basis

import quadbir.groebner as groebner
from quadbir.groebner import (
    BudgetExceeded,
    HilbertMismatch,
    Ideal,
    StepBudget,
    _Entry,
    _Overflow,
    _Packing,
    _buchberger_entries,
    _gm_partners,
    _reduce_int,
    _reduced_basis,
    _to_int_terms,
    buchberger,
    contains_one,
    eliminate,
    ideal_equal,
    ideal_quotient,
    intersect,
    membership,
    reduce,
    saturate,
    saturate_irrelevant,
)
from quadbir.hilbert import hilbert_data, hilbert_series_numerator
from quadbir.ideal_io import read_ideal
from quadbir.maps import RationalMap, image_ideal, map_from_ideal
from quadbir.polyring import DEGREVLEX, LEX, MonomialOrder, Poly, Ring
from quadbir.varieties import elliptic_quintic_pfaffian, rational_normal_curve

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "quadbir", "data", "ideals")


def _twisted_cubic():
    ring = Ring(["x0", "x1", "x2", "x3"])
    return Ideal(
        ring,
        [
            ring.parse("x1^2 - x0*x2"),
            ring.parse("x1*x2 - x0*x3"),
            ring.parse("x2^2 - x1*x3"),
        ],
    )


@pytest.fixture
def twisted_cubic():
    return _twisted_cubic()


def test_reduce_basic():
    ring = Ring(["x", "y"])
    x, y = ring.gens()
    assert reduce(x * x, [x], LEX).is_zero()
    assert reduce(x * x + y, [x], LEX) == y


def test_reduce_division_identity(twisted_cubic):
    ring = twisted_cubic.ring
    f = ring.parse("x0*x3*x3 + x1*x2*x3")
    gb = list(twisted_cubic.groebner())
    r, q = reduce(f, gb, DEGREVLEX, with_quotients=True)
    recombined = ring.zero()
    for qi, gi in zip(q, gb):
        recombined = recombined + qi * gi
    assert recombined + r == f
    # remainder irreducible: no term divisible by a basis lead
    for g in gb:
        lead = g.lead_monomial()
        for e in r.terms:
            assert any(a > b for a, b in zip(lead, e))


def test_reduce_membership_witness(twisted_cubic):
    ring = twisted_cubic.ring
    f = ring.parse("x0*x3*x3")
    gb = list(twisted_cubic.groebner())
    r = reduce(f, gb, DEGREVLEX)
    assert membership(f - r, twisted_cubic)


def test_buchberger_principal():
    ring = Ring(["x", "y"])
    gb = buchberger(Ideal(ring, [ring.var("x")]), LEX)
    assert [str(g) for g in gb] == ["x"]


def test_buchberger_twisted_cubic_already_basis(twisted_cubic):
    gb = buchberger(twisted_cubic)
    assert len(gb) == 3
    assert all(g.degree() == 2 for g in gb)


def test_buchberger_idempotent(twisted_cubic):
    gb = buchberger(twisted_cubic)
    again = buchberger(list(gb))
    assert list(gb) == list(again)


def test_reduced_basis_unique_under_permutation(twisted_cubic):
    gens = list(twisted_cubic.generators)
    reference = buchberger(Ideal(twisted_cubic.ring, gens))
    for perm in itertools.permutations(gens):
        assert buchberger(Ideal(twisted_cubic.ring, list(perm))) == reference


def test_membership_examples():
    ring = Ring(["x", "y"])
    x, y = ring.gens()
    assert membership(x * x, Ideal(ring, [x]))
    assert not membership(x + 1, Ideal(ring, [x * x]))


def test_membership_across_rings_raises():
    A = Ring(["x", "y"])
    B = Ring(["x", "y", "z"])
    with pytest.raises(ValueError, match="different rings"):
        membership(A.var("x"), Ideal(B, [B.var("z")]))


def test_buchberger_refuses_generators_of_different_rings():
    # the packing is sized from the first generator's ring, so a longer
    # exponent vector would lose its last entries (x*z read as x)
    R = Ring(["x", "y"])
    S = Ring(["x", "y", "z"])
    with pytest.raises(ValueError, match="generators in different rings"):
        buchberger([R.parse("x^2 - y^2"), S.parse("x*z - y^2")])


def test_saturation_refuses_a_variable_of_another_ring():
    # S's x sits where R has z; read by its index it would saturate by z
    R = Ring(["x", "y", "z"])
    S = Ring(["z", "y", "x"])
    I = Ideal(R, [R.parse("x*z"), R.parse("x^2")])
    with pytest.raises(ValueError, match="different ring"):
        saturate(I, S.var("x"))
    assert contains_one(saturate(I, R.var("x")))
    assert ideal_equal(saturate(I, R.var("z")), Ideal(R, [R.var("x")]))


def test_eliminate_linear():
    ring = Ring(["x", "y"])
    x, y = ring.gens()
    out = eliminate(Ideal(ring, [x - y]), 1)
    assert out.is_zero()


def test_eliminate_parabola():
    ring = Ring(["t", "x", "z"])
    t, x, z = ring.gens()
    out = eliminate(Ideal(ring, [t - x, t * t - z]), 1)
    assert [str(g) for g in out.generators] == ["x^2 - z"]


def test_eliminate_soundness(twisted_cubic):
    # generators of the elimination contain no dropped variable and lie in I
    ring = Ring(["u", "x0", "x1", "x2", "x3"])
    lift = [ring.var(v) for v in ("x0", "x1", "x2", "x3")]
    gens = [g.substitute(lift) for g in twisted_cubic.generators]
    gens.append(ring.parse("u^2 - x0*x3"))
    big = Ideal(ring, gens)
    out = eliminate(big, 1)
    for g in out.generators:
        lifted = g.substitute(lift)
        assert membership(lifted, big)


def test_quotient_and_saturation():
    ring = Ring(["x", "y"])
    x, y = ring.gens()
    assert [str(g) for g in ideal_quotient(Ideal(ring, [x * x]), x).generators] == ["x"]
    assert [str(g) for g in saturate(Ideal(ring, [x * y]), x).generators] == ["y"]
    # saturating by an element that already divides out completely gives (1)
    assert contains_one(saturate(Ideal(ring, [x * x]), x))
    # saturation takes a variable and a homogeneous ideal
    with pytest.raises(ValueError):
        saturate(Ideal(ring, [x * y]), x + y)
    with pytest.raises(ValueError):
        saturate(Ideal(ring, [x * y - 1]), x)


def test_saturation_fixed_point():
    ring = Ring(["x", "y", "z"])
    x, y, z = ring.gens()
    I = Ideal(ring, [x * y * y, x * x * z])
    S1 = saturate(I, x)
    S2 = saturate(S1, x)
    assert ideal_equal(S1, S2)


def test_irrelevant_saturation_keeps_saturated_ideal(twisted_cubic):
    # the first variable whose saturation lies inside I proves it saturated
    assert saturate_irrelevant(twisted_cubic) is twisted_cubic


def test_irrelevant_saturation_strips_point_component():
    ring = Ring(["x", "y"])
    x, y = ring.gens()
    # the square of the irrelevant ideal saturates to the whole ring
    I = Ideal(ring, [x * x, x * y, y * y])
    S = saturate_irrelevant(I)
    assert contains_one(S)


def test_irrelevant_saturation_keeps_hyperplane_components():
    # a component inside a coordinate hyperplane must survive
    ring = Ring(["x", "y", "z"])
    x, y, z = ring.gens()
    I = Ideal(ring, [x * y, x * z])  # V(x) union a line
    S = saturate_irrelevant(I)
    assert ideal_equal(S, I)


def test_intersect_known_answers():
    ring = Ring(["x", "y", "z"])
    x, y, z = ring.gens()
    meet = intersect(Ideal(ring, [x]), Ideal(ring, [y]))
    assert [str(g) for g in meet.generators] == ["x*y"]
    # (x^2, y) and (x, y^2) meet in the square of (x, y)
    meet = intersect(Ideal(ring, [x * x, y]), Ideal(ring, [x, y * y]))
    assert ideal_equal(meet, Ideal(ring, [x * x, x * y, y * y]))
    # with the zero ideal or the unit ideal
    assert intersect(Ideal(ring, [x]), Ideal(ring, [])).is_zero()
    assert ideal_equal(intersect(Ideal(ring, [x, z]), Ideal(ring, [ring.one()])),
                       Ideal(ring, [x, z]))


def test_ideal_equality():
    ring = Ring(["x", "y"])
    x, y = ring.gens()
    assert ideal_equal(Ideal(ring, [x, y]), Ideal(ring, [y, x + y]))
    assert not ideal_equal(Ideal(ring, [x * x]), Ideal(ring, [x]))


def test_ideal_equal_across_rings_raises():
    A = Ring(["x", "y"])
    B = Ring(["u", "v"])
    with pytest.raises(ValueError, match="different rings"):
        ideal_equal(Ideal(A, [A.var("x")]), Ideal(B, [B.var("u")]))


def test_budget_exceeded_is_distinct():
    ring = Ring(["x", "y", "z", "w"])
    gens = [
        ring.parse("x^3*y - z*w^3 + y^2*z^2"),
        ring.parse("x*z^3 - y^3*w + x^2*w^2"),
        ring.parse("y*w^3 - x^3*z + z^2*w^2"),
    ]
    with pytest.raises(BudgetExceeded):
        buchberger(Ideal(ring, gens), DEGREVLEX, StepBudget(5))


def _saturate_by_quotients(I, x):
    """(I : x^inf) by iterated ideal quotients until the chain stabilizes."""
    current = I
    while True:
        J = ideal_quotient(current, x)
        if all(membership(g, current) for g in J.generators):
            return current
        current = J


def _saturation_cases():
    P3 = Ring(["x0", "x1", "x2", "x3"])
    cubic = [P3.parse(t) for t in ("x1^2 - x0*x2", "x1*x2 - x0*x3", "x2^2 - x1*x3")]
    P2 = Ring(["x", "y", "z"])
    return {
        "twisted_cubic": Ideal(P3, cubic),
        # the twisted cubic times the irrelevant ideal: not saturated
        "twisted_cubic_times_m": Ideal(P3, [g * v for g in cubic for v in P3.gens()]),
        "plane_and_line": Ideal(P2, [P2.parse("x*y"), P2.parse("x*z")]),
        "embedded_point": Ideal(P2, [P2.parse("x^2*y"), P2.parse("x*y^2 - y*z^2")]),
    }


@pytest.mark.parametrize("name", sorted(_saturation_cases()))
def test_saturation_by_variable_matches_quotient_oracle(name):
    I = _saturation_cases()[name]
    for x in I.ring.gens():
        fast = saturate(I, x)
        slow = _saturate_by_quotients(I, x)
        assert ideal_equal(fast, slow)
        assert buchberger(fast) == buchberger(slow)


def _intersection_branch_cases():
    """Ideals of P^2 none of whose per-variable saturations lies inside
    them, each with its saturation."""
    P2 = Ring(["x", "y", "z"])
    m = P2.gens()
    points = Ideal(P2, [P2.parse(t) for t in ("x*y", "y*z", "x*z")])
    embedded = _saturation_cases()["embedded_point"]
    squares = itertools.combinations_with_replacement(m, 2)
    return {
        "three_points": (points, points),
        "three_points_times_m": (Ideal(P2, [g * v for g in points.generators for v in m]), points),
        "m_squared": (Ideal(P2, [a * b for a, b in squares]), Ideal(P2, [P2.one()])),
        "embedded_point": (embedded, embedded),
    }


@pytest.mark.parametrize("name", sorted(_intersection_branch_cases()))
def test_irrelevant_saturation_intersects_variable_saturations(name):
    I, expected = _intersection_branch_cases()[name]
    inside = lambda J: all(membership(g, I) for g in J.generators)
    assert not any(inside(saturate(I, x)) for x in I.ring.gens())
    S = saturate_irrelevant(I)
    assert ideal_equal(S, expected)
    assert all(membership(g, S) for g in I.generators)
    # every generator of S times a power of each variable lies in I
    for f in S.generators:
        for x in I.ring.gens():
            assert any(membership(f * x**k, I) for k in range(1, 6))
    assert hilbert_data(S).hp == hilbert_data(I).hp


def test_saturation_steps_and_bases_are_pinned():
    # saturation by a variable runs one degrevlex basis with that variable
    # ranked last; its step counts and its generators, in order, are
    # pinned, and so are those of the irrelevant saturation; the zero ideal
    # stays zero
    by_variable = {
        "embedded_point": [4, 4, 6],
        "plane_and_line": [3, 3, 3],
        "twisted_cubic": [7, 7, 7, 7],
        "twisted_cubic_times_m": [54, 52, 52, 54],
    }
    digest = hashlib.sha256()
    for name, I in sorted(_saturation_cases().items()):
        for x, steps in zip(I.ring.gens(), by_variable[name], strict=True):
            budget = StepBudget()
            S = saturate(I, x, budget)
            assert budget.used == steps, (name, x)
            digest.update(f"{name}\t{[str(g) for g in S.generators]}\n".encode())
    assert digest.hexdigest() == (
        "373c18381658262c2078632ead045da06e96fd67e3f271b50ba2c6d90ed853ec"
    )
    irrelevant = {
        "embedded_point": (67, ["x*y^2 - y*z^2", "x^2*y", "x*y*z^2", "y*z^4"]),
        "m_squared": (94, ["1", "z", "y", "z^2", "y*z", "y^2"]),
        "three_points": (71, ["y*z", "x*z", "x*y"]),
        "three_points_times_m": (182, ["y*z", "x*z", "x*y"]),
    }
    for name, (I, _) in sorted(_intersection_branch_cases().items()):
        budget = StepBudget()
        S = saturate_irrelevant(I, budget)
        assert (budget.used, [str(g) for g in S.generators]) == irrelevant[name], name
    P2 = Ring(["x", "y", "z"])
    assert all(saturate(Ideal(P2, []), x).is_zero() for x in P2.gens())


class _Captured(Exception):
    """Raised by the stand-in kernel below with the inputs it was handed."""


def _capture_kernel_inputs(polys, P, budget, hilbert=None):
    raise _Captured([list(t.items()) for t in polys], P.bits)


def _random_homogeneous_ideal(rng):
    ring = Ring([f"x{i}" for i in range(rng.randint(2, 5))])
    n = ring.nvars
    gens = []
    for _ in range(rng.randint(1, 5)):
        d = rng.randint(1, 3)
        monos = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
        picked = rng.sample(monos, rng.randint(1, min(4, len(monos))))
        coefficient = lambda: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
        gens.append(Poly(ring, {e: coefficient() for e in picked}))
    return Ideal(ring, gens)


def test_saturation_packs_the_moved_inputs(monkeypatch):
    # saturation by x packs I's own generators so that the kernel receives
    # exactly the packed ints, in exactly the order, that degrevlex gives
    # the generators moved to a ring with x last, sorted by leading key
    monkeypatch.setattr(groebner, "_buchberger_entries", _capture_kernel_inputs)
    for seed in range(40):
        I = _random_homogeneous_ideal(random.Random(seed))
        n = I.ring.nvars
        for var, x in enumerate(I.ring.gens()):
            with pytest.raises(_Captured) as got:
                saturate(I, x)
            inputs, bits = got.value.args
            assert bits == max(8, 4 * max(g.degree() for g in I.generators)).bit_length()
            gens, _ = moved_basis(I, var, [])
            gens = sorted(gens, key=lambda g: DEGREVLEX.key()(g.lead_monomial(DEGREVLEX)))
            P = _Packing(DEGREVLEX, n, bits)
            assert inputs == [list(_to_int_terms(g, P).items()) for g in gens], (seed, var)


def test_saturation_builds_no_ring(monkeypatch):
    # the moved order is a packing of I's own terms, not a copy of I in a
    # second ring: with `Ring` unusable inside groebner every saturation
    # still runs, and strips the irrelevant factor from the twisted cubic
    def refuse(*args):
        raise AssertionError("saturation built a Ring")

    monkeypatch.setattr(groebner, "Ring", refuse)
    cases = _saturation_cases()
    I = cases["twisted_cubic_times_m"]
    for x in I.ring.gens():
        assert ideal_equal(saturate(I, x), cases["twisted_cubic"])


def test_integer_division_matches_fraction_division_up_to_scalar():
    # _reduce_int rescales its working polynomial as it goes; the remainder
    # it has collected must be rescaled with it, or the result stops being
    # a positive multiple of the normal form reduce() computes
    ring = Ring(["x0", "x1", "x2", "x3"])
    quad, sextic = (
        [e for e in itertools.product(range(d + 1), repeat=4) if sum(e) == d]
        for d in (2, 6)
    )
    nonzero = [c for c in range(-30, 31) if c]

    def random_poly(rng, monos, lo, hi):
        terms = rng.sample(monos, rng.randint(lo, hi))
        return Poly(ring, {e: Fraction(rng.choice(nonzero)) for e in terms})

    for seed in range(250):
        rng = random.Random(seed)
        divisors = [random_poly(rng, quad, 2, 5) for _ in range(rng.randint(2, 4))]
        f = random_poly(rng, sextic, 8, 25)
        expected = reduce(f, divisors).terms
        P = _Packing(DEGREVLEX, 4, 4)
        entries = [_Entry(_to_int_terms(g, P), i, P) for i, g in enumerate(divisors)]
        leads = [g.lm for g in entries]
        got = _reduce_int(_to_int_terms(f, P), entries, leads, P, StepBudget())
        got = {P.unpack(e): c for e, c in got.items()}
        assert set(got) == set(expected), seed
        if got:
            e = next(iter(got))
            scale = got[e] / expected[e]
            assert scale > 0, seed
            assert all(got[e] == scale * c for e, c in expected.items()), seed


def _quadratic_partners(lm, leads):
    """The new-pair rule as a plain double loop: keep g unless its lead is
    coprime to lm, or some lcm(lm, g2) strictly divides lcm(lm, g)."""
    lcms = [tuple(max(a, b) for a, b in zip(lm, g)) for g in leads]
    kept = []
    for i, g in enumerate(leads):
        if all(a == 0 or b == 0 for a, b in zip(lm, g)):
            continue
        if any(l2 != lcms[i] and all(a <= b for a, b in zip(l2, lcms[i])) for l2 in lcms):
            continue
        kept.append(i)
    return kept


def test_gm_partners_match_quadratic_rule():
    equal_lcms = coprime = 0
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        lm = tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))
        leads = [
            tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
            for _ in range(rng.randint(0, 14))
        ]
        lcms = [tuple(map(max, lm, g)) for g in leads]
        equal_lcms += len(lcms) > len(set(lcms))
        coprime += any(all(a == 0 or b == 0 for a, b in zip(lm, g)) for g in leads)
        P = _Packing(DEGREVLEX, n, 4)
        got = _gm_partners(P.pack(lm), [P.pack(g) for g in leads], P)
        assert [i for i, _ in got] == _quadratic_partners(lm, leads), seed
        assert all(P.unpack(P.complete(l)) == tuple(map(max, lm, leads[i])) for i, l in got)
    # the random sets exercise ties and the product criterion
    assert equal_lcms > 50 and coprime > 50


def _line_times_quadric_base():
    return read_ideal(os.path.join(DATA, "line_times_quadric_base.ideal"))


@pytest.mark.parametrize(
    "make, order, steps",
    [
        (_twisted_cubic, DEGREVLEX, 7),
        (_twisted_cubic, LEX, 7),
        (elliptic_quintic_pfaffian, DEGREVLEX, 20),
        (_line_times_quadric_base, DEGREVLEX, 118),
        (_line_times_quadric_base, LEX, 558),
    ],
    ids=["twisted_cubic-degrevlex", "twisted_cubic-lex", "elliptic_quintic-degrevlex",
         "line_times_quadric_base-degrevlex", "line_times_quadric_base-lex"],
)
def test_buchberger_step_counts_pinned(make, order, steps):
    # counts recorded with the original double-loop pair update; the lex
    # run of line_times_quadric_base is one where the chain criterion
    # changes the count
    budget = StepBudget(10**9)
    buchberger(make(), order, budget)
    assert budget.used == steps


@pytest.mark.parametrize(
    "numerator, raises",
    [((1, 0, -3, 2), False), ((1,), True), ((1, 0, -3, 1), True), ((1, 0, -4, 3), True)],
    ids=["right", "too_large", "too_small_in_degree_3", "too_small_in_degree_2"],
)
def test_hilbert_driven_run_rejects_a_wrong_numerator(twisted_cubic, numerator, raises):
    # 1 - 3t^2 + 2t^3 is the twisted cubic's numerator; a Hilbert function
    # too large anywhere, or too small in a degree with pairs, raises
    # instead of returning a basis
    gb = buchberger(twisted_cubic, DEGREVLEX)
    assert hilbert_series_numerator([g.lead_monomial() for g in gb], 4) == (1, 0, -3, 2)
    order = MonomialOrder.elimination(1)
    P = _Packing(order, 4, 8)

    def run(hilbert):
        polys = [_to_int_terms(g, P) for g in twisted_cubic.generators]
        budget = StepBudget(10**6)
        return _reduced_basis(_buchberger_entries(polys, P, budget, hilbert), P, budget)

    if raises:
        with pytest.raises(HilbertMismatch):
            run(numerator)
    else:
        assert run(numerator) == run(None)


def test_inhomogeneous_eliminations_keep_their_step_counts():
    # intersect and image_ideal eliminate inhomogeneous ideals, which the
    # Hilbert function does not drive, so the plain run's counts hold
    base, comp, image = (read_ideal(os.path.join(DATA, f"quartic_curve_{name}.ideal"))
                         for name in ("base", "map", "image"))
    quartic_map = RationalMap(base.ring, image.ring, comp.generators)
    ring = Ring(["x", "y", "z"])
    x, y, _ = ring.gens()
    cubic = _twisted_cubic()
    squares = Ideal(cubic.ring, [v * v for v in cubic.ring.gens()])
    runs = [
        (lambda b: intersect(Ideal(ring, [x * x, y]), Ideal(ring, [x, y * y]), b), 15),
        (lambda b: intersect(cubic, squares, b), 141),
        (lambda b: image_ideal(quartic_map, b), 733),
        (lambda b: image_ideal(map_from_ideal(rational_normal_curve(4)), b), 2_243),
    ]
    for run, steps in runs:
        budget = StepBudget(10**8)
        run(budget)
        assert budget.used == steps


def _primitive_set(polys, key):
    """Each polynomial (a term dict) as sorted (exponent, integer
    coefficient) pairs, primitive with a positive leading coefficient
    under the order key."""
    out = set()
    for terms in polys:
        den = math.lcm(*(Fraction(c).denominator for c in terms.values()))
        ints = {e: int(Fraction(c) * den) for e, c in terms.items()}
        g = math.gcd(*ints.values())
        if ints[max(ints, key=key)] < 0:
            g = -g
        out.add(tuple(sorted((e, c // g) for e, c in ints.items())))
    return out




def _sympy_order(kind, n, rng):
    """Our order for one seeded case and the sympy order it must agree with."""
    from sympy.polys.orderings import ProductOrder, grevlex

    if kind == "lex":
        return LEX, "lex"
    if kind == "grevlex":
        return DEGREVLEX, "grevlex"
    k = rng.randint(1, n - 1)
    block = ProductOrder((grevlex, lambda m: m[:k]), (grevlex, lambda m: m[k:]))
    return MonomialOrder.elimination(k), block


@pytest.mark.parametrize("kind", ["lex", "grevlex", "elimination"])
def test_buchberger_matches_sympy_groebner(kind):
    sympy = pytest.importorskip("sympy")
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        ring = Ring([f"x{i}" for i in range(n)])
        gens = []
        for _ in range(rng.randint(2, 4)):
            d = rng.randint(1, 3)
            monos = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
            terms = rng.sample(monos, rng.randint(1, min(4, len(monos))))
            gens.append(Poly(ring, {e: Fraction(rng.choice((-3, -2, -1, 1, 2, 5))) for e in terms}))
        xs = sympy.symbols(ring.variables)
        order, sympy_order = _sympy_order(kind, n, rng)
        key = order.key()
        exprs = [
            sum(int(c) * sympy.prod(x**k for x, k in zip(xs, e)) for e, c in g.terms.items())
            for g in gens
        ]
        ref = sympy.groebner(exprs, *xs, order=sympy_order, domain="QQ")
        expected = _primitive_set((dict(p.as_poly(*xs).terms()) for p in ref.exprs), key)
        got = _primitive_set((g.terms for g in buchberger(gens, order)), key)
        assert got == expected, seed


def _packing_orders(n):
    """lex, degrevlex and each elimination order on n variables, block(n)
    included: every packed layout."""
    yield LEX
    yield DEGREVLEX
    for k in range(1, n + 1):
        yield MonomialOrder.elimination(k)


@pytest.mark.parametrize("n", range(1, 7))
def test_degrevlex_packs_as_the_one_block_order(n):
    for bits in (3, 8):
        drl = _Packing(DEGREVLEX, n, bits)
        one_block = _Packing(MonomialOrder.elimination(n), n, bits)
        for field in ("shifts", "guard", "blocks", "width"):
            assert getattr(drl, field) == getattr(one_block, field), (field, bits)


def _seeded_monomials(rng, n, fmax, count):
    """Exponent vectors of degree at most fmax, in pairs: a vector, then a
    random divisor of it.  The first vector and a quarter of the others put
    one variable at the field maximum; the rest split a random degree at
    random cut points."""
    out = []
    while len(out) < count:
        if not out or rng.random() < 0.25:
            e = [0] * n
            e[rng.randrange(n)] = fmax
        else:
            cuts = sorted(rng.randint(0, fmax) for _ in range(n - 1))
            d = rng.randint(cuts[-1] if cuts else 0, fmax)
            e = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        out.append(tuple(e))
        out.append(tuple(rng.randint(0, x) for x in e))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 7, 13])
def test_packed_monomials_match_exponent_tuples(n):
    rng = random.Random(n)
    for order in _packing_orders(n):
        key = order.key()
        for bits in (3, 4):
            P = _Packing(order, n, bits)
            monos = _seeded_monomials(rng, n, P.fmax, 24)
            assert any(P.fmax in e for e in monos)
            packed = [P.pack(e) for e in monos]
            assert [P.unpack(a) for a in packed] == monos
            for (e, a), (f, b) in itertools.product(zip(monos, packed), repeat=2):
                where = (order, bits, e, f)
                assert (a < b) == (key(e) < key(f)) and (a == b) == (e == f), where
                assert (not (b - a) & P.guard) == all(x <= y for x, y in zip(e, f)), where
                lcm = tuple(map(max, e, f))
                prod = tuple(x + y for x, y in zip(e, f))
                if sum(lcm) <= P.fmax:
                    assert P.complete(P.lcm_e(a, b)) == P.pack(lcm), where
                else:
                    with pytest.raises(_Overflow):
                        P.complete(P.lcm_e(a, b))
                if sum(prod) <= P.fmax:
                    assert a + b == P.pack(prod), where
                else:
                    with pytest.raises(_Overflow):
                        P.pack(prod)


def test_overflowing_basis_widens_its_fields():
    # the lex basis of x_i - x_(i+1)^2 holds x_0 - x_5^32, far wider than
    # the fields sized from the quadratic input: the run restarts with wider
    # fields and counts the steps of the wider run alone
    ring = Ring([f"x{i}" for i in range(6)])
    xs = ring.gens()
    gens = [xs[i] - xs[i + 1] * xs[i + 1] for i in range(5)]
    budget = StepBudget(10**6)
    gb = buchberger(gens, LEX, budget)
    expected = [ring.parse(f"x{i} - x5^{2 ** (5 - i)}") for i in range(5)]
    assert sorted(map(str, gb)) == sorted(map(str, expected))
    narrow = _Packing(LEX, 6, max(8, 4 * 2).bit_length())
    with pytest.raises(_Overflow):
        G = _buchberger_entries([_to_int_terms(g, narrow) for g in gens], narrow, StepBudget(10**6))
        _reduced_basis(G, narrow, StepBudget(10**6))
    wide = _Packing(LEX, 6, 8)
    direct = StepBudget(10**6)
    ordered = sorted(gens, key=lambda g: LEX.key()(g.lead_monomial(LEX)))
    G = _buchberger_entries([_to_int_terms(g, wide) for g in ordered], wide, direct)
    assert _reduced_basis(G, wide, direct) == [{e: int(c) for e, c in g.terms.items()} for g in gb]
    assert budget.used == direct.used
