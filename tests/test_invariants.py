import itertools
import random
from fractions import Fraction

import pytest

from quadbir.hilbert import poly_eval
from quadbir.invariants import (
    Infeasible,
    QUADRIC_FIBRATION,
    SCROLL_OVER_CURVE,
    SCROLL_OVER_SURFACE,
    castelnuovo_bound,
    coindex_delta,
    double_point,
    hilbert_poly_r4,
    hp_relations,
    k2_thresholds,
    liftability_certificate,
    normal_segre_from_chern,
    pushforward_degrees,
    r2_ddelta_identity,
    r2_delta_quotient,
    r4_chern_lattice,
    r4_relations,
    segre_chern,
    structure_formulas,
    structure_k3,
)


# --- Hilbert-polynomial relations -----------------------------------------

def test_hp_curve_cases():
    assert hp_relations(1, 4, 0, 0) == {"lam": 5, "g": 1}
    assert hp_relations(1, 3, 1, 1) == {"lam": 2, "g": 0}
    assert hp_relations(1, 4, 3, 1) == {"lam": 3, "g": 0}


def test_hp_surface_case():
    out = hp_relations(2, 6, 2, 0, g=1)
    assert out == {"chi": 1, "lam": 6}


def test_hp_threefold_case():
    assert hp_relations(3, 8, 1, 0, lam=11, g=5) == {"chi": 1}


def test_hp_fourfold_polynomial_values():
    rng = random.Random(3)
    for _ in range(25):
        lam, g, chi, a = (
            rng.randint(1, 30),
            rng.randint(0, 20),
            rng.randint(-3, 3),
            rng.randint(0, 10),
        )
        hp = hilbert_poly_r4(lam, g, chi, a)
        assert poly_eval(hp, 1) == 11
        assert poly_eval(hp, 2) == 55 - a
        assert poly_eval(hp, 0) == chi


def test_hp_fourfold_is_pinned_to_p10():
    # the r=4 polynomial is pinned at 11 and 55 - a, which holds in P^10
    # with eps = 0 only; any other (n, eps) is refused, not answered
    hp = hp_relations(4, 10, 7, 0, lam=10, g=3, chi=1)
    assert hp == {"hp": hilbert_poly_r4(10, 3, 1, 7)}
    for n, eps in ((9, 1), (9, 0), (10, 1), (11, 0)):
        with pytest.raises(ValueError, match="pinned for n=10, eps=0"):
            hp_relations(4, n, 7, eps, lam=10, g=3, chi=1)


def test_hp_infeasible_is_flagged():
    with pytest.raises(Infeasible):
        hp_relations(2, 6, 0, 0, g=0)  # quarter-integer chi


def test_hp_relations_refuse_contradicting_given_values():
    with pytest.raises(Infeasible, match="given lam=9 g=1, derived lam=5 g=1"):
        hp_relations(1, 4, 0, 0, lam=9, g=1)
    with pytest.raises(Infeasible, match="given lam=6, derived lam=7"):
        hp_relations(2, 6, 0, 0, g=1, lam=6)
    with pytest.raises(Infeasible, match="given chi=5, derived chi=1"):
        hp_relations(3, 8, 4, 0, lam=8, g=2, chi=5)
    # values that agree are accepted, and the result is what it was
    assert hp_relations(1, 4, 0, 0, lam=5, g=1) == {"lam": 5, "g": 1}
    assert hp_relations(2, 6, 2, 0, g=1, lam=6, chi=1) == {"chi": 1, "lam": 6}
    assert hp_relations(3, 8, 4, 0, lam=8, g=2, chi=1) == {"chi": 1}


# --- Segre/Chern displays ---------------------------------------------------

def test_segre_chern_curve_case():
    prof, der = segre_chern(1, 4, 5, 1)
    assert prof.c == (0,) and prof.s == (-25,)
    assert der == {"d": 3, "Delta": 1}


def test_segre_chern_surface_product():
    _, der = segre_chern(2, 6, 6, 1)
    assert der["dDelta"] == 8
    assert r2_ddelta_identity(2) == 8


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 4, 5, 1, 2, 7), "given d=2 Delta=7, derived d=3 Delta=1"),
        ((1, 4, 5, 1, None, 2), "given Delta=2, derived Delta=1"),
        ((2, 6, 6, 1, 5, 1), "given dDelta=5, derived dDelta=8"),
    ],
)
def test_segre_chern_refuses_contradicting_given_values(args, message):
    with pytest.raises(Infeasible, match=message):
        segre_chern(*args)
    # values that agree, or that r = 2 and 3 cannot check alone, pass
    assert segre_chern(1, 4, 5, 1, 3, 1)[1] == {"d": 3, "Delta": 1}
    assert segre_chern(2, 6, 6, 1, 5)[1] == {"dDelta": 8}
    assert segre_chern(3, 8, 11, 5, None, 2)[1] == {}


def test_segre_chern_threefold_triples():
    cases = {
        (11, 5, 4, 2): (-85, 386, -1330),
        (10, 4, 3, 4): (-76, 340, -1156),
        (9, 3, 2, 8): (-67, 294, -984),
        (9, 3, 3, 5): (-67, 295, -997),
    }
    for (lam, g, d, Delta), expected in cases.items():
        prof, _ = segre_chern(3, 8, lam, g, d, Delta)
        assert prof.s == expected


def _displays(r, n, lam, g, d=None, Delta=None):
    """The paper's displayed closed forms, transcribed term for term: for
    r=1 the class profile with d (None when its denominator vanishes) and
    Delta; for r=2 the profile with d*Delta, and c2, s2 once Delta is
    given; for r=3 c2, c3, s2, s3 from d and Delta."""
    t = 2**n
    if r == 1:
        den = (2 * n - 2) * lam - 2 * t - 4 * g + 4
        d_f = Fraction(2 * lam - t, den) if den else None
        c, s = [2 - 2 * g], [(-n - 1) * lam - 2 * g + 2]
        return c, s, {"d": d_f, "Delta": (1 - n) * lam + t + 2 * g - 2}
    if r == 2:
        c, s = [lam - 2 * g + 2], [-n * lam - 2 * g + 2]
        derived = {"dDelta": (2 - n) * lam + t // 2 + 2 * g - 2}
        if Delta is not None:
            c.append(-Fraction(
                (n * n - 3 * n) * lam - 2 * t + (4 - 4 * g) * n + 4 * g + 2 * Delta - 4, 2
            ))
            s.append(2 * n * lam + t + (4 * g - 4) * n - Delta)
        return c, s, derived
    if d is None or Delta is None:
        return [2 * lam - 2 * g + 2], [(1 - n) * lam - 2 * g + 2], {}
    dd = d * Delta
    c = [
        2 * lam - 2 * g + 2,
        -Fraction((n * n - 5 * n + 2) * lam - t + (4 - 4 * g) * n + 12 * g + 2 * dd - 12, 2),
        Fraction(
            (2 * n**3 - 12 * n * n + 22 * n - 12) * lam + 9 * t
            + n * (-3 * t + 18 * g + 6 * dd - 18) + (6 - 6 * g) * n * n
            - 24 * g + (-6 * d - 6) * Delta + 24,
            6,
        ),
    ]
    s = [
        (1 - n) * lam - 2 * g + 2,
        Fraction((4 * n - 4) * lam + t + (8 * g - 8) * n - 8 * g - 2 * dd + 8, 2),
        Fraction(
            (2 * n**3 - 12 * n * n + 10 * n) * lam + 3 * t
            + n * (-3 * t + 12 * g + 6 * dd - 12) + (12 - 12 * g) * n * n - 3 * Delta,
            3,
        ),
    ]
    return c, s, {"dDelta": dd}


@pytest.mark.parametrize("r", [1, 2, 3])
def test_segre_chern_matches_the_displays(r):
    # segre_chern solves the Segre-Chern expansion and the pushforward;
    # the paper's displays, kept here as written, check it independently
    infeasible = 0
    for n in range(r + 1, 13):
        dds = [(None, None)] if r == 1 else itertools.product(
            (None, 1, 2, 4) if r == 3 else (None,), (None, 1, 5, 19, 29)
        )
        for lam, g, (d, Delta) in itertools.product(range(-2, 15), range(0, 9), list(dds)):
            c, s, derived = _displays(r, n, lam, g, d, Delta)
            if r == 1 and (derived["d"] is None or derived["d"].denominator != 1):
                with pytest.raises(Infeasible):
                    segre_chern(r, n, lam, g, d, Delta)
                infeasible += 1
                continue
            prof, got = segre_chern(r, n, lam, g, d, Delta)
            assert (prof.r, prof.c, prof.s, got) == (r, tuple(c), tuple(s), derived)
    assert infeasible or r > 1


@pytest.mark.parametrize("r, n", [(1, 1), (1, -1), (2, 2), (3, 2)])
def test_segre_chern_needs_r_below_n(r, n):
    with pytest.raises(ValueError, match="need r < n"):
        segre_chern(r, n, 1, 0, 1, 1)


def test_normal_segre_from_chern_takes_a_prefix():
    # c_1..c_k for k <= r gives s_1..s_k, the first k of the full expansion
    full = normal_segre_from_chern(3, 8, 10, (12, 15, 6))
    assert full == (-78, 357, -1239)
    assert normal_segre_from_chern(3, 8, 10, (12,)) == full[:1]
    assert normal_segre_from_chern(3, 8, 10, (12, 15)) == full[:2]
    with pytest.raises(ValueError):
        normal_segre_from_chern(2, 8, 10, (12, 15, 6))


# --- pushforward coefficient gate -------------------------------------------

def test_pushforward_coefficient_gate():
    # the (r=3, n=8) specialization must weigh lam, s1, s2, s3 by
    # -448, -112, -16, -1 with constant +256 on the full power, and by
    # -84, -14, -1 with constant +128 on the mixed power
    base = pushforward_degrees(3, 8, 0, [0, 0, 0])
    assert base == (256, 128)
    lam_w = pushforward_degrees(3, 8, 1, [0, 0, 0])
    assert (lam_w[0] - 256, lam_w[1] - 128) == (-448, -84)
    s1_w = pushforward_degrees(3, 8, 0, [1, 0, 0])
    assert (s1_w[0] - 256, s1_w[1] - 128) == (-112, -14)
    s2_w = pushforward_degrees(3, 8, 0, [0, 1, 0])
    assert (s2_w[0] - 256, s2_w[1] - 128) == (-16, -1)
    s3_w = pushforward_degrees(3, 8, 0, [0, 0, 1])
    assert (s3_w[0] - 256, s3_w[1] - 128) == (-1, 0)


def test_pushforward_reproduces_recorded_degrees():
    assert pushforward_degrees(3, 8, 8, [-60, 267, -909])[0] == 29
    assert pushforward_degrees(3, 8, 10, [-76, 340, -1156])[0] == 4
    deg, d_delta = pushforward_degrees(3, 8, 7, [-49, 201, -627])
    assert (deg, d_delta) == (19, 25)
    assert not liftability_certificate(deg, d_delta)


# --- double point formula ----------------------------------------------------

def test_double_point_residuals():
    assert double_point(1, 5, 1, 3) == 0
    assert double_point(1, 3, 0, 1) == 0
    assert double_point(2, 7, 2, 3, 2, 1) == 0
    k3 = structure_k3(QUADRIC_FIBRATION, 8, 2)
    assert k3 == -8 * 8 + 24 * 2 - 24
    assert double_point(3, 8, 2, 2, 10, 4, k3=k3) == 0
    k3_scroll = structure_k3(SCROLL_OVER_CURVE, 6, 0)
    assert double_point(3, 6, 0, 2, 14, 6, k3=k3_scroll) == 0


def test_r2_delta_quotient_rows():
    # the four nondegenerate surface solutions
    rows = [(0, 7, 1, 4, 1), (1, 7, 2, 3, 2), (2, 6, 1, 2, 4), (3, 5, 0, 2, 5)]
    for a, lam, g, d, Delta in rows:
        assert r2_ddelta_identity(a) == d * Delta
        assert r2_delta_quotient(g, a, d) == Delta


# --- structure systems --------------------------------------------------------

def test_quadric_fibration_solutions():
    assert structure_formulas(QUADRIC_FIBRATION, 9, 3, 3) == [{"d": 3, "Delta": 5}]
    assert structure_formulas(QUADRIC_FIBRATION, 8, 2, 4) == [{"d": 2, "Delta": 10}]
    # no integer solution away from the two listed gaps
    assert structure_formulas(QUADRIC_FIBRATION, 10, 4, 2) == []
    # a given d pins the solution, as for the surface scroll
    assert structure_formulas(QUADRIC_FIBRATION, 9, 3, 3, d=7) == []
    assert structure_formulas(QUADRIC_FIBRATION, 9, 3, 3, d=3) == [{"d": 3, "Delta": 5}]


def test_scroll_over_curve_unique_solution():
    assert structure_formulas(SCROLL_OVER_CURVE, 6, 0, 6) == [{"d": 2, "Delta": 14}]
    assert structure_formulas(SCROLL_OVER_CURVE, 6, 0, 6, d=1) == []
    for a, lam, g in [(0, 12, 6), (1, 11, 5), (4, 8, 2), (5, 7, 1)]:
        assert structure_formulas(SCROLL_OVER_CURVE, lam, g, a) == []


def test_structure_systems_match_displayed_pairs():
    # the displayed (d*Delta, second equation) pairs, solved by brute force,
    # against `structure_formulas`, which takes its second equation from the
    # double-point formula
    displayed = {
        QUADRIC_FIBRATION: (
            lambda lam, g, a: 23 * lam - 16 * g + 12 * a - 180,
            lambda lam, g, a, d, Delta: Delta + 4 * d
            == lam * lam - 130 * lam + 64 * g - 48 * a + 1058,
        ),
        SCROLL_OVER_CURVE: (
            lambda lam, g, a: 22 * lam - 20 * g + 12 * a - 176,
            lambda lam, g, a, d, Delta: (7 * d + 1) * Delta + 4 * d
            == lam * lam + 23 * lam - 78 * g + 36 * a - 172,
        ),
    }
    solutions = 0
    for lam in range(1, 30):
        for g in range(0, 25):
            for a in range(0, 13):
                for kind in (QUADRIC_FIBRATION, SCROLL_OVER_CURVE, SCROLL_OVER_SURFACE):
                    sols = structure_formulas(kind, lam, g, a)
                    if kind in displayed:
                        product, second = displayed[kind]
                        dd = product(lam, g, a)
                        expected = [
                            {"d": d, "Delta": dd // d}
                            for d in range(1, dd + 1)
                            if dd % d == 0 and second(lam, g, a, d, dd // d)
                        ]
                        assert sols == expected, (kind, lam, g, a)
                    for s in sols:
                        k3 = structure_k3(kind, lam, g, a, s["d"] * s["Delta"])
                        assert double_point(3, lam, g, s["d"], s["Delta"], a, k3=k3) == 0
                    solutions += len(sols)
    assert solutions == 18087


def test_scroll_over_surface_quotients():
    out = structure_formulas(SCROLL_OVER_SURFACE, 12, 6, 0, d=5)
    assert out == [{"d": 5, "Delta": 1, "c2_base": 7}]
    scan = structure_formulas(SCROLL_OVER_SURFACE, 10, 4, 2)
    assert {"d": 3, "Delta": 4, "c2_base": 4} in scan


# --- coindex, thresholds, genus bound -----------------------------------------

def test_coindex_delta_values():
    assert coindex_delta(3, 8, 3) == (2, 0, 6, 5)
    assert coindex_delta(1, 3, 1) == (1, 1, 0, 1)
    assert coindex_delta(2, 6, 4) == (0, 0, 4, 7)


@pytest.mark.parametrize("r, n", [(3, 2), (2, 2), (1, -1)])
def test_coindex_and_hilbert_relations_need_r_below_n(r, n):
    with pytest.raises(ValueError, match="need r < n"):
        coindex_delta(r, n, 1)
    with pytest.raises(ValueError, match="need r < n"):
        hp_relations(r, n, 0, 0, lam=1, g=0)


def test_k2_thresholds():
    flags = k2_thresholds(10, 5)
    assert (flags["acm"], flags["quadric_generated"], flags["linear_syzygies"]) == (
        True,
        True,
        False,
    )
    flags = k2_thresholds(11, 5)
    assert (flags["acm"], flags["quadric_generated"], flags["linear_syzygies"]) == (
        True,
        False,
        False,
    )
    assert all(k2_thresholds(1, 5).values())


def test_castelnuovo_bound_values():
    assert castelnuovo_bound(12, 6) == 7
    assert castelnuovo_bound(11, 6) == 5
    assert castelnuovo_bound(7, 7) == 0
    with pytest.raises(ValueError):
        castelnuovo_bound(3, 8)


# --- dimension four ------------------------------------------------------------

def test_r4_relations_constants():
    assert r4_relations(0, 0, 1, 0) == (3396, -5716)


def test_r4_elliptic_scroll_rejection():
    first, second = r4_relations(11, 1, 6, 1)
    assert first == 990
    with pytest.raises(Infeasible):
        r4_chern_lattice(first, second, 0)


def test_r4_scroll_lattice():
    first, second = r4_relations(7, 0, 2, 14)
    assert (first, second) == (1541, -501)
    # the feasible residue class of c4 modulo 37
    feasible = [c4 for c4 in range(37) if (first + c4) % 37 == 0]
    assert feasible == [13]
    c2h2, c3h = r4_chern_lattice(first, second, 13)
    assert 37 * c2h2 - 13 == first
    assert 37 * c3h + 7 * 13 == second
