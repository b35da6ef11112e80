import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from quadbir.groebner import (
    Ideal,
    StepBudget,
    _buchberger_entries,
    _reduced_basis,
    _to_int_terms,
    _widening,
    buchberger,
    eliminate,
    ideal_equal,
    membership,
)
from quadbir.hilbert import graded_piece, hilbert_data
from quadbir.ideal_io import read_ideal
from quadbir.maps import (
    NotACertificate,
    RationalMap,
    ambient_gap,
    common_factor_degree,
    composition_identity,
    forward_annihilation,
    graph_ideal,
    image_forms,
    image_ideal,
    jacobian,
    map_from_ideal,
    map_type,
    minor_ideal,
    nonzero_minors,
    secant_ideal,
    singular_locus,
    smooth_certificate,
    solve_inverse,
    sum_and_difference_ideal,
)
from quadbir.polyring import MonomialOrder, Poly, Ring
from quadbir.varieties import elliptic_quintic_pfaffian, in_hyperplane, rational_normal_curve

DATA = os.path.join(
    os.path.dirname(__file__), "..", "src", "quadbir", "data", "ideals"
)


def _load(name):
    return read_ideal(os.path.join(DATA, name))


@pytest.fixture
def quadric_in_hyperplane():
    ring = Ring(["x0", "x1", "x2", "x3", "x4"])
    return Ideal(ring, [ring.parse("x0*x2 - x1^2"), ring.parse("x4")])


@pytest.fixture
def quartic_map():
    X = _load("quartic_curve_base.ideal")
    comp = _load("quartic_curve_map.ideal")
    S = _load("quartic_curve_image.ideal")
    return RationalMap(X.ring, S.ring, comp.generators), S


def test_map_from_ideal_counts(quadric_in_hyperplane):
    F = map_from_ideal(quadric_in_hyperplane)
    assert len(F.components) == 6
    assert ambient_gap(F) == 1
    tc = in_hyperplane(rational_normal_curve(3))
    F2 = map_from_ideal(tc)
    assert len(F2.components) == 8
    assert ambient_gap(F2) == 3
    X18 = _load("line_times_quadric_base.ideal")
    F3 = map_from_ideal(X18)
    assert len(F3.components) == 13
    assert ambient_gap(F3) == 4


def test_ambient_gap_matches_graded_piece(quadric_in_hyperplane):
    for I in (quadric_in_hyperplane, in_hyperplane(rational_normal_curve(3))):
        F = map_from_ideal(I)
        n = I.ring.nvars - 1
        assert ambient_gap(F) == graded_piece(I, 2)[0] - (n + 1)


def test_forward_annihilation(quartic_map):
    F, S = quartic_map
    assert forward_annihilation(F, S.ring.zero())
    for g in S.generators:
        assert forward_annihilation(F, g)


def test_forward_annihilation_implied_by_image_membership(quartic_map):
    F, _ = quartic_map
    img = image_ideal(F)
    for g in img.generators:
        assert forward_annihilation(F, g)
    # and a form NOT annihilating the map lies outside the image ideal
    probe = F.target_ring.parse("y0^2")
    assert not forward_annihilation(F, probe)
    assert not membership(probe, img)


def test_image_of_conic_parametrization():
    P1 = Ring(["s", "t"])
    s, t = P1.gens()
    F = RationalMap(P1, Ring(["y0", "y1", "y2"]), (s * s, s * t, t * t))
    img = image_ideal(F)
    assert [str(g) for g in img.generators] == ["y1^2 - y0*y2"]


def test_image_of_quadric_slice_map(quadric_in_hyperplane):
    ring = Ring(["x0", "x1", "x2", "x3"])
    I = Ideal(ring, [ring.parse("x0*x2 - x1^2"), ring.parse("x3")])
    F = map_from_ideal(I)
    img = image_ideal(F)
    hd = hilbert_data(img)
    assert (hd.dim_proj, hd.degree) == (3, 2)


def test_image_equals_recorded(quartic_map):
    F, S = quartic_map
    img = image_ideal(F)
    assert ideal_equal(img, S)
    assert hilbert_data(img).dim_proj == 4


def test_singular_locus_of_smooth_quadric():
    ring = Ring(["y0", "y1", "y2", "y3"])
    q = ring.parse("y0*y3 - y1*y2")
    sing = singular_locus(Ideal(ring, [q]), 1)
    from quadbir.groebner import contains_one

    assert contains_one(sing)


@pytest.mark.parametrize("codim", [0, -1])
def test_minors_refuse_a_codim_below_one(codim):
    ring = Ring(["y0", "y1", "y2", "y3"])
    I = Ideal(ring, [ring.parse("y0*y3 - y1*y2")])
    for entry in (minor_ideal, singular_locus):
        with pytest.raises(ValueError, match="need codim >= 1"):
            entry(I, codim)


def test_unsaturated_minor_ideal_gives_the_singular_hilbert_polynomial():
    # the quartic fourfold image is singular along a line with embedded
    # structure: its Jacobian-minor ideal and that ideal's saturation both
    # have Hilbert polynomial t + 5
    S = _load("quartic_curve_image.ideal")
    J = minor_ideal(S, 2)
    unsaturated, saturated = hilbert_data(J), hilbert_data(singular_locus(S, 2))
    assert unsaturated.hp_str() == saturated.hp_str() == "t + 5"
    assert unsaturated.dim_proj == saturated.dim_proj == 1
    # the Hilbert function is that of J as given: the two image quadrics and
    # the 17 span rows leave 28 - 19 = 9 quadrics outside J
    assert unsaturated.hilbert_function(6) == [1, 7, 9, 9, 9, 10, 11]


def test_smooth_certificates():
    assert smooth_certificate(elliptic_quintic_pfaffian(), 1)
    X18 = _load("line_times_quadric_base.ideal")
    assert smooth_certificate(X18, 3)
    # a nodal cubic is refused
    ring = Ring(["x", "y", "z"])
    nodal = Ideal(ring, [ring.parse("x^3 + y^3 - x*y*z")])
    assert smooth_certificate(nodal, 1) is False


def test_composition_identity_and_type(quartic_map):
    F, S = quartic_map
    G = solve_inverse(F, 1)
    assert G is not None
    assert composition_identity(F, G)
    assert map_type(F, G) == (2, 1)
    # inverse base locus is the recorded line
    assert sorted(str(c) for c in G.components) == ["y2", "y3", "y4", "y5", "y6"]


def test_composition_identity_on_recorded_inverse():
    X = _load("line_times_quadric_base.ideal")
    S = _load("line_times_quadric_image.ideal")
    inv = _load("line_times_quadric_inverse.ideal")
    F = RationalMap(X.ring, S.ring, X.generators)
    G = RationalMap(S.ring, X.ring, inv.generators)
    assert composition_identity(F, G)
    assert map_type(F, G) == (2, 2)


def test_composition_rejects_zero_composite(quartic_map):
    F, S = quartic_map
    zero_like = [S.ring.zero()] * 4 + [S.ring.zero()]
    with pytest.raises(ValueError):
        RationalMap(S.ring, F.source_ring, tuple(zero_like))
    # a components vector that collapses to zero after substitution
    g = S.generators[0]
    ys = S.ring.gens()
    collapse = RationalMap(
        S.ring, F.source_ring, tuple(g * ys[i] for i in range(5))
    )
    with pytest.raises(NotACertificate):
        composition_identity(F, collapse)


def test_veronese_toy_type():
    P1 = Ring(["s", "t"])
    s, t = P1.gens()
    F = RationalMap(P1, Ring(["y0", "y1", "y2"]), (s * s, s * t, t * t))
    G = solve_inverse(F, 1)
    assert G is not None and map_type(F, G) == (2, 1)


def test_image_forms_matches_elimination(quartic_map):
    F, S = quartic_map
    quads = image_forms(F, 2)
    assert len(quads) == 2
    assert ideal_equal(Ideal(S.ring, quads), S)


def test_secant_of_twisted_cubic_in_p4():
    I = in_hyperplane(rational_normal_curve(3))
    sec = secant_ideal(I)
    assert [str(g) for g in sec.generators] == ["x4"]
    # degree law: a linear secant hypersurface matches inverse degree one
    assert sec.generators[0].degree() == 2 * 1 - 1


def test_secant_of_two_skew_lines_fills_space():
    ring = Ring(["x0", "x1", "x2", "x3"])
    x = ring.gens()
    lines = Ideal(ring, [x[0] * x[2], x[0] * x[3], x[1] * x[2], x[1] * x[3]])
    sec = secant_ideal(lines)
    assert sec.is_zero()


def _two_copy_ideal(I):
    """I(u) + I(w) + (x - u - w) in QQ[u, w, x], built here independently
    of secant_ideal."""
    n = I.ring.nvars
    big = Ring([f"u{i}" for i in range(n)] + [f"w{i}" for i in range(n)] + list(I.ring.variables))
    z = big.gens()
    u, w, x = z[:n], z[n : 2 * n], z[2 * n :]
    gens = [g.substitute(u) for g in I.generators] + [g.substitute(w) for g in I.generators]
    gens += [x[i] - u[i] - w[i] for i in range(n)]
    return Ideal(big, gens)


def _two_copy_secant(I):
    """The secant ideal as the elimination of u and w from the two-copy ideal."""
    return eliminate(_two_copy_ideal(I), 2 * I.ring.nvars)


def _hankel_det(ring):
    """The 3x3 Hankel determinant det(x_{i+j}) by the rule of Sarrus."""
    x = ring.gens()
    h = [[x[i + j] for j in range(3)] for i in range(3)]
    total = ring.zero()
    for k in range(3):
        total = total + h[0][k] * h[1][(k + 1) % 3] * h[2][(k + 2) % 3]
        total = total - h[0][k] * h[1][(k + 2) % 3] * h[2][(k + 1) % 3]
    return total


def test_secant_of_rational_normal_quartic_is_the_hankel_determinant():
    I = rational_normal_curve(4)
    budget = StepBudget()
    sec = secant_ideal(I, budget)
    assert [str(g) for g in sec.generators] == [
        "x2^3 - 2*x1*x2*x3 + x0*x3^2 + x1^2*x4 - x0*x2*x4"
    ]
    assert sec.generators[0] == -_hankel_det(I.ring)
    # the exact step count: a change in the elimination shows here
    assert budget.used == 2_001


def test_secant_equals_two_copy_elimination():
    ring = Ring(["x0", "x1", "x2", "x3"])
    x = ring.gens()
    lines = Ideal(ring, [x[0] * x[2], x[0] * x[3], x[1] * x[2], x[1] * x[3]])
    abc = Ring(["a", "b", "c"])
    inhomogeneous = Ideal(abc, [abc.parse("a^2 - b + 1"), abc.parse("a*c - 2")])
    cases = [rational_normal_curve(3), rational_normal_curve(4),
             in_hyperplane(rational_normal_curve(3)), lines, inhomogeneous]
    for I in cases:
        sec = secant_ideal(I)
        assert sec.ring == I.ring
        assert sec.generators == _two_copy_secant(I).generators
    assert [str(g) for g in secant_ideal(inhomogeneous).generators] == [
        "a^2*c - b*c - 4*a + 2*c"
    ]


def _undriven_basis(J, order, budget):
    """J's reduced basis under the order from the plain pair loop, which no
    Hilbert function drives."""
    key = order.key()
    ordered = sorted(J.generators, key=lambda g: key(g.lead_monomial(order)))

    def run(P):
        G = _buchberger_entries([_to_int_terms(g, P) for g in ordered], P, budget)
        return _reduced_basis(G, P, budget)

    degree = max(g.degree() for g in J.generators)
    reduced = _widening(order, J.ring.nvars, degree, budget, run)
    return tuple(Poly(J.ring, {e: Fraction(v) for e, v in t.items()}) for t in reduced)


@pytest.mark.parametrize(
    "make, drop, steps",
    [
        (lambda: sum_and_difference_ideal(rational_normal_curve(3)), 4, (308, 234)),
        (lambda: sum_and_difference_ideal(rational_normal_curve(4)), 5, (2_176, 2_001)),
        (lambda: sum_and_difference_ideal(elliptic_quintic_pfaffian()), 5, (164_548, 6_900)),
        (lambda: _two_copy_ideal(rational_normal_curve(4)), 10, (3_426, 2_791)),
    ],
    ids=["twisted_cubic", "rational_normal_quartic", "elliptic_quintic", "two_copy_quartic"],
)
def test_hilbert_driven_elimination_matches_the_plain_run(make, drop, steps):
    # homogeneous input under an elimination order takes the Hilbert-driven
    # run, degrevlex pass included in its steps; the full elimination basis
    # is the one the plain pair loop finds
    J = make()
    order = MonomialOrder.elimination(drop)
    plain, driven = StepBudget(10**9), StepBudget(10**9)
    assert buchberger(J, order, driven) == _undriven_basis(J, order, plain)
    assert (plain.used, driven.used) == steps


def test_secant_helper_names_avoid_the_ring_variables():
    for names in (["x", "u_x"], ["x", "t_x"]):
        ring = Ring(names)
        x, y = ring.gens()
        assert secant_ideal(Ideal(ring, [x * y])).is_zero()
    # the rational normal quartic in coordinates named like the helpers
    names = ["t_x0", "x0", "t_t_x0", "t_x01", "x1"]
    ring = Ring(names)
    renamed = Ideal(ring, [g.substitute(ring.gens()) for g in rational_normal_curve(4).generators])
    (g,) = secant_ideal(renamed).generators
    assert g == -_hankel_det(ring)


def test_image_of_a_self_map():
    # the standard Cremona involution of P^2, source and target one ring
    R = Ring(["x0", "x1", "x2"])
    x0, x1, x2 = R.gens()
    F = RationalMap(R, R, (x1 * x2, x0 * x2, x0 * x1))
    _, big = graph_ideal(F)
    assert big.variables[3:] == R.variables
    img = image_ideal(F)
    assert img.ring == R
    assert img.is_zero()


def test_composition_identity_of_identity_maps():
    ring = Ring(["x0", "x1", "x2"])
    F = RationalMap(ring, Ring(["y0", "y1", "y2"]), tuple(ring.gens()))
    G = RationalMap(F.target_ring, Ring(["x0", "x1", "x2"]), tuple(F.target_ring.gens()))
    assert composition_identity(F, G)
    assert map_type(F, G) == (1, 1)


def test_common_factor_degree_on_known_products():
    ring = Ring(["x", "y", "z", "w"])
    p = ring.parse
    a, b, c = p("x^2 + y*w"), p("z*w - x*y + 3*z^2"), p("x*z - w^2")
    linear, quadric = p("x + 2*y - z"), p("x*z - y^2 + w^2")
    assert common_factor_degree([linear * a, linear * b, linear * c]) == 1
    assert common_factor_degree([linear * a, linear * b, c]) == 0
    assert common_factor_degree([quadric * a, quadric * b]) == 2
    assert common_factor_degree([linear * quadric * a, quadric * b * c]) == 2
    # a common monomial factor, and a monomial in one form only
    assert common_factor_degree([p("x*y*z"), p("x*y*w"), p("x^2*y")]) == 2
    assert common_factor_degree([p("x*y") * a, p("y^2") * b]) == 1
    # coprime forms, a single form, and zero forms left out
    assert common_factor_degree([a, b, c]) == 0
    assert common_factor_degree([quadric * a]) == 4
    assert common_factor_degree([ring.zero(), a * b, ring.zero(), a * c]) == 2


def test_map_type_removes_a_common_quadric_factor():
    # G = h * identity is the identity map with degree-3 components; its
    # reduced type is (1, 1)
    ring = Ring(["x0", "x1", "x2"])
    F = RationalMap(ring, Ring(["y0", "y1", "y2"]), tuple(ring.gens()))
    h = F.target_ring.parse("y0*y1 - y2^2 + 2*y0*y2")
    G = RationalMap(F.target_ring, ring, tuple(h * y for y in F.target_ring.gens()))
    assert G.degree == 3
    assert map_type(F, G) == (1, 1)


def test_secant_degree_law_for_linear_inverse():
    # where both the secant variety and the inverse degree complete, the
    # secant hypersurface has degree 2d - 1
    I = in_hyperplane(rational_normal_curve(3))
    F = map_from_ideal(I)
    G = solve_inverse(F, 1)
    assert G is not None
    _, d = map_type(F, G)
    sec = secant_ideal(I)
    assert len(sec.generators) == 1
    assert sec.generators[0].degree() == 2 * d - 1


def _cofactor_minor(mat, rows, cols, ring):
    """Memo-free cofactor expansion along the first row."""
    if len(rows) == 1:
        return mat[rows[0]][cols[0]]
    total = ring.zero()
    for k, c in enumerate(cols):
        e = mat[rows[0]][c]
        if not e:
            continue
        sub = _cofactor_minor(mat, rows[1:], cols[:k] + cols[k + 1 :], ring)
        if not sub:
            continue
        t = e * sub
        total = total + t if k % 2 == 0 else total - t
    return total


@pytest.mark.parametrize(
    "ideal, k",
    [(rational_normal_curve(3), 2), (elliptic_quintic_pfaffian(), 3)],
    ids=["twisted_cubic_2x2", "elliptic_quintic_3x3"],
)
def test_memoized_minors_match_cofactor_expansion(ideal, k):
    ring = ideal.ring
    jac = jacobian(ideal.generators, ring)
    expected = []
    for rows in itertools.combinations(range(len(jac)), k):
        for cols in itertools.combinations(range(ring.nvars), k):
            d = _cofactor_minor(jac, rows, cols, ring)
            if d:
                expected.append(list(d.terms.items()))
    got = [list(d.terms.items()) for d in nonzero_minors(jac, k, ring)]
    assert expected
    assert got == expected


def _coefficient_rank(polys):
    """Rank over QQ of the polynomials' coefficient vectors, by plain dense
    elimination on their monomials."""
    monos = sorted({e for p in polys for e in p.terms})
    mat = [[p.terms.get(e, 0) for e in monos] for p in polys]
    rank = 0
    for c in range(len(monos)):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] / mat[rank][c]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize(
    "ideal, k",
    [
        (rational_normal_curve(3), 2),
        (elliptic_quintic_pfaffian(), 3),
        (_load("quartic_curve_image.ideal"), 2),
    ],
    ids=["twisted_cubic", "elliptic_quintic", "singular_quartic"],
)
def test_minor_ideal_is_the_span_of_the_minors(ideal, k):
    ring = ideal.ring
    raw = list(nonzero_minors(jacobian(ideal.generators, ring), k, ring))
    J = minor_ideal(ideal, k)
    n = len(ideal.generators)
    assert J.generators[:n] == ideal.generators
    span = J.generators[n:]
    assert len(span) == _coefficient_rank(raw) == _coefficient_rank(raw + list(span))
    # reduced echelon rows: monic, and each degrevlex lead occurs in no other
    leads = [g.lead_monomial() for g in span]
    assert all(g.terms[m] == 1 for g, m in zip(span, leads))
    assert all(m not in h.terms for m in leads for h in span if h.lead_monomial() != m)
    assert ideal_equal(J, Ideal(ring, ideal.generators + tuple(raw)))


_CYCLE_SCRIPT = """
import gc
from quadbir.hilbert import graded_piece, hilbert_data
from quadbir.ideal_io import read_ideal
from quadbir.maps import minor_ideal
from quadbir.varieties import elliptic_quintic_pfaffian

image = read_ideal({path!r})
quintic = elliptic_quintic_pfaffian()
gc.collect()
gc.disable()
gc.set_debug(gc.DEBUG_SAVEALL)
for I, k in ((image, 2), (quintic, 3)):
    hilbert_data(minor_ideal(I, k))
    graded_piece(I, 3)
gc.collect()
print(len(gc.garbage))
"""


def test_minors_and_hilbert_data_leave_no_reference_cycles():
    # a fresh interpreter: the paranoid checks of conftest.py wrap
    # hilbert_data with a brute-force oracle that is not cycle-free
    script = _CYCLE_SCRIPT.format(path=os.path.join(DATA, "quartic_curve_image.ideal"))
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
