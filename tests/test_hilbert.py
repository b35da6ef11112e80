import hashlib
import itertools
import os
import random
from fractions import Fraction

import pytest

from quadbir.groebner import Ideal, _Packing, saturate_irrelevant
from quadbir.hilbert import (
    HilbertData,
    _minimalize,
    _packed_numerator,
    _packing,
    _span_basis,
    graded_piece,
    hilbert_data,
    hilbert_series_numerator,
    initial_ideal,
    series_coefficients,
    standard_monomial_count,
)
from quadbir.ideal_io import read_ideal
from quadbir.invariants import hp_relations
from quadbir.linalg import rref
from quadbir.maps import minor_ideal
from quadbir.polyring import DEGREVLEX, LEX, MonomialOrder, Poly, Ring, mono_divides
from quadbir.varieties import elliptic_quintic_pfaffian, rational_normal_curve, veronese

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "quadbir", "data", "ideals")


@pytest.fixture
def twisted_cubic():
    return rational_normal_curve(3)


@pytest.fixture
def quartic_image():
    ring = Ring([f"y{i}" for i in range(7)])
    return Ideal(
        ring,
        [
            ring.parse("y2*y3 - y4^2 - y5^2 - y0*y6"),
            ring.parse("y2^2 + y3^2 - y4*y5 + y1*y6"),
        ],
    )


def test_initial_ideal_simple():
    ring = Ring(["x", "y", "z"])
    I = Ideal(ring, [ring.parse("x^2 - y*z")])
    init = initial_ideal(I, DEGREVLEX)
    assert [str(g) for g in init.generators] == ["x^2"]


def test_initial_ideal_twisted_cubic(twisted_cubic):
    init = initial_ideal(twisted_cubic, DEGREVLEX)
    monos = sorted(str(g) for g in init.generators)
    assert monos == ["x1*x2", "x1^2", "x2^2"]


def test_initial_ideal_rejects_inhomogeneous():
    ring = Ring(["x", "y"])
    with pytest.raises(ValueError):
        initial_ideal(Ideal(ring, [ring.parse("x^2 - y")]))


def test_series_numerator_base_cases():
    assert hilbert_series_numerator([], 2) == (1,)
    assert hilbert_series_numerator([(2,)], 1) == (1, 0, -1)


def test_series_numerator_complete_intersection(quartic_image):
    # two quadrics forming a regular sequence: numerator (1 - t^2)^2
    # regardless of the order used for the initial ideal
    init = initial_ideal(quartic_image, DEGREVLEX)
    monos = [g.lead_monomial() for g in init.generators]
    N = hilbert_series_numerator(monos, 7)
    assert N == (1, 0, -2, 0, 1)


def test_hilbert_data_twisted_cubic(twisted_cubic):
    hd = hilbert_data(twisted_cubic)
    assert (hd.dim_proj, hd.degree, hd.sectional_genus, hd.chi) == (1, 3, 0, 1)
    assert hd.hp_str() == "3*t + 1"


def test_hilbert_data_quartic_image(quartic_image):
    hd = hilbert_data(quartic_image)
    assert (hd.dim_proj, hd.degree) == (4, 4)
    assert hd.hp == (
        Fraction(1),
        Fraction(5, 2),
        Fraction(7, 3),
        Fraction(1),
        Fraction(1, 6),
    )


def test_hilbert_data_line_with_embedded_structure():
    # the recorded singular scheme of the quartic image: hp = t + 5
    ring = Ring([f"y{i}" for i in range(7)])
    gens = [
        "y6", "y5^2", "y4*y5", "y3*y5", "y2*y5", "y4^2", "y3*y4", "y2*y4",
        "2*y1*y4 + y0*y5", "y0*y4 + 2*y1*y5", "y3^2", "y2*y3", "y2^2",
        "y1*y2 + 2*y0*y3", "2*y0*y2 + y1*y3",
    ]
    I = Ideal(ring, [ring.parse(t) for t in gens])
    hd = hilbert_data(I)
    assert hd.hp_str() == "t + 5"
    assert (hd.dim_proj, hd.degree) == (1, 1)


def test_hilbert_data_thirteen_quadrics():
    from quadbir.ideal_io import read_ideal
    import os

    path = os.path.join(
        os.path.dirname(__file__), "..", "src", "quadbir", "data", "ideals",
        "line_times_quadric_base.ideal",
    )
    I = read_ideal(path)
    hd = hilbert_data(I)
    assert (hd.dim_proj, hd.degree, hd.sectional_genus, hd.chi) == (3, 8, 2, 1)
    # Euler characteristic agrees with the threefold Hilbert relation
    assert hp_relations(3, 8, 4, 0, lam=8, g=2)["chi"] == hd.chi


def _scheme_invariants(hd):
    return hd.hp, hd.dim_proj, hd.degree, hd.sectional_genus, hd.chi


def _seeded_quadrics(seed):
    """Two seeded quadrics of P^3: generically an elliptic quartic curve."""
    rng = random.Random(seed)
    ring = Ring(["x0", "x1", "x2", "x3"])
    monos = [m for m in itertools.product(range(3), repeat=4) if sum(m) == 2]
    return Ideal(
        ring,
        [
            sum((ring.monomial(m).scale(rng.randint(-3, 3)) for m in monos), ring.zero())
            for _ in range(2)
        ],
    )


def _times_power_of_m(I, k):
    """I * m^k for the irrelevant ideal m: same scheme, not saturated."""
    ring = I.ring
    monos = [m for m in itertools.product(range(k + 1), repeat=ring.nvars) if sum(m) == k]
    return Ideal(ring, [g * ring.monomial(m) for g in I.generators for m in monos])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hilbert_data_needs_no_saturation(seed):
    # I and I * m^k differ only in low degrees, so they share the Hilbert
    # polynomial with the saturation; only the numerator tells them apart
    for k in (0, 1, 2):
        I = _times_power_of_m(_seeded_quadrics(seed), k)
        given, saturated = hilbert_data(I), hilbert_data(saturate_irrelevant(I))
        assert _scheme_invariants(given) == _scheme_invariants(saturated)
        assert given.dim_proj == 1
        assert (given.numerator == saturated.numerator) == (k == 0)
        hf = given.hilbert_function(given.regularity_witness + 2)
        assert hf[given.regularity_witness :] == [
            given.hp_value(m) for m in range(given.regularity_witness, len(hf))
        ]


def test_m_primary_ideal_is_the_empty_scheme():
    ring = Ring(["x", "y", "z"])
    hd = hilbert_data(_times_power_of_m(Ideal(ring, [ring.one()]), 2))
    assert hd.dim_proj == -1 and hd.degree is None
    # R/m^2 has Hilbert function 1, 3, 0, 0, ... and the witness says where
    # it reaches the zero polynomial
    assert hd.regularity_witness == 2
    assert hd.hilbert_function(4) == [1, 3, 0, 0, 0]


def test_unit_ideal_has_zero_series():
    # the unit ideal's numerator is 1 - t^0 = 0, so it goes through the
    # finite-length branch: the empty scheme, zero from degree 0 on
    ring = Ring(["x", "y", "z"])
    assert hilbert_series_numerator([(0, 0, 0), (1, 0, 0)], 3) == (0,)
    hd = hilbert_data(Ideal(ring, [ring.one().scale(2), ring.parse("x")]))
    assert hd == HilbertData((0,), 3, (Fraction(0),), -1, None, None, None, 0)


def test_order_invariance(twisted_cubic, quartic_image):
    for I in (twisted_cubic, quartic_image, veronese(2, 2)):
        a = hilbert_data(I, DEGREVLEX)
        b = hilbert_data(I, LEX)
        assert a.hp == b.hp
        assert (a.dim_proj, a.degree, a.sectional_genus) == (
            b.dim_proj,
            b.degree,
            b.sectional_genus,
        )


def test_hilbert_function_oracle(twisted_cubic):
    hd = hilbert_data(twisted_cubic)
    init = initial_ideal(twisted_cubic)
    monos = [g.lead_monomial() for g in init.generators]
    hf = hd.hilbert_function(hd.regularity_witness + 3)
    for m, value in enumerate(hf):
        assert value == standard_monomial_count(monos, 4, m)
        if m >= hd.regularity_witness:
            assert hd.hp_value(m) == value


def _random_monomials(rng):
    n = rng.randint(1, 5)
    top = rng.choice((1, 3, 9))
    return n, [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(1, 30))]


def test_minimalize_matches_naive_definition():
    # the minimal generators: the distinct monomials no other one divides
    for seed in range(300):
        n, monos = _random_monomials(random.Random(seed))
        naive = sorted(
            {m for m in monos if not any(h != m and mono_divides(h, m) for h in monos)}
        )
        P = _packing(n, max(map(sum, monos)))
        minimal = _minimalize(map(P.pack, monos), P.guard)
        assert list(minimal) == sorted(minimal), seed
        assert tuple(sorted(map(P.unpack, minimal))) == tuple(naive), seed


def test_standard_monomial_count_matches_enumeration():
    for seed in range(100):
        rng = random.Random(seed)
        n, monos = _random_monomials(rng)
        d = rng.randint(0, 6)
        naive = sum(
            1
            for e in itertools.product(range(d + 1), repeat=n)
            if sum(e) == d and not any(mono_divides(g, e) for g in monos)
        )
        assert standard_monomial_count(monos, n, d) == naive, seed


@pytest.mark.parametrize("seed", range(40))
def test_packed_numerator_matches_the_oracle(seed):
    # N(t)/(1-t)^n counts the standard monomials in every degree up to
    # deg N, which pins N, and renaming the variables leaves it unchanged
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    monos = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(0, 12))]
    N = hilbert_series_numerator(monos, n)
    upto = len(N) + 1
    assert series_coefficients(N, n, upto) == [
        standard_monomial_count(monos, n, d) for d in range(upto + 1)
    ]
    perm = rng.sample(range(n), n)
    assert hilbert_series_numerator([tuple(m[i] for i in perm) for m in monos], n) == N


def test_packed_numerator_sizes_its_fields_from_the_input():
    # exponents past 255 need more than 8 value bits per field
    assert hilbert_series_numerator([(300, 0)], 2) == (1,) + (0,) * 299 + (-1,)
    monos = [(300, 0, 0), (0, 257, 0), (1, 1, 1)]
    N = hilbert_series_numerator(monos, 3)
    series = series_coefficients(N, 3, 302)
    for d in (3, 255, 256, 257, 258, 299, 300, 301, 302):
        assert series[d] == standard_monomial_count(monos, 3, d), d


@pytest.mark.parametrize(
    "order", [MonomialOrder.elimination(1), MonomialOrder.elimination(2), LEX]
)
def test_packed_numerator_of_other_orders(order):
    # the driven elimination run hands over leads packed by its own order;
    # their numerator is the one the exponent tuples give
    for I in (rational_normal_curve(3), rational_normal_curve(4), veronese(2, 2)):
        n = I.ring.nvars
        leads = [g.lead_monomial(order) for g in I.groebner(order)]
        P = _Packing(order, n, 8)
        assert _packed_numerator([P.pack(m) for m in leads], P) == hilbert_series_numerator(
            leads, n
        )
    for seed in range(20):
        n, monos = _random_monomials(random.Random(seed))
        P = _Packing(order, n, 8)
        assert _packed_numerator(map(P.pack, monos), P) == hilbert_series_numerator(monos, n)


def test_generic_section_first_difference():
    import random

    rng = random.Random(5)
    for I in (rational_normal_curve(3), veronese(2, 2)):
        hd = hilbert_data(I)
        ring = I.ring
        coeffs = [rng.randint(1, 5) for _ in range(ring.nvars)]
        ell = ring.zero()
        for c, v in zip(coeffs, ring.variables):
            ell = ell + ring.var(v).scale(c)
        sliced = Ideal(ring, list(I.generators) + [ell])
        hs = hilbert_data(sliced)
        # both sides have degree below len(hd.hp), so these points decide it
        for t in range(len(hd.hp) + 1):
            assert hs.hp_value(t) == hd.hp_value(t) - hd.hp_value(t - 1)


def test_graded_piece_dims():
    ring = Ring(["x"])
    I = Ideal(ring, [ring.parse("x^2")])
    assert graded_piece(I, 2)[0] == 1
    tc4 = rational_normal_curve(3)
    big = Ring(["x0", "x1", "x2", "x3", "x4"])
    lift = [big.var(v) for v in ("x0", "x1", "x2", "x3")]
    gens = [g.substitute(lift) for g in tc4.generators] + [big.var("x4")]
    I4 = Ideal(big, gens)
    dim2, basis = graded_piece(I4, 2)
    assert dim2 == 8
    assert all(b.is_homogeneous() and b.degree() == 2 for b in basis)
    # ambient gap bookkeeping: 8 quadrics minus dim of the linear system
    assert dim2 - (4 + 1) == 3


def _graded_piece_from_basis(I, e):
    """The degree-e piece as the rref of the degree-e multiples of the
    degrevlex basis, on the degree-e monomials in descending degrevlex."""
    n = I.ring.nvars

    def monomials(d):
        return [m for m in itertools.product(range(d + 1), repeat=n) if sum(m) == d]

    monos = sorted(monomials(e), key=DEGREVLEX.key(), reverse=True)
    col = {m: i for i, m in enumerate(monos)}
    rows = [
        {col[tuple(a + b for a, b in zip(shift, ge))]: c for ge, c in g.terms.items()}
        for g in I.groebner(DEGREVLEX)
        if g.degree() <= e
        for shift in monomials(e - g.degree())
    ]
    echelon, _ = rref(rows)
    return [Poly(I.ring, {monos[j]: c for j, c in row.items()}) for row in echelon]


@pytest.mark.parametrize("e", [2, 3])
@pytest.mark.parametrize("name", ["twisted_cubic", "elliptic_quintic", "line_times_quadric"])
def test_graded_piece_matches_basis_multiples(name, e):
    I = {
        "twisted_cubic": lambda: rational_normal_curve(3),
        "elliptic_quintic": elliptic_quintic_pfaffian,
        "line_times_quadric": lambda: read_ideal(os.path.join(DATA, "line_times_quadric_base.ideal")),
    }[name]()
    dim, basis = graded_piece(I, e)
    assert basis == _graded_piece_from_basis(I, e)
    assert dim == len(basis) > 0


def _sympy_span(ring, polys):
    """The reduced echelon basis by sympy's Matrix.rref over QQ, on the
    monomials of the input in sympy's own descending grevlex order."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import monomial_key

    monos = sorted({m for p in polys for m in p}, key=monomial_key("grevlex"), reverse=True)
    if not polys or not monos:
        return []
    mat = sympy.Matrix([[sympy.Rational(p.get(m, 0)) for m in monos] for p in polys])
    reduced, pivots = mat.rref()
    return [
        Poly(ring, {m: Fraction(int(c.p), int(c.q)) for m, c in zip(monos, reduced.row(i)) if c})
        for i in range(len(pivots))
    ]


def _packed_rows(ring, polys):
    """The packing and the stream of rows that `_span_basis` takes for
    these term dicts: negated packed monomials to coefficients."""
    P = _packing(ring.nvars, max((sum(m) for p in polys for m in p), default=0))
    return P, iter([{-P.pack(m): c for m, c in p.items()} for p in polys])


@pytest.mark.parametrize("seed", range(8))
def test_span_basis_matches_sympy_rref(seed):
    # sparse homogeneous polynomials of mixed degree, with dependent rows
    # (combinations of earlier ones) and zero rows mixed in
    rng = random.Random(seed)
    ring = Ring(["x", "y", "z", "w"])
    polys = []
    for _ in range(rng.randint(1, 12)):
        if polys and rng.random() < 0.3:
            a, b = rng.sample(polys, 2) if len(polys) > 1 else polys * 2
            ca, cb = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-2, 2)
            combo = {m: ca * a.get(m, 0) + cb * b.get(m, 0) for m in {*a, *b}}
            polys.append({m: c for m, c in combo.items() if c})
            continue
        d = rng.randint(0, 3)
        monos = [m for m in itertools.product(range(d + 1), repeat=4) if sum(m) == d]
        polys.append({
            m: Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), rng.choice([1, 1, 2, 3]))
            for m in rng.sample(monos, rng.randint(1, min(4, len(monos))))
        })
    basis = _span_basis(ring, *_packed_rows(ring, polys))
    assert basis == _sympy_span(ring, polys)
    assert [list(g.terms) for g in basis] == [
        sorted(g.terms, key=DEGREVLEX.key(), reverse=True) for g in basis
    ]


def test_span_basis_of_nothing():
    ring = Ring(["x", "y"])
    assert _span_basis(ring, *_packed_rows(ring, [])) == [] == _sympy_span(ring, [])
    assert _span_basis(ring, *_packed_rows(ring, [{}, {}])) == []


def _digest(polys):
    """SHA-256 of the polynomials' terms, in their stored order."""
    h = hashlib.sha256()
    for p in polys:
        h.update(repr([(e, str(c)) for e, c in p.terms.items()]).encode() + b"\n")
    return h.hexdigest()


def _image(name):
    return read_ideal(os.path.join(DATA, f"{name}_image.ideal"))


def _minor_span(I, codim, cap):
    return minor_ideal(I, codim, cap).generators[len(I.generators):]


@pytest.mark.parametrize(
    "span, size, digest",
    [
        # spans in 13 and 14 variables, term order included: a reduced
        # echelon form is unique for its column order, so a change to the
        # degrevlex column order or to the elimination shows here
        (lambda: _minor_span(_image("line_times_quadric"), 4, 12000), 1210,
         "2846ef0a9cb8a18220a7d8fb5e4f289d364abdae15a3583648154544cc347d87"),
        (lambda: graded_piece(_image("line_times_quadric"), 4)[1], 476,
         "3a62497e29a9d4af0c1c19b6d2e648e3e7c5e7649fafc1fe6a50334c34ad904d"),
        (lambda: graded_piece(_image("del_pezzo_seven"), 4)[1], 619,
         "a7a31673294c8f6a299df6f139ca9519efaabd14f68f887bc9902c7717a0e614"),
    ],
    ids=["line_times_minors", "line_times_degree_4", "del_pezzo_degree_4"],
)
def test_span_pins(span, size, digest):
    basis = span()
    assert len(basis) == size
    assert _digest(basis) == digest


def test_graded_piece_rejects_inhomogeneous():
    ring = Ring(["x", "y"])
    with pytest.raises(ValueError, match="homogeneous"):
        graded_piece(Ideal(ring, [ring.parse("x^2 + y")]), 2)


def test_graded_piece_thirteen():
    from quadbir.ideal_io import read_ideal
    import os

    path = os.path.join(
        os.path.dirname(__file__), "..", "src", "quadbir", "data", "ideals",
        "line_times_quadric_base.ideal",
    )
    I = read_ideal(path)
    assert graded_piece(I, 2)[0] == 13
