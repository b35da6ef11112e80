import random
from fractions import Fraction

import pytest

from quadbir.polyring import (
    DEGREVLEX,
    LEX,
    MonomialOrder,
    Poly,
    PolyParseError,
    Ring,
    RingMismatchError,
    format_poly,
)


@pytest.fixture
def xy():
    ring = Ring(["x", "y"])
    return ring, ring.var("x"), ring.var("y")


def test_add_cancellation(xy):
    ring, x, y = xy
    assert (x + y) + (x - y) == x.scale(2)


def test_multiply_by_zero(xy):
    ring, x, y = xy
    p = ring.parse("x*y - y^2")
    assert (p * ring.zero()).is_zero()


def test_difference_of_squares(xy):
    ring, x, y = xy
    assert (x + y) * (x - y) == ring.parse("x^2 - y^2")


def test_ring_mismatch_raises(xy):
    ring, x, y = xy
    other = Ring(["a"])
    with pytest.raises(RingMismatchError):
        x + other.var("a")


def test_primitive_clears_denominators_and_content_and_keeps_sign(xy):
    ring, x, y = xy
    p = ring.parse("-4/3*x^2 + 2/9*x*y - 6*y")
    q = p.primitive()
    assert q == ring.parse("-6*x^2 + x*y - 27*y")
    assert all(isinstance(c, Fraction) and c.denominator == 1 for c in q.terms.values())
    assert ring.parse("-10*x + 15").primitive() == ring.parse("-2*x + 3")
    assert ring.parse("3/7*y").primitive() == y
    assert ring.zero().primitive().is_zero()


def test_substitute_renaming():
    ring = Ring(["x"])
    target = Ring(["y"])
    p = ring.parse("x^2")
    assert p.substitute([target.var("y")]) == target.parse("y^2")


def test_substitute_identity():
    ring = Ring(["x0", "x1", "x2"])
    p = ring.parse("x0*x1 - x2^2")
    assert p.substitute(ring.gens()) == p


def test_substitute_degree_law():
    ring = Ring(["x", "y"])
    p = ring.parse("x^2 + x*y")
    images = [ring.parse("x^2 - y^2"), ring.parse("x*y")]
    q = p.substitute(images)
    assert q.is_homogeneous() and q.degree() == 4


def test_partial_derivative():
    ring = Ring(["x0", "x1", "x2", "x3", "x4", "x5", "x6"])
    assert ring.parse("x0^2").diff("x0") == ring.parse("2*x0")
    assert ring.parse("x1*x5 - x0*x6").diff("x3").is_zero()
    assert ring.parse("x0*x1 - x2^2 - x3^2").diff("x2") == ring.parse("-2*x2")
    with pytest.raises(KeyError):
        ring.parse("x0").diff("z")


def _random_poly(ring, rng, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(ring.nvars)] += 1
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c
    return Poly(ring, {e: c for e, c in terms.items() if c})


def test_ring_axioms_random():
    ring = Ring(["x", "y", "z"])
    rng = random.Random(7)
    for _ in range(120):
        p, q, r = (_random_poly(ring, rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)


def test_substitution_is_a_ring_map():
    ring = Ring(["x", "y"])
    target = Ring(["u", "v", "w"])
    rng = random.Random(11)
    images = [target.parse("u - v^2"), target.parse("v*w + 1")]
    for _ in range(40):
        p, q = _random_poly(ring, rng), _random_poly(ring, rng)
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)
        assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)


def test_leibniz_rule_random():
    ring = Ring(["x", "y", "z"])
    rng = random.Random(13)
    for _ in range(60):
        p, q = _random_poly(ring, rng), _random_poly(ring, rng)
        for v in ring.variables:
            assert (p * q).diff(v) == p * q.diff(v) + q * p.diff(v)


def test_degree_of_product_random():
    ring = Ring(["x", "y"])
    rng = random.Random(17)
    for _ in range(80):
        p, q = _random_poly(ring, rng), _random_poly(ring, rng)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).degree() == p.degree() + q.degree()


def test_monomial_orders():
    ring = Ring(["x", "y", "z"])
    drl = DEGREVLEX.key()
    # x^2 beats y z in degrevlex, x beats y^5 in lex
    assert drl((2, 0, 0)) > drl((0, 1, 1))
    assert LEX.key()((1, 0, 0)) > LEX.key()((0, 5, 0))
    block = MonomialOrder.elimination(1).key()
    # any power of the first variable beats anything without it
    assert block((1, 0, 0)) > block((0, 9, 9))


def test_parser_and_formatting_round_trip():
    ring = Ring(["x0", "x1", "x2"])
    for text in ["x0^2 - 2*x1*x2", "1/2*x0 + x2", "-x0*x1 + 3", "2x0 - x1"]:
        p = ring.parse(text)
        assert ring.parse(format_poly(p)) == p


def test_parser_errors():
    ring = Ring(["x", "y"])
    with pytest.raises(PolyParseError):
        ring.parse("x + ")
    with pytest.raises(PolyParseError):
        ring.parse("x z")
    with pytest.raises(PolyParseError):
        ring.parse("q + 1")
    with pytest.raises(PolyParseError):
        ring.parse("x^y")
    # a number after a factor needs an explicit '*'
    for text in ("x^2 3", "x 2", "2 3"):
        with pytest.raises(PolyParseError, match="missing"):
            ring.parse(text)
    # a variable after a factor other than a coefficient needs one too
    with pytest.raises(PolyParseError, match="missing"):
        ring.parse("x^2 y")
    assert ring.parse("2x") == ring.parse("2 x") == ring.parse("2*x") == ring.parse("x*2")
    assert ring.parse("x^2*y") == ring.parse("x*x*y")
    with pytest.raises(PolyParseError, match="zero denominator"):
        ring.parse("3/0*x - y")


def test_operands_must_be_exact(xy):
    ring, x, y = xy
    for bad in (0.1, "1"):
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            bad + x
        with pytest.raises(TypeError):
            x.scale(bad)
        with pytest.raises(TypeError):
            ring.const(bad)
    assert x * Fraction(1, 2) == x.scale(Fraction(1, 2)) != x * 2


def test_monomial_order_laws():
    # total, multiplicative, with 1 minimal, for all three order kinds and
    # for the one-block order of all four variables
    import itertools

    rng = random.Random(23)
    monos = [tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(30)]
    monos.append((0, 0, 0, 0))
    for order in (LEX, DEGREVLEX, MonomialOrder.elimination(2), MonomialOrder.elimination(4)):
        key = order.key()
        one = (0, 0, 0, 0)
        for a, b in itertools.combinations(monos, 2):
            if a != b:
                assert (key(a) > key(b)) != (key(b) > key(a))
            for c in monos[:6]:
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert (key(a) > key(b)) == (key(ac) > key(bc))
            if a != one:
                assert key(a) > key(one)


def test_parser_pinned_on_every_short_string():
    # Every string of up to four tokens, parsed or refused, hashed together:
    # any change in what the parser accepts or in the value it reads shows.
    import hashlib
    import itertools

    tokens = ["x", "y", "x2", "2", "1/2", "07", "3/0", "*", "^", "^2",
              "+", "-", " ", "\t", "/", "("]
    ring = Ring(["x", "y", "x2"])
    digest = hashlib.sha256()
    total = parsed = 0
    for n in range(5):
        for parts in itertools.product(tokens, repeat=n):
            text = "".join(parts)
            try:
                out = format_poly(ring.parse(text))
                parsed += 1
            except PolyParseError:
                out = "ERR"
            total += 1
            digest.update(f"{text!r}\t{out}\n".encode())
    assert (total, parsed) == (69905, 5151)
    assert digest.hexdigest() == (
        "2468ed267975b2f37446c7dcececa309e96af39b35f697f2cc355e672f2c4f53"
    )


@pytest.mark.parametrize(
    "text",
    [" " * 20000 + "@", "2" + " " * 20000 + "@", "x*" * 10000],
    ids=["spaces", "coefficient-spaces", "dangling-star"],
)
def test_parser_refuses_long_lines_in_linear_time(text):
    import time

    ring = Ring(["x", "y"])
    start = time.perf_counter()
    with pytest.raises(PolyParseError):
        ring.parse(text)
    assert time.perf_counter() - start < 1.0
