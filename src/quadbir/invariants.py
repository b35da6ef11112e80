"""Closed-form numeric relations for quadratic birational transformations.

Pure integer/rational functions over the invariant tuple
(r, n, a, lambda, g, chi, d, Delta, c, delta, eps): Hilbert-polynomial
identities per base-locus dimension, the Segre-Chern expansion and the
blow-up pushforward degrees (the paper's Segre/Chern degree displays are
solved from these two), double-point residuals, structure-specific
(d, Delta) systems, coindex/secant-defect bookkeeping, ideal-generation
thresholds, Castelnuovo's genus bound, and the dimension-four relations.

Everything is exact; a relation that forces a non-integer value raises
Infeasible, which the enumeration layer uses as a filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .hilbert import _binomial_poly


class Infeasible(ValueError):
    """A required invariant came out non-integral or out of range."""


def _as_int(x: Fraction, what: str) -> int:
    if isinstance(x, int):
        return x
    if x.denominator != 1:
        raise Infeasible(f"{what} = {x} is not an integer")
    return int(x)


@dataclass(frozen=True)
class ClassProfile:
    """Chern and Segre degree sequences (c_j, s_j for j = 1..r)."""

    r: int
    c: tuple
    s: tuple


# ---------------------------------------------------------------------------
# Hilbert-polynomial relations per base-locus dimension

def hp_relations(
    r: int,
    n: int,
    a: int,
    eps: int,
    lam: int | None = None,
    g: int | None = None,
    chi: int | None = None,
) -> dict:
    """Complete the invariant fields determined by the Hilbert polynomial.

    r=1 returns lam and g from (n, a, eps); r=2 returns chi and lam from g;
    r=3 returns chi from (lam, g); r=4 returns the full Hilbert polynomial
    coefficient vector from (lam, g, chi, a), pinned for n=10, eps=0 only.
    A given lam, g or chi that contradicts the derived one raises Infeasible.
    """
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    if not r < n:
        raise ValueError("need r < n")
    if r == 1:
        lam_f = Fraction(n * n - n + 2 * eps - 2 * a - 2, 2)
        g_f = Fraction(n * n - 3 * n + 4 * eps - 2 * a - 2, 2)
        out = {"lam": _as_int(lam_f, "lam"), "g": _as_int(g_f, "g")}
    elif r == 2:
        if g is None:
            raise ValueError("r=2 needs g")
        chi_f = Fraction(2 * a - n * n + 5 * n + 2 * g - 6 * eps + 4, 4)
        lam_f = Fraction(n * n - n + 2 * g + 2 * eps - 2 * a - 4, 4)
        out = {"chi": _as_int(chi_f, "chi"), "lam": _as_int(lam_f, "lam")}
    elif r == 3:
        if lam is None or g is None:
            raise ValueError("r=3 needs lam and g")
        chi_f = Fraction(4 * lam - n * n + 3 * n - 2 * g - 4 * eps + 2 * a + 6, 2)
        out = {"chi": _as_int(chi_f, "chi")}
    elif r == 4:
        if None in (lam, g, chi):
            raise ValueError("r=4 needs lam, g, chi")
        if (n, eps) != (10, 0):
            raise ValueError("r=4 is pinned for n=10, eps=0 only")
        out = {"hp": hilbert_poly_r4(lam, g, chi, a)}
    else:
        raise ValueError(f"unsupported base-locus dimension r={r}")
    _agree(out, lam=lam, g=g, chi=chi)
    return out


def hilbert_poly_r4(lam: int, g: int, chi: int, a: int) -> tuple[Fraction, ...]:
    """Coefficient vector (in t) of the dimension-4 Hilbert polynomial.

    Pinned by the values 11 at t=1 and 55-a at t=2.
    """
    coeffs = [Fraction(0)] * 5
    for qty, shift, k in (
        (Fraction(lam), 3, 4),
        (Fraction(1 - g), 2, 3),
        (Fraction(2 * g - 3 * lam + chi - a + 31), 1, 2),
    ):
        term = _binomial_poly(shift, k)
        for i, cf in enumerate(term):
            coeffs[i] += qty * cf
    coeffs[1] += Fraction(-g + 2 * lam - 2 * chi + a - 21)
    coeffs[0] += Fraction(chi)
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Segre and Chern degrees

def _adjunction_c1(r: int, lam: int, g: int) -> int:
    """c_1 . H^(r-1) of an r-dimensional base locus of degree lam and
    sectional genus g, by adjunction on its curve section."""
    return (r - 1) * lam - 2 * g + 2


def segre_chern(
    r: int,
    n: int,
    lam: int,
    g: int,
    d: int | None = None,
    Delta: int | None = None,
) -> tuple[ClassProfile, dict]:
    """Chern/Segre degrees of the base locus and the derived degree data.

    r=1 also solves for d and Delta; r=2 yields the product d*Delta (plus
    c2, s2 once Delta is known); r=3 needs d and Delta for the j=2,3 terms.
    A given d or Delta (r=1), or d*Delta (r=2), that contradicts the
    derived one raises Infeasible.

    Each of the paper's displays follows from the Segre-Chern expansion
    `normal_segre_from_chern` and the blow-up degrees `pushforward_degrees`:
    c_1 comes from adjunction; d*Delta is affine in s_(r-1) and Delta in
    s_r, each with coefficient -1, so each target fixes its s_j, and s_j in
    turn fixes c_j (coefficient +1).
    """
    if r not in (1, 2, 3):
        raise ValueError(f"unsupported base-locus dimension r={r}")
    if not r < n:
        raise ValueError("need r < n")
    c = [_adjunction_c1(r, lam, g)]
    s = list(normal_segre_from_chern(r, n, lam, c))
    if r == 1:
        deg_delta, d_delta = pushforward_degrees(1, n, lam, s)
        if deg_delta == 0:
            raise Infeasible("inverse-degree denominator vanishes")
        derived = {"d": _as_int(Fraction(d_delta, deg_delta), "d"), "Delta": deg_delta}
        _agree(derived, d=d, Delta=Delta)
        return ClassProfile(1, tuple(c), tuple(s)), derived
    if r == 2:
        derived = {"dDelta": pushforward_degrees(2, n, lam, s + [0])[1]}  # s_2 does not enter
        _agree(derived, dDelta=None if d is None or Delta is None else d * Delta)
    elif d is None or Delta is None:
        return ClassProfile(3, tuple(c), tuple(s)), {}
    else:
        derived = {"dDelta": d * Delta}
    if Delta is not None:
        # r=3 solves s_2 from d*Delta, then both r solve s_r from Delta
        for which, target in ((1, derived["dDelta"]), (0, Delta))[3 - r:]:
            s.append(pushforward_degrees(r, n, lam, s + [0] * (r - len(s)))[which] - target)
            c.append(s[-1] - normal_segre_from_chern(r, n, lam, c + [0])[-1])
    return ClassProfile(r, tuple(c), tuple(s)), derived


def _agree(derived: dict, **given: int | None) -> None:
    """Raise Infeasible if a given value (not None) of a derived key
    contradicts the derived one."""
    given = {k: v for k, v in given.items() if v is not None and k in derived}
    if any(derived[k] != v for k, v in given.items()):
        given_s, derived_s = (" ".join(f"{k}={v[k]}" for k in given) for v in (given, derived))
        raise Infeasible(f"given {given_s}, derived {derived_s}")


def normal_segre_from_chern(
    r: int, n: int, lam: int, c: Sequence[int]
) -> tuple[int, ...]:
    """Normal-bundle Segre degrees s_1..s_k from tangent Chern degrees
    c_1..c_k (k <= r <= 3).

    Expands s(N) = c(T_ambient|_B) / c(T_B) degree by degree:
        s_j = sum_{i <= j} (-1)^(j-i) C(n+j-i, j-i) c_i,   c_0 = lam.
    """
    if not len(c) <= r <= 3:
        raise ValueError("need c_1..c_k with k <= r <= 3")
    cs = (lam, *c)
    return tuple(
        sum((-1) ** (j - i) * comb(n + j - i, j - i) * cs[i] for i in range(j + 1))
        for j in range(1, len(cs))
    )


def pushforward_degrees(
    r: int, n: int, lam: int, s: Sequence[int]
) -> tuple[int, int]:
    """Degrees of the strict transform system under the blow-up.

    For a quadratic map with r-dimensional smooth base locus of degree lam
    and normal-bundle Segre degrees s = (s_1, ..., s_r):

        deg(psi) * deg(image) = (2H - E)^n
        d * deg(image)        = (2H - E)^(n-1) . H

    expanded through the intersection table H^j . E^(n-j), whose sign and
    indexing convention is pinned so that the (r=3, n=8) specialization
    reproduces the coefficient vectors (-448, -112, -16, -1, +256) and
    (-84, -14, -1, +128) exactly.
    """
    if len(s) != r:
        raise ValueError("need s_1..s_r")
    if not r < n:
        raise ValueError("need r < n")
    svals = (lam, *s)
    deg_delta = 2**n
    for j in range(0, r + 1):
        deg_delta -= comb(n, j) * 2**j * svals[r - j]
    d_delta = 2 ** (n - 1)
    for j in range(1, r + 1):
        d_delta -= comb(n - 1, j - 1) * 2 ** (j - 1) * svals[r - j]
    return deg_delta, d_delta


def threefold_pushforward(
    n: int, lam: int, g: int, c2h: int, c3: int
) -> tuple[tuple[int, ...], int, int]:
    """Normal Segre degrees s and the pushforward degrees (Delta, d*Delta) of
    a threefold base locus in P^n of degree lam and sectional genus g with
    Chern degrees c2.H and c3."""
    s = normal_segre_from_chern(3, n, lam, (_adjunction_c1(3, lam, g), c2h, c3))
    return (s, *pushforward_degrees(3, n, lam, s))


def liftability_certificate(deg_delta: int, d_delta: int) -> bool:
    """True when some integer inverse degree is consistent with a degree-one
    map: the candidate d * Delta must be divisible by Delta = deg_delta."""
    return deg_delta > 0 and d_delta % deg_delta == 0


# ---------------------------------------------------------------------------
# double point formula

def double_point(
    r: int,
    lam: int,
    g: int,
    d: int,
    Delta: int | None = None,
    a: int | None = None,
    k3: int | None = None,
) -> Fraction:
    """Residual of the double-point identity in the secant-defect-zero case
    (n = 2r + 2); zero means the invariants are consistent.

    r=1 uses the tangent Segre degrees directly; r=2 reads chi from
    `hp_relations` and the surface Chern degrees from `segre_chern`; r=3
    compares the stated K^3 value with the closed form
    lam^2 + 23 lam - 24 g - (7d+1) Delta - 4d + 36 a - 226.
    """
    if r == 1:
        # s_1(T) = 2g - 2, s_0 . H = lam
        return Fraction(2 * (2 * d - 1) - (lam * lam - (2 * g - 2) - 3 * lam))
    if r == 2:
        if Delta is None or a is None:
            raise ValueError("r=2 residual needs Delta and a")
        chi = hp_relations(2, 6, a, 0, g=g)["chi"]
        c1, c2 = segre_chern(2, 6, lam, g, Delta=Delta)[0].c
        rhs = lam * lam - 10 * lam - 12 * chi + 2 * c2 + 5 * c1
        return Fraction(2 * (2 * d - 1)) - rhs
    if r == 3:
        if Delta is None or a is None or k3 is None:
            raise ValueError("r=3 residual needs Delta, a and the K^3 value")
        rhs = (
            lam * lam
            + 23 * lam
            - 24 * g
            - (7 * d + 1) * Delta
            - 4 * d
            + 36 * a
            - 226
        )
        return Fraction(k3 - rhs)
    raise ValueError(f"unsupported base-locus dimension r={r}")


def r2_ddelta_identity(a: int) -> int:
    """The nondegenerate surface case pins d * Delta = 2a + 4."""
    return 2 * a + 4


def r2_delta_quotient(g: int, a: int, d: int) -> Fraction:
    """Delta = (g^2 + (-2a-4)g - 16d + a^2 - 4a + 75) / 8 (nondegenerate
    surface case in P^6)."""
    return Fraction(
        g * g + (-2 * a - 4) * g - 16 * d + a * a - 4 * a + 75, 8
    )


# ---------------------------------------------------------------------------
# structure-specific (d, Delta) systems for threefold base loci in P^8

QUADRIC_FIBRATION = "quadric_fibration_r3"
SCROLL_OVER_SURFACE = "scroll_over_surface_r3"
SCROLL_OVER_CURVE = "scroll_over_curve_r3"


def structure_k3(kind: str, lam: int, g: int, a: int | None = None,
                 d_delta: int | None = None) -> int:
    """K^3 of the base locus for the classified fibration structures."""
    if kind == QUADRIC_FIBRATION:
        return -8 * lam + 24 * g - 24
    if kind == SCROLL_OVER_CURVE:
        return 54 * (g - 1)
    if kind == SCROLL_OVER_SURFACE:
        if a is None or d_delta is None:
            raise ValueError("surface scroll K^3 needs a and d*Delta")
        return 130 * lam - 72 * g - 6 * d_delta + 72 * a - 1104
    raise ValueError(f"unknown structure kind {kind!r}")


def structure_formulas(
    kind: str,
    lam: int,
    g: int,
    a: int,
    d: int | None = None,
) -> list[dict]:
    """Solve the displayed structure systems for positive integers (d, Delta).

    Each system pairs a displayed value of d*Delta (or of Delta) with the
    double-point formula at the structure's K^3 (`structure_k3`), evaluated
    through `double_point`.  A given `d` pins the solution for every kind;
    without it, d is scanned:

    quadric_fibration_r3:  d*Delta = 23 lam - 16 g + 12 a - 180, which with
                           the double point reads Delta + 4 d = lam^2 - 130 lam
                           + 64 g - 48 a + 1058.
    scroll_over_curve_r3:  d*Delta = 22 lam - 20 g + 12 a - 176, which with
                           the double point reads (7d+1) Delta + 4d = lam^2
                           + 23 lam - 78 g + 36 a - 172.
    scroll_over_surface_r3 (d scanned over 1..12): the double point solved
                           for Delta = (lam^2 - 107 lam + 48 g - 4 d - 36 a
                           + 878)/(d+1), plus the displayed c2 value of the
                           base surface.
    """
    if kind in (QUADRIC_FIBRATION, SCROLL_OVER_CURVE):
        if kind == QUADRIC_FIBRATION:
            dd = 23 * lam - 16 * g + 12 * a - 180
        else:
            dd = 22 * lam - 20 * g + 12 * a - 176
        k3 = structure_k3(kind, lam, g)
        return [
            {"d": dv, "Delta": dd // dv}
            for dv in range(1, dd + 1)
            if d in (None, dv)
            and dd % dv == 0
            and double_point(3, lam, g, dv, dd // dv, a, k3=k3) == 0
        ]
    if kind == SCROLL_OVER_SURFACE:
        ds = [d] if d is not None else list(range(1, 13))
        out = []
        for dv in ds:
            num = lam * lam - 107 * lam + 48 * g - 4 * dv - 36 * a + 878
            if num % (dv + 1):
                continue
            Dv = num // (dv + 1)
            if Dv <= 0:
                continue
            c2y = Fraction(
                (7 * dv - 1) * lam * lam
                + (177 - 679 * dv) * lam
                + (292 * dv - 92) * g
                - 28 * dv * dv
                + (5554 - 252 * a) * dv
                + 36 * a
                - 1474,
                2 * dv + 2,
            )
            if c2y.denominator != 1:
                continue
            out.append({"d": dv, "Delta": Dv, "c2_base": int(c2y)})
        return out
    raise ValueError(f"unknown structure kind {kind!r}")


# ---------------------------------------------------------------------------
# coindex, secant defect, thresholds, genus bound

def coindex_delta(r: int, n: int, d: int) -> tuple[int, int, int, int]:
    """(coindex, secant defect, dim of the inverse base locus, deg Sec)."""
    if not r < n:
        raise ValueError("need r < n")
    c = (1 - 2 * d) * r + d * n - 3 * d + 2
    delta = 2 * r + 2 - n
    r_prime = 2 * n - 2 * r - 4
    deg_sec = 2 * d - 1
    return c, delta, r_prime, deg_sec


def k2_thresholds(lam: int, s: int) -> dict:
    """Ideal-generation thresholds for a smooth linearly normal variety of
    degree lam and codimension s (assuming the needed h^1 vanishing)."""
    return {
        "acm": lam <= 2 * s + 1,
        "quadric_generated": lam <= 2 * s,
        "linear_syzygies": lam <= 2 * s - 1,
    }


def castelnuovo_bound(lam: int, N: int) -> int:
    """Castelnuovo's bound on the genus of a nondegenerate degree-lam curve
    in P^N: rho = binom(m, 2)(N-1) + m*eps0 with m = (lam-1) // (N-1)."""
    if N < 2 or lam < N:
        raise ValueError("need a nondegenerate curve: lam >= N >= 2")
    m = (lam - 1) // (N - 1)
    eps0 = lam - 1 - m * (N - 1)
    return comb(m, 2) * (N - 1) + m * eps0


# ---------------------------------------------------------------------------
# dimension four

def r4_relations(lam: int, g: int, d: int, Delta: int) -> tuple[int, int]:
    """The two displayed Chern-degree combinations for fourfold base loci:

        37 c2.H^2 - c4   and   37 c3.H + 7 c4.
    """
    first = -231 * lam + 188 * g + (1 - 9 * d) * Delta + 3396
    second = 655 * lam - 428 * g + (26 * d - 7) * Delta - 5716
    return first, second


def r4_chern_lattice(
    first: int, second: int, c4: int
) -> tuple[int, int]:
    """Solve the two r=4 combinations for (c2.H^2, c3.H) at a given c4.

    Raises Infeasible when the 37-divisibility fails, which is exactly the
    rejection used against the degree-11 elliptic-scroll candidate.
    """
    c2h2 = Fraction(first + c4, 37)
    c3h = Fraction(second - 7 * c4, 37)
    return _as_int(c2h2, "c2.H^2"), _as_int(c3h, "c3.H")
