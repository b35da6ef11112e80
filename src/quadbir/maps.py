"""Rational maps defined by quadrics and their certificates.

A map is stored by its component polynomials (homogeneous, one common
degree).  The operations here certify statements about such maps exactly:
membership of the image in a hypersurface, the image ideal by elimination,
singular loci by Jacobian minors, smoothness by per-chart Jacobians of a
solved presentation, composition identities, and inverse-degree detection.
All certificates exploit that projective space is irreducible: a polynomial
identity that holds on a dense open subset holds identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .groebner import (
    StepBudget,
    _budget,
    contains_one,
    dehomogenize,
    eliminate,
    exact_divide,
    intersect,
    saturate_irrelevant,
    solve_simplify,
)
from .hilbert import _degree_monomials, _packing, _span_basis, graded_piece
from .linalg import kernel_basis
from .polyring import Ideal, Poly, Ring, _fresh_name, nonzero_minors

# size caps past which a certificate raises HeavyComputation
_INVERSE_UNKNOWN_CAP = 2000  # unknown coefficients of the inverse solve


class HeavyComputation(RuntimeError):
    """The requested symbolic computation exceeds the configured size cap."""


class NotACertificate(ValueError):
    """The composite map vanishes identically; pick another representative."""


@dataclass
class RationalMap:
    """A rational map between projective spaces, given by its components."""

    source_ring: Ring
    target_ring: Ring
    components: tuple[Poly, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps or all(not c for c in comps):
            raise ValueError("map needs a nonzero component")
        degs = {c.degree() for c in comps if c}
        if len(degs) != 1 or not all(c.is_homogeneous() for c in comps if c):
            raise ValueError("components must be homogeneous of one degree")
        if len(comps) != self.target_ring.nvars:
            raise ValueError("component count must match target ring")
        self.components = comps

    @property
    def degree(self) -> int:
        return max(c.degree() for c in self.components if c)

    @property
    def source_dim(self) -> int:
        return self.source_ring.nvars - 1

    @property
    def target_dim(self) -> int:
        return self.target_ring.nvars - 1


def map_from_ideal(I: Ideal) -> RationalMap:
    """The rational map defined by all quadrics through V(I).

    Components form the deterministic echelon basis of the degree-2 piece
    of the ideal, so downstream image ideals are reproducible.
    """
    dim2, basis = graded_piece(I, 2)
    if dim2 == 0:
        raise ValueError("ideal contains no quadrics")
    return RationalMap(I.ring, Ring([f"y{i}" for i in range(dim2)]), tuple(basis))


def ambient_gap(F: RationalMap) -> int:
    """a = N - n for F: P^n -> P^N."""
    return F.target_dim - F.source_dim


def forward_annihilation(F: RationalMap, g: Poly) -> bool:
    """True iff g(F_0, ..., F_N) is identically zero.

    Certifies that the closed image of F lies in V(g): the composite
    vanishes on a dense open subset of irreducible projective space, hence
    everywhere.
    """
    if g.ring != F.target_ring:
        raise ValueError("form must live in the target ring")
    return not g.substitute(F.components)


def _fresh_names(ring: Ring, bases: Sequence[str]) -> tuple[str, ...]:
    """One name per base, distinct from each other and from ring's variables."""
    names = ring
    for base in bases:
        names = Ring(names.variables + (_fresh_name(names, base),))
    return names.variables[ring.nvars :]


def graph_ideal(F: RationalMap) -> tuple[Ideal, Ring]:
    """Ideal of the graph {(x, F(x))} in the product ring (x first).

    A source variable whose name the target also uses is renamed in the
    product ring, so a map from a ring to itself has a graph too.
    """
    big = Ring(_fresh_names(F.target_ring, F.source_ring.variables) + F.target_ring.variables)
    lift_src = big.gens()[: F.source_ring.nvars]
    gens = []
    for i, f in enumerate(F.components):
        y = big.var(F.target_ring.variables[i])
        gens.append(y - f.substitute(lift_src))
    return Ideal(big, gens), big


def image_ideal(F: RationalMap, budget: StepBudget | int | None = None) -> Ideal:
    """Homogeneous ideal of the closure of the image, by elimination.

    The graph ideal is prime (it cuts out a graph over the source), so
    eliminating the source variables gives exactly the image ideal.
    """
    G, _ = graph_ideal(F)
    return eliminate(G, F.source_ring.nvars, budget)


def _monomial_rows(F: RationalMap, monos: Sequence) -> dict:
    """Coefficients of m(F) for each target monomial m: source monomial ->
    {index of m in monos: coefficient}."""
    rows: dict = {}
    for j, m in enumerate(monos):
        p = F.source_ring.one()
        for i, k in enumerate(m):
            for _ in range(k):
                p = p * F.components[i]
        for e, c in p.terms.items():
            rows.setdefault(e, {})[j] = c
    return rows


def image_forms(F: RationalMap, degree: int) -> list[Poly]:
    """Degree-d forms on the target annihilating the map, by linear algebra.

    Returns an echelon basis of {g of degree d : g(F) == 0}; this is the
    degree-d graded piece of the image ideal.
    """
    monos = _degree_monomials(F.target_ring.nvars, degree)
    rows = _monomial_rows(F, monos)
    return [
        Poly(F.target_ring, {monos[i]: c for i, c in v.items()})
        for v in kernel_basis(list(rows.values()), len(monos))
    ]


def jacobian(polys: Sequence[Poly], ring: Ring) -> list[list[Poly]]:
    return [[g.diff(v) for v in ring.variables] for g in polys]


def minor_ideal(I: Ideal, codim: int, cap: int = 4000) -> Ideal:
    """I plus the `hilbert._span_basis` of the codim x codim Jacobian minors
    of its generators, which stream into it and are never held together;
    the same ideal as I plus all those minors."""
    if codim < 1:
        raise ValueError("need codim >= 1")
    ring = I.ring
    count = comb(len(I.generators), codim) * comb(ring.nvars, codim)
    if count > cap:
        raise HeavyComputation(f"{count} Jacobian minors exceed the cap of {cap}")
    minors = nonzero_minors(jacobian(I.generators, ring), codim, ring)
    # a minor's degree is at most the sum of codim generator degrees, less codim
    degrees = sorted(g.degree() for g in I.generators)
    P = _packing(ring.nvars, sum(degrees[-codim:]) - codim)
    rows = ({-P.pack(e): c for e, c in m.terms.items()} for m in minors)
    return Ideal(ring, I.generators + tuple(_span_basis(ring, P, rows)))


def singular_locus(
    I: Ideal,
    codim: int,
    budget: StepBudget | int | None = None,
    cap: int = 4000,
    seed: int = 0,
) -> Ideal:
    """Saturated Jacobian-minor ideal (the singular scheme of V(I)).

    Raises HeavyComputation when the minor count explodes past the cap.
    `seed` is ignored: the saturation is deterministic.
    """
    return saturate_irrelevant(minor_ideal(I, codim, cap), budget)


def smooth_certificate(
    I: Ideal,
    dim_proj: int,
    budget: StepBudget | int | None = None,
) -> bool:
    """Certify that V(I) is smooth of the stated dimension.

    Works chart by chart: the dehomogenized system is simplified by
    eliminating solved variables (an isomorphism of the chart variety onto
    a small presentation), and the Jacobian minor scheme of the small
    presentation (its `minor_ideal`) is checked to be empty.  Equivalent
    to emptiness of the codim-many-minor scheme of I itself, since rank
    conditions transfer along the chart isomorphisms.

    Raises HeavyComputation when a chart's minors exceed `minor_ideal`'s cap.
    """
    b = _budget(budget)
    ring = I.ring
    for var in range(ring.nvars):
        names = ring.variables[:var] + ring.variables[var + 1 :]
        chart = Ring(names)
        base = [p for p in (dehomogenize(g, var, chart) for g in I.generators) if p]
        if any(g.is_constant() and g for g in base):
            continue
        sg, sring = solve_simplify(base, chart, b)
        if any(g.is_constant() and g for g in sg):
            continue  # chart misses the variety
        if not sg:
            if sring.nvars == dim_proj:
                continue  # chart is isomorphic to affine space: smooth
            return False
        cprime = sring.nvars - dim_proj
        if cprime <= 0:
            return False
        if not contains_one(minor_ideal(Ideal(sring, sg), cprime), b):
            return False
    return True


def composition_identity(F: RationalMap, G: RationalMap) -> bool:
    """Certify G(F(x)) = x as rational maps.

    Substitutes F into G and checks that all 2x2 minors of the matrix with
    rows (x_0, ..., x_n) and (G(F)_0, ..., G(F)_n) vanish identically;
    agreement on a dense open subset of irreducible projective space forces
    the polynomial identities.
    """
    if G.source_ring != F.target_ring or G.target_ring.nvars != F.source_ring.nvars:
        raise ValueError("maps are not composable back to the source")
    comps = [g.substitute(F.components) for g in G.components]
    if all(not c for c in comps):
        raise NotACertificate(
            "composite vanishes identically; the representative of the "
            "inverse is zero on the image"
        )
    ring = F.source_ring
    xs = ring.gens()
    n = ring.nvars
    for i in range(n):
        for j in range(i + 1, n):
            if xs[i] * comps[j] - xs[j] * comps[i]:
                return False
    return True


def common_factor_degree(
    polys: Sequence[Poly], budget: StepBudget | int | None = None
) -> int:
    """Degree of the greatest common divisor of the nonzero polys, exactly.

    Folds gcd(g, p) = g·p / lcm(g, p) over the polys, where lcm(g, p) is
    the one generator of the principal ideal (g) ∩ (p).
    """
    b = _budget(budget)
    polys = [p for p in polys if p]
    if not polys:
        return 0
    g = polys[0]
    for p in polys[1:]:
        if g.is_constant():
            break
        (lcm,) = intersect(Ideal(g.ring, [g]), Ideal(g.ring, [p]), b).generators
        g = exact_divide(g * p, lcm)
    return g.degree()


def map_type(
    F: RationalMap, G: RationalMap, budget: StepBudget | int | None = None
) -> tuple[int, int]:
    """The type (2, d): d is the common degree of the inverse components
    after removing their common polynomial factor."""
    if not composition_identity(F, G):
        raise ValueError("composition identity does not hold")
    d = G.degree - common_factor_degree(G.components, budget)
    return (F.degree, d)


def solve_inverse(
    F: RationalMap, d: int
) -> RationalMap | None:
    """Search a degree-d representative G of the inverse: G(F(x)) = x * h(x).

    Sets up the exact linear system in the coefficients of G and of the
    common factor h (degree 2d-1) and returns the first echelon solution,
    or None when only the zero solution exists.
    """
    src, tgt = F.source_ring, F.target_ring
    n1, N1 = src.nvars, tgt.nvars
    g_monos = _degree_monomials(N1, d)
    h_monos = _degree_monomials(n1, 2 * d - 1)
    ng = n1 * len(g_monos)
    nunk = ng + len(h_monos)
    if nunk > _INVERSE_UNKNOWN_CAP:
        raise HeavyComputation(f"{nunk} unknowns in the inverse solve")
    # one equation per (component i, source monomial e) of G_i(F) = x_i * h
    rows: dict = {}
    composites = _monomial_rows(F, g_monos)
    for i in range(n1):
        for e, row in composites.items():
            rows[(i, e)] = {i * len(g_monos) + j: c for j, c in row.items()}
        for j, hm in enumerate(h_monos):
            e = tuple(hm[k] + (k == i) for k in range(n1))
            rows.setdefault((i, e), {})[ng + j] = Fraction(-1)
    for v in kernel_basis(list(rows.values()), nunk):
        if max(v) < ng:  # h = 0
            continue
        comps: list[dict] = [{} for _ in range(n1)]
        for col, c in v.items():
            if col < ng:
                i, j = divmod(col, len(g_monos))
                comps[i][g_monos[j]] = c
        if not any(comps):
            continue
        return RationalMap(tgt, Ring(src.variables), tuple(Poly(tgt, t) for t in comps))
    return None


def secant_ideal(
    I: Ideal, budget: StepBudget | int | None = None
) -> Ideal:
    """Ideal of the secant variety of V(I): the first n variables, t,
    eliminated from `sum_and_difference_ideal(I)`."""
    return eliminate(sum_and_difference_ideal(I), I.ring.nvars, budget)


def sum_and_difference_ideal(I: Ideal) -> Ideal:
    """The ideal in QQ[t, x] whose elimination of t is the secant ideal.

    The secant variety is the closure of the points u + w with u, w in
    V(I): the elimination of u and w from I(u) + I(w) + (x - u - w).  Here
    the coordinates change to t = u - w: each generator g contributes
    g((x+t)/2) + g((x-t)/2) and g((x+t)/2) - g((x-t)/2), its even and odd
    parts in t, and only the n variables t are eliminated.  The map
    u -> (x+t)/2, w -> (x-t)/2, x -> x from QQ[u, w, x] onto QQ[t, x] has
    kernel (x - u - w), which the two-copy ideal contains, and is the
    identity on QQ[x].  So it carries the two-copy ideal onto this one, and
    a polynomial in QQ[x] lies in one iff it lies in the other.  The reduced
    basis of that intersection is unique, so both constructions return the
    same generators.
    """
    ring = I.ring
    n = ring.nvars
    big = Ring(_fresh_names(ring, [f"t_{v}" for v in ring.variables]) + ring.variables)
    t, x = big.gens()[:n], big.gens()[n:]
    half = Fraction(1, 2)
    plus = [(xi + ti).scale(half) for xi, ti in zip(x, t)]
    minus = [(xi - ti).scale(half) for xi, ti in zip(x, t)]
    gens = []
    for g in I.generators:
        a, b = g.substitute(plus), g.substitute(minus)
        gens += [a + b, a - b]
    return Ideal(big, gens)
