"""Constructors for the classical determinantal varieties used as base loci.

Each constructor returns the homogeneous ideal of the named variety in its
standard coordinates: rational normal curves and scrolls as minors of
catalecticant blocks, Veronese embeddings as minors of the symmetric
matrix, Segre products by their lattice binomials, the line
Grassmannian of P^4 by its five quadratic relations, and a fixed smooth
elliptic normal quintic given by the principal Pfaffians of a skew matrix
of linear forms.
"""

from __future__ import annotations

from itertools import combinations

from .polyring import Ideal, Poly, Ring, _fresh_name, nonzero_minors


def rational_normal_curve(e: int) -> Ideal:
    """Degree-e rational normal curve in P^e (2x2 minors of the moving row)."""
    if e < 2:
        raise ValueError("need degree at least 2")
    return scroll((e,))


def veronese(n: int, d: int = 2) -> Ideal:
    """Quadratic Veronese embedding of P^n (2x2 minors of the symmetric
    catalecticant); only d = 2 is supported."""
    if d != 2:
        raise ValueError("only the quadratic Veronese is supported")
    N = (n + 1) * (n + 2) // 2 - 1
    ring = Ring([f"x{i}" for i in range(N + 1)])
    x = ring.gens()
    index = {}
    k = 0
    for i in range(n + 1):
        for j in range(i, n + 1):
            index[(i, j)] = k
            index[(j, i)] = k
            k += 1
    matrix = [[x[index[(i, j)]] for j in range(n + 1)] for i in range(n + 1)]
    return Ideal(ring, _dedupe(list(nonzero_minors(matrix, 2, ring))))


def scroll(degrees: tuple[int, ...] | list[int]) -> Ideal:
    """Rational normal scroll of the given fiber degrees, as 2x2 minors of
    the juxtaposed catalecticant blocks."""
    degrees = tuple(degrees)
    if not degrees or any(d < 1 for d in degrees):
        raise ValueError("need positive fiber degrees")
    total = sum(degrees) + len(degrees) - 1
    ring = Ring([f"x{i}" for i in range(total + 1)])
    x = ring.gens()
    top, bottom = [], []
    offset = 0
    for d in degrees:
        block = [x[offset + i] for i in range(d + 1)]
        top += block[:-1]
        bottom += block[1:]
        offset += d + 1
    return Ideal(ring, nonzero_minors([top, bottom], 2, ring))


def segre_product(dims: tuple[int, ...] | list[int]) -> Ideal:
    """Segre product of several projective spaces.

    Coordinates are indexed by tuples of indices; the ideal is generated by
    the lattice binomials x_u x_v - x_(u min v) x_(u max v), which generate
    for any product of projective spaces.
    """
    from itertools import product as iproduct

    dims = tuple(dims)
    tuples = list(iproduct(*[range(d + 1) for d in dims]))
    names = ["x_" + "".join(map(str, t)) for t in tuples]
    ring = Ring(names)
    coord = {t: ring.var(nm) for t, nm in zip(tuples, names)}
    gens = []
    for i, u in enumerate(tuples):
        for v in tuples[i + 1 :]:
            lo = tuple(min(a, b) for a, b in zip(u, v))
            hi = tuple(max(a, b) for a, b in zip(u, v))
            if lo == u or lo == v:
                continue
            gens.append(coord[u] * coord[v] - coord[lo] * coord[hi])
    return Ideal(ring, _dedupe(gens))


def hyperplane_slice(I: Ideal, coeffs: list[int]) -> Ideal:
    """Restrict to the hyperplane sum(coeffs[i] * v_i) = 0 by eliminating
    the last variable (whose coefficient must be nonzero)."""
    ring = I.ring
    if len(coeffs) != ring.nvars or not coeffs[-1]:
        raise ValueError("need one coefficient per variable, last nonzero")
    small = Ring(ring.variables[:-1])
    images = [small.var(v) for v in ring.variables[:-1]]
    last = small.zero()
    from fractions import Fraction

    for i in range(ring.nvars - 1):
        if coeffs[i]:
            last = last - images[i].scale(Fraction(coeffs[i], coeffs[-1]))
    images.append(last)
    return Ideal(small, [p for p in (g.substitute(images) for g in I.generators) if p])


def grassmannian_plucker(k: int, n: int) -> Ideal:
    """Grassmannian of k-planes in P^n under the Pluecker embedding;
    supported for lines (k = 1)."""
    if k != 1:
        raise ValueError("only line Grassmannians are supported")
    pairs = list(combinations(range(n + 1), 2))
    names = [f"p{i}{j}" for i, j in pairs]
    ring = Ring(names)
    coord = {pair: ring.var(name) for pair, name in zip(pairs, names)}

    def p(i: int, j: int) -> Poly:
        if i == j:
            return ring.zero()
        if i < j:
            return coord[(i, j)]
        return -coord[(j, i)]

    gens = []
    for quad in combinations(range(n + 1), 4):
        i, j, kk, l = quad
        gens.append(p(i, j) * p(kk, l) - p(i, kk) * p(j, l) + p(i, l) * p(j, kk))
    return Ideal(ring, gens)


def elliptic_quintic_pfaffian() -> Ideal:
    """A fixed smooth elliptic normal quintic curve in P^4.

    Principal 4x4 Pfaffians of the cyclically symmetric skew matrix with
    band entries M[i][i+1] = -2 x_{2i+1}, M[i][i+2] = 2 x_{2i+2} (indices
    mod 5).  Normalized, the five quadrics are

        x_{k+1} x_{k+4} - x_{k+2} x_{k+3} - x_k^2,   k = 0..4,

    and cut out a smooth curve of degree 5 and genus 1 spanning P^4.
    """
    ring = Ring([f"x{i}" for i in range(5)])
    x = ring.gens()
    M = [[ring.zero()] * 5 for _ in range(5)]
    for i in range(5):
        j = (i + 1) % 5
        M[i][j] = x[(i + j) % 5].scale(-2)
        M[j][i] = -M[i][j]
    for i in range(5):
        j = (i + 2) % 5
        M[i][j] = x[(i + j) % 5].scale(2)
        M[j][i] = -M[i][j]
    gens = []
    for k in range(5):
        a, b, c, d = [i for i in range(5) if i != k]
        pf = M[a][b] * M[c][d] - M[a][c] * M[b][d] + M[a][d] * M[b][c]
        gens.append(pf.primitive())
    return Ideal(ring, gens)


def in_hyperplane(I: Ideal) -> Ideal:
    """View V(I) inside the hyperplane v = 0 of a projective space with one
    more coordinate v."""
    ring = I.ring
    v = _fresh_name(ring, ring.variables[0].rstrip("0123456789") + str(ring.nvars))
    big = Ring(list(ring.variables) + [v])
    lifted = [
        Poly(big, {e + (0,): c for e, c in g.terms.items()})
        for g in I.generators
    ]
    return Ideal(big, lifted + [big.var(v)])


def _dedupe(polys: list[Poly]) -> list[Poly]:
    seen = []
    for p in polys:
        if p and not any(p == q or p == -q for q in seen):
            seen.append(p)
    return seen
