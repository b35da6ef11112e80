"""The worked-example corpus and its verification pipeline.

Each entry packages a known quadratic birational transformation: its base
locus (an explicit ideal file or a classical constructor), the recorded
image/inverse equations where available, and the expected invariants tied
to rows of the shipped classification table.  Every example is one row of
the `CORPUS` table: its `steps` are check kinds built by the small
factories below (`base`, `smooth`, `gap`, `quadrics`, ...), so each
expectation sits in that one table.  `verify_example` runs the steps in
order and reports PASS / FAIL / SKIPPED_HEAVY per expectation; budget
exhaustion downgrades a check to SKIPPED_HEAVY, never to PASS.

Feasibility classes: FULL (complete symbolic pipeline), FORWARD_ONLY
(constructed base locus with image checks by linear algebra), NUMERIC_ONLY
(numeric invariants, plus checks by linear algebra where a base locus is
constructed).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable

from .classify import CaseRow, check_row, load_table
from .groebner import (
    BudgetExceeded,
    StepBudget,
    _budget,
    _contained_in,
    ideal_equal,
    saturate_irrelevant,
)
from .hilbert import hilbert_data
from .ideal_io import read_ideal
from .invariants import (
    double_point,
    k2_thresholds,
    liftability_certificate,
    pushforward_degrees,
    segre_chern,
    threefold_pushforward,
)
from .maps import (
    HeavyComputation,
    NotACertificate,
    RationalMap,
    ambient_gap,
    composition_identity,
    forward_annihilation,
    image_forms,
    image_ideal,
    map_from_ideal,
    map_type,
    minor_ideal,
    secant_ideal,
    singular_locus,
    smooth_certificate,
    solve_inverse,
)
from .polyring import Ideal, Poly
from .varieties import (
    elliptic_quintic_pfaffian,
    grassmannian_plucker,
    hyperplane_slice,
    in_hyperplane,
    rational_normal_curve,
    scroll,
    segre_product,
)

FULL = "FULL"
FORWARD_ONLY = "FORWARD_ONLY"
NUMERIC_ONLY = "NUMERIC_ONLY"

PASS = "PASS"
FAIL = "FAIL"
SKIPPED_HEAVY = "SKIPPED_HEAVY"

_DATA = os.path.join(os.path.dirname(__file__), "data", "ideals")

_UNDECIDED = (BudgetExceeded, HeavyComputation)


@dataclass
class CheckResult:
    name: str
    status: str
    expected: str = ""
    computed: str = ""
    provenance: str = ""


@dataclass
class VerificationReport:
    example: str
    description: str
    feasibility: str
    checks: list[CheckResult] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def status(self) -> str:
        if any(c.status == FAIL for c in self.checks):
            return FAIL
        return PASS

    def to_text(self, timings: bool = False) -> str:
        lines = [f"example {self.example}: {self.status} ({self.feasibility})"]
        for c in self.checks:
            line = f"  {c.status:13s} {c.name}"
            if c.status == FAIL:
                line += f"  expected={c.expected} computed={c.computed}"
            elif c.expected:
                line += f"  [{c.expected}]"
            lines.append(line)
        if timings:
            lines.append(f"  wall_time_s {self.wall_time_s:.2f}")
        return "\n".join(lines)

    def to_json_dict(self, timings: bool = False) -> dict:
        out = {
            "example": self.example,
            "description": self.description,
            "feasibility": self.feasibility,
            "status": self.status,
            "checks": [asdict(c) for c in self.checks],
        }
        if timings:
            out["wall_time_s"] = round(self.wall_time_s, 2)
        return out


Step = Callable[["_Ctx"], None]


@dataclass(frozen=True)
class ExampleSpec:
    """One corpus example as data.

    `base` is a constructor of the base-locus ideal or the name of a shipped
    ideal file.  `image`, `map` and `inverse` name files holding the
    recorded image ideal, the recorded map components (default: the base
    generators) and the recorded inverse components.  `steps` run in order;
    each appends its checks to the context.
    """

    name: str
    description: str
    feasibility: str
    steps: tuple[Step, ...]
    base: Callable[[], Ideal] | str | None = None
    image: str | None = None
    map: str | None = None
    inverse: str | None = None


class _Ctx:
    """One run of one example.  The ideals and maps below are built on
    first use and shared by every step, so each Groebner basis is computed
    once per run."""

    def __init__(self, spec: ExampleSpec, budget: StepBudget):
        self.spec = spec
        self.budget = budget
        # steps append here, so checks that finished survive a later
        # budget exhaustion
        self.checks: list[CheckResult] = []
        # the inverse found by the `inverse` step, for the steps after it
        self.solved_inverse: RationalMap | None = None
        self._files: dict[str, Ideal] = {}

    def load(self, name: str) -> Ideal:
        """A shipped ideal file, read once per run, so that a Groebner basis
        computed on it by one step is reused by the later ones."""
        if name not in self._files:
            self._files[name] = read_ideal(os.path.join(_DATA, name))
        return self._files[name]

    @cached_property
    def base(self) -> Ideal:
        b = self.spec.base
        return self.load(b) if isinstance(b, str) else b()

    @cached_property
    def quadric_map(self) -> RationalMap:
        """The map given by all quadrics through the base locus."""
        return map_from_ideal(self.base)

    @cached_property
    def quadrics(self) -> list[Poly]:
        """The quadrics vanishing on the image of the quadric map."""
        return image_forms(self.quadric_map, 2)

    @cached_property
    def map(self) -> RationalMap:
        """The recorded map onto the recorded image, else the quadric map."""
        if self.spec.image is None:
            return self.quadric_map
        comps = self.load(self.spec.map) if self.spec.map else self.base
        return RationalMap(self.base.ring, self.image.ring, comps.generators)

    @cached_property
    def image(self) -> Ideal:
        """The recorded image ideal, else the image of the map by elimination."""
        if self.spec.image is None:
            return image_ideal(self.map, self.budget)
        return self.load(self.spec.image)

    @cached_property
    def inverse(self) -> RationalMap:
        """The recorded inverse."""
        comps = self.load(self.spec.inverse).generators
        return RationalMap(self.image.ring, self.base.ring, comps)


def _eq(name: str, expected, computed, provenance: str = "") -> CheckResult:
    ok = expected == computed
    return CheckResult(
        name,
        PASS if ok else FAIL,
        expected=repr(expected),
        computed=repr(computed),
        provenance=provenance,
    )


def _true(name: str, value: bool, provenance: str = "") -> CheckResult:
    return _eq(name, True, value, provenance)


def _heavy(
    name: str, provenance: str, check: Callable[[_Ctx], CheckResult], cost: int
) -> Step:
    """A step with a declared cost in budget steps, attempted only when the
    budget left covers it; a step not attempted, or one that runs out of
    budget or over a size cap, reports SKIPPED_HEAVY.  The cost is the
    check's exact step count, unless that count understates its work."""

    def step(ctx: _Ctx) -> None:
        if ctx.budget.limit - ctx.budget.used < cost:
            result = CheckResult(name, SKIPPED_HEAVY, provenance=provenance,
                                 expected="attempted only under an enlarged step budget")
        else:
            try:
                result = check(ctx)
            except _UNDECIDED as e:
                result = CheckResult(name, SKIPPED_HEAVY, expected=str(e), provenance=provenance)
        ctx.checks.append(result)

    return step


def _row_checks(row: CaseRow, label: str, skip: str | None = None) -> list[CheckResult]:
    """Re-evaluate every applicable closed-form relation on a row."""
    return [
        CheckResult(
            f"row[{label}].{rel.relation}",
            PASS if rel.ok else FAIL,
            expected="relation holds",
            computed=rel.detail or ("ok" if rel.ok else "violated"),
            provenance=row.provenance,
        )
        for rel in check_row(row)
        if rel.relation != skip
    ]


# ---------------------------------------------------------------------------
# check kinds: each factory returns a step that appends its checks

def base(*expected: int) -> Step:
    """Dimension, degree[, sectional genus[, chi]] of the base locus; the
    number of values picks the check name."""
    name = "_".join(("base_locus_dim_deg", "genus", "chi")[: len(expected) - 1])

    def step(ctx: _Ctx) -> None:
        hd = hilbert_data(ctx.base, budget=ctx.budget)
        computed = (hd.dim_proj, hd.degree, hd.sectional_genus, hd.chi)[: len(expected)]
        ctx.checks.append(_eq(name, expected, computed))

    return step


def smooth(dim: int, provenance: str = "", image: bool = False) -> Step:
    """Smoothness certificate of the base locus (or of the image)."""

    def step(ctx: _Ctx) -> None:
        ideal, name = (ctx.image, "image_smooth") if image else (ctx.base, "base_locus_smooth")
        ok = smooth_certificate(ideal, dim, ctx.budget)
        ctx.checks.append(_true(name, ok, provenance))

    return step


def gap(a: int, provenance: str = "") -> Step:
    """Ambient gap of the quadric map: quadrics through the base minus nvars."""
    return lambda ctx: ctx.checks.append(
        _eq("ambient_gap", a, ambient_gap(ctx.quadric_map), provenance)
    )


def quadrics(n: int, provenance: str = "") -> Step:
    """Number of independent quadrics vanishing on the image."""
    return lambda ctx: ctx.checks.append(
        _eq("image_quadric_count", n, len(ctx.quadrics), provenance)
    )


def quadric_image(dim: int, deg: int, provenance: str = "") -> Step:
    """Dimension and degree of the scheme cut out by the image quadrics."""

    def step(ctx: _Ctx) -> None:
        K = Ideal(ctx.quadric_map.target_ring, ctx.quadrics)
        hk = hilbert_data(K, budget=ctx.budget)
        ctx.checks.append(_eq("image_dim_deg", (dim, deg), (hk.dim_proj, hk.degree), provenance))

    return step


def image(dim: int, deg: int) -> Step:
    """Dimension and degree of the image, computed by elimination or recorded."""

    def step(ctx: _Ctx) -> None:
        hs = hilbert_data(ctx.image, budget=ctx.budget)
        ctx.checks.append(_eq("image_dim_deg", (dim, deg), (hs.dim_proj, hs.degree)))

    return step


def inverse(degree: int) -> Step:
    """An inverse of the given degree exists, and the map has type (2, degree)."""
    name = ("linear", "quadratic")[degree - 1] + "_inverse_exists"

    def step(ctx: _Ctx) -> None:
        G = solve_inverse(ctx.map, degree)
        ctx.solved_inverse = G
        ctx.checks.append(_true(name, G is not None))
        if G is not None:
            ctx.checks.append(_eq("type", (2, degree), map_type(ctx.map, G, ctx.budget)))

    return step


def recorded(
    image_provenance: str, inverse_provenance: str = "", map_degrees: tuple | None = None
) -> Step:
    """The recorded map sends the source into the recorded image; when an
    inverse is recorded, the composite is the identity, and `map_degrees`
    is the expected type, checked only once the identity holds."""

    def step(ctx: _Ctx) -> None:
        F = ctx.map
        ok = all(forward_annihilation(F, g) for g in ctx.image.generators)
        ctx.checks.append(_true("forward_annihilation", ok, image_provenance))
        if ctx.spec.inverse is None:
            return
        G = ctx.inverse
        try:
            ok = composition_identity(F, G)
        except NotACertificate:  # the recorded representative vanishes on the image
            ok = False
        ctx.checks.append(_true("composition_identity", ok, inverse_provenance))
        if ok and map_degrees is not None:
            ctx.checks.append(_eq("type", map_degrees, map_type(F, G, ctx.budget)))

    return step


def segre_profile(
    args: tuple, segre: tuple, degree_product: int, suffix: str = "", provenance: str = ""
) -> Step:
    """Normal-bundle Segre degrees of `segre_chern(*args)` and the product of
    the image and inverse degrees they push forward to."""
    r, n, lam = args[:3]

    def step(ctx: _Ctx) -> None:
        prof, _ = segre_chern(*args)
        ctx.checks.append(_eq("segre_degrees" + suffix, segre, prof.s, provenance))
        dd, _ = pushforward_degrees(r, n, lam, list(prof.s))
        ctx.checks.append(_eq("degree_times_image_degree" + suffix, degree_product, dd))

    return step


def chern(lam: int, g: int, chern_degrees: tuple, image_degree: int,
          inverse_degree: int | None = None, segre: tuple | None = None, provenance: str = "",
          suffix: str = "") -> Step:
    """Image degree (and optionally inverse degree and Segre degrees) of a
    threefold base locus in P^8 of degree lam and sectional genus g with the
    given Chern degrees (c2.H, c3)."""

    def step(ctx: _Ctx) -> None:
        s, deg_delta, d_delta = threefold_pushforward(8, lam, g, *chern_degrees)
        if segre is not None:
            ctx.checks.append(_eq("segre_degrees", segre, s, provenance))
        ctx.checks.append(_eq("image_degree" + suffix, image_degree, deg_delta))
        if inverse_degree is not None:
            ctx.checks.append(_eq("inverse_degree", inverse_degree, d_delta // deg_delta))

    return step


def thresholds(lam: int, g: int, expected: tuple, provenance: str = "") -> Step:
    """ACM, quadric-generation and linear-syzygy thresholds."""

    def step(ctx: _Ctx) -> None:
        th = k2_thresholds(lam, g)
        computed = (th["acm"], th["quadric_generated"], th["linear_syzygies"])
        ctx.checks.append(_eq("generation_thresholds", expected, computed, provenance))

    return step


def rows(*keys: tuple) -> Step:
    """The closed-form relations of each classification-table row."""

    def step(ctx: _Ctx) -> None:
        table = {row.key(): row for row in load_table()}
        for key in keys:
            ctx.checks += _row_checks(table[key], str(key))

    return step


def singular_dim(codim: int, cap: int, expected: int, provenance: str, cost: int) -> Step:
    """Dimension of the singular locus of the recorded image (heavy), read
    from the Jacobian-minor ideal without saturating it.  `cost` is the
    check's declared step cost."""

    def check(ctx: _Ctx) -> CheckResult:
        h = hilbert_data(minor_ideal(ctx.image, codim, cap), budget=ctx.budget)
        return _eq("image_singular_dim", expected, h.dim_proj, provenance)

    return _heavy("image_singular_dim", provenance, check, cost)


# ---------------------------------------------------------------------------
# one-off steps

def _secant_is_quintic(ctx: _Ctx) -> CheckResult:
    gens = secant_ideal(ctx.base, ctx.budget).generators
    ok = len(gens) == 1 and gens[0].degree() == 5
    return _true("secant_quintic_hypersurface", ok, "degree 2d-1 with d=3")


def _quartic_singular_support(ctx: _Ctx) -> None:
    """The recorded image is the image, and it is singular exactly along
    the recorded line."""
    checks = ctx.checks
    S_disp = ctx.image
    S = image_ideal(ctx.map, ctx.budget)
    checks.append(_true("image_ideal_equals_recorded", ideal_equal(S, S_disp, ctx.budget)))
    hs = hilbert_data(S_disp, budget=ctx.budget)
    quartic_fourfold = "1/6*t^4 + t^3 + 7/3*t^2 + 5/2*t + 1"
    checks.append(_eq("image_hilbert_polynomial", quartic_fourfold, hs.hp_str(),
                      "quartic fourfold image"))
    sing = singular_locus(S_disp, 2, ctx.budget)
    hsing = hilbert_data(sing, budget=ctx.budget)
    checks.append(_eq("singular_locus_hilbert_polynomial", "t + 5", hsing.hp_str()))
    same = ideal_equal(sing, ctx.load("quartic_curve_sing.ideal"), ctx.budget)
    checks.append(
        _true("singular_scheme_matches_recorded", same, "saturated Jacobian-minor scheme")
    )
    # reduced support: the singular scheme is contained in the recorded
    # line, and every linear generator has a power inside it
    singred = ctx.load("quartic_curve_singred.ideal")
    contained = _contained_in(sing.generators, singred, ctx.budget)
    powers = _contained_in(
        [singred.ring.var(v) ** 3 for v in ("y2", "y3", "y4", "y5", "y6")], sing, ctx.budget
    )
    checks.append(_true("singular_support_is_recorded_line", contained and powers))


def _quartic_inverse_base_locus(ctx: _Ctx) -> None:
    """The linear inverse's base locus on the image is the recorded line, so
    the image is singular exactly along it: the regularity hypothesis fails."""
    G = ctx.solved_inverse
    if G is None:
        return
    S_disp = ctx.image
    Bprime = Ideal(S_disp.ring, list(G.components) + list(S_disp.generators))
    Bp = saturate_irrelevant(Bprime, ctx.budget)
    same = ideal_equal(Bp, ctx.load("quartic_curve_singred.ideal"), ctx.budget)
    ctx.checks.append(_true("inverse_base_locus_is_recorded_line", same,
                            "base locus of the linear inverse on the image"))
    support = any(c.name == "singular_support_is_recorded_line" and c.status == PASS
                  for c in ctx.checks)
    ctx.checks.append(
        CheckResult(
            "ASSUMPTION3_VIOLATED",
            PASS if (same and support) else FAIL,
            expected="singular support equals the inverse base locus",
            computed=str(same and support),
            provenance="regularity hypothesis fails for this map",
        )
    )


# this case sits outside the classification table (the regularity
# hypothesis fails), so its numeric relations run on an ad-hoc row
_EXCLUDED_QUARTIC = CaseRow(
    r=1, n=4, a=2, lam=4, g=1,
    structure="elliptic quartic curve", d=1, Delta=4, c=2, eps=1, chi=0,
)


def _quartic_exclusion(ctx: _Ctx) -> None:
    ctx.checks += _row_checks(_EXCLUDED_QUARTIC, "excluded quartic", skip="double_point")
    # exclusion witness: the curve has two apparent double points, not the
    # single one a linear-inverse transformation would need
    ctx.checks.append(_eq("apparent_double_points_exclude_case", -2, int(double_point(1, 4, 1, 1)),
                          "two apparent double points versus secant degree one"))


def _saturation_fixed_point(ctx: _Ctx) -> None:
    sat = saturate_irrelevant(ctx.base, ctx.budget)
    same = ideal_equal(sat, ctx.base, ctx.budget)
    ctx.checks.append(_true("ideal_saturated", same, "irrelevant saturation fixed point"))


def _del_pezzo_lift_certificate(ctx: _Ctx) -> None:
    """Degree-19 image whose candidate inverse degree product is 25, so the
    inverse cannot lift to an integral-degree representative."""
    checks = ctx.checks
    s, deg_delta, d_delta = threefold_pushforward(8, 7, 1, 12, 6)
    checks.append(_eq("segre_degrees", (-49, 201, -627), s, "del Pezzo Chern degrees 14, 12, 6"))
    checks.append(_eq("image_degree", 19, deg_delta))
    checks.append(_eq("lift_candidate_degree_product", 25, d_delta,
                      "inconsistent with an integral inverse degree"))
    checks.append(
        CheckResult(
            "NOT_LIFTABLE_CERTIFICATE",
            FAIL if liftability_certificate(deg_delta, d_delta) else PASS,
            expected="19 does not divide 25",
            computed=f"{d_delta} mod {deg_delta} = {d_delta % deg_delta}",
        )
    )


# G(1,6) in P^20 has HF(2) = 196, so its codimension-2 linear section has
# HF(2) = 196 - 2*21 + 1 = 155 and lies on 190 - 155 = 35 quadrics of P^18
_QUINTIC_SCROLL_QUADRICS = (
    "codimension-2 linear section of the line Grassmannian of P^6: 190 - (196 - 2*21 + 1) = 35"
)


CORPUS: dict[str, ExampleSpec] = {
    spec.name: spec
    for spec in [
        # the conic case runs symbolically, the surface and threefold slices numerically
        ExampleSpec(
            "quadric_slices",
            "smooth quadric inside a hyperplane; image a smooth quadric, linear inverse",
            FULL,
            (gap(1), base(1, 2, 0), image(3, 2), smooth(3, "quadric image", image=True), inverse(1),
             rows((1, 3, 1, 2, 0, 1, 2), (2, 4, 1, 2, 0, 1, 2), (3, 5, 1, 2, 0, 1, 2))),
            base=lambda: in_hyperplane(rational_normal_curve(2)),
        ),
        ExampleSpec(
            "elliptic_quintic_cremona",
            "elliptic normal quintic curve; square Cremona transformation with cubic inverse",
            FULL,
            (base(1, 5, 1), smooth(1), gap(0, "square Cremona: five quadrics"),
             rows((1, 4, 0, 5, 1, 3, 1)),
             _heavy("secant_quintic_hypersurface", "sum-and-difference elimination",
                    _secant_is_quintic, 6_900)),
            base=elliptic_quintic_pfaffian,
        ),
        # the quartic curve case runs symbolically, its surface and threefold
        # relatives numerically
        ExampleSpec(
            "severi_slices",
            "rational normal quartic curve (hyperplane slice of the Veronese involution)",
            FULL,
            (base(1, 4, 0), gap(1), image(4, 2), smooth(4, image=True), inverse(2),
             rows((1, 4, 1, 4, 0, 2, 2), (2, 5, 0, 4, 0, 2, 1), (3, 7, 1, 6, 1, 2, 2))),
            base=lambda: rational_normal_curve(4),
        ),
        ExampleSpec(
            "quartic_curve_singular_image",
            "elliptic quartic curve; quartic image singular exactly along the inverse base line",
            FULL,
            (base(1, 4, 1), gap(2), recorded("recorded image generators"),
             _quartic_singular_support, inverse(1), _quartic_inverse_base_locus,
             _quartic_exclusion),
            base="quartic_curve_base.ideal",
            image="quartic_curve_image.ideal",
            map="quartic_curve_map.ideal",
        ),
        ExampleSpec(
            "segre_line_plane",
            "Segre threefold inside a hyperplane; image the line Grassmannian of P^4",
            FORWARD_ONLY,
            (base(3, 3), gap(3), quadrics(5, "line-Grassmannian image"), quadric_image(6, 5),
             rows((3, 6, 3, 3, 0, 1, 5), (2, 5, 3, 3, 0, 1, 5), (1, 4, 3, 3, 0, 1, 5))),
            base=lambda: in_hyperplane(segre_product((1, 2))),
        ),
        ExampleSpec(
            "octic_plane_cremona",
            "octic-system plane blow-ups and the septic elliptic scroll; square Cremona sources",
            NUMERIC_ONLY,
            (rows((2, 6, 0, 8, 3, 4, 1), (2, 6, 0, 7, 1, 4, 1)),),
        ),
        ExampleSpec(
            "septic_edge_section",
            "surface section of the septic two-ruling scroll; rank-six quadric image",
            NUMERIC_ONLY,
            (rows((2, 6, 1, 7, 2, 3, 2)),),
        ),
        ExampleSpec(
            "del_pezzo_sextic",
            "sextic del Pezzo surface; image a complete intersection of two quadrics",
            FORWARD_ONLY,
            (base(2, 6, 1), smooth(2), gap(2), quadrics(2, "intersection of two quadrics"),
             quadric_image(6, 4), rows((2, 6, 2, 6, 1, 2, 4))),
            base=lambda: hyperplane_slice(segre_product((1, 1, 1)), [1, 0, 0, 1, 0, 1, 0, 1]),
        ),
        ExampleSpec(
            "quintic_surface_scrolls",
            "quintic rational surface scrolls; image the line Grassmannian of P^4",
            FORWARD_ONLY,
            (base(2, 5, 0), smooth(2), gap(3), quadrics(5),
             quadric_image(6, 5, "line-Grassmannian image"), rows((2, 6, 3, 5, 0, 2, 5))),
            base=lambda: scroll((1, 4)),
        ),
        ExampleSpec(
            "grassmannian_to_spinor",
            "line Grassmannian of P^4 inside a hyperplane; image the spinor tenfold",
            NUMERIC_ONLY,
            (base(6, 5), gap(5), quadrics(10, "spinor-variety image"),
             rows((2, 6, 5, 5, 1, 1, 12), (3, 7, 5, 5, 1, 1, 12))),
            base=lambda: in_hyperplane(grassmannian_plucker(1, 4)),
        ),
        ExampleSpec(
            "line_space_segre",
            "product of a line and a space inside a hyperplane; image the line Grassmannian of P^5",
            FORWARD_ONLY,
            (base(4, 4), gap(6), quadrics(15, "line-Grassmannian of P^5"),
             rows((3, 7, 6, 4, 0, 1, 14), (2, 6, 6, 4, 0, 1, 14))),
            base=lambda: in_hyperplane(segre_product((1, 3))),
        ),
        ExampleSpec(
            "projected_grassmannian_cremona",
            "internal projection of a Grassmannian section; square Cremona with quintic inverse",
            NUMERIC_ONLY,
            (rows((3, 8, 0, 13, 8, 5, 1)),),
        ),
        ExampleSpec(
            "blown_up_quadric_threefold",
            "quadric threefold blown up at five points; cubic hypersurface image",
            NUMERIC_ONLY,
            (rows((3, 8, 1, 11, 5, 3, 3)),),
        ),
        ExampleSpec(
            "ruled_scroll_eleven",
            "degree-eleven scroll over a ruled surface; conditional quadric image",
            NUMERIC_ONLY,
            (segre_profile((3, 8, 11, 5, 4, 2), (-85, 386, -1330), 2,
                           provenance="recorded normal-bundle Segre degrees"),
             thresholds(11, 5, (True, False, False),
                        "conditional: needs the base locus cut out by its quadrics"),
             rows((3, 8, 1, 11, 5, 4, 2))),
        ),
        ExampleSpec(
            "spinor_section_quadric_image",
            "threefold linear section of the spinor tenfold; smooth quadric image",
            NUMERIC_ONLY,
            (rows((3, 8, 1, 12, 7, 4, 2)),),
        ),
        ExampleSpec(
            "quadric_scroll_ten",
            "degree-ten scroll over a quadric surface; quartic image",
            NUMERIC_ONLY,
            (segre_profile((3, 8, 10, 4, 3, 4), (-76, 340, -1156), 4),
             thresholds(10, 5, (True, True, False)), rows((3, 8, 2, 10, 4, 3, 4))),
        ),
        ExampleSpec(
            "plane_scroll_nine",
            "degree-nine plane scroll and quadric fibration; octic and quintic images",
            NUMERIC_ONLY,
            (segre_profile((3, 8, 9, 3, 2, 8), (-67, 294, -984), 8, suffix="_scroll"),
             segre_profile((3, 8, 9, 3, 3, 5), (-67, 295, -997), 5, suffix="_fibration"),
             rows((3, 8, 3, 9, 3, 2, 8), (3, 8, 3, 9, 3, 3, 5))),
        ),
        # the explicit thirteen-quadric threefold in P^8: full pipeline
        ExampleSpec(
            "line_times_quadric_section",
            "hyperplane section of a line times a quadric threefold; explicit degree-ten image",
            FULL,
            (_saturation_fixed_point, base(3, 8, 2, 1), gap(4), smooth(3, "per-chart Jacobians"),
             recorded("six recorded image generators", "recorded inverse", (2, 2)),
             image(8, 10),
             singular_dim(4, 12000, 3, "codimension-4 minor scheme in P^12", 55_270),
             rows((3, 8, 4, 8, 2, 2, 10))),
            base="line_times_quadric_base.ideal",
            image="line_times_quadric_image.ideal",
            inverse="line_times_quadric_inverse.ideal",
        ),
        ExampleSpec(
            "del_pezzo_seven_nonliftable",
            "degree-seven del Pezzo threefold; degree-19 image with non-liftable inverse",
            FULL,
            (base(3, 7, 1, 1), gap(5), smooth(3), _del_pezzo_lift_certificate,
             recorded("recorded image generators (six quadrics and one cubic)",
                      "recorded inverse representative"),
             # its 1,039,792 steps understate it: the reduced echelon of
             # its 39,235 minors, about 50 s, takes no steps; the declared
             # cost keeps it out of every run with fewer than 30,000,000
             # steps left until that echelon and its Buchberger run are fast
             singular_dim(5, 50000, 4, "codimension-5 minor scheme in P^13", 30_000_000)),
            base="del_pezzo_seven_base.ideal",
            image="del_pezzo_seven_image.ideal",
            inverse="del_pezzo_seven_inverse.ideal",
        ),
        ExampleSpec(
            "sextic_threefold_scrolls",
            "sextic rational normal threefold scrolls; image the line Grassmannian of P^5",
            FORWARD_ONLY,
            (base(3, 6, 0), smooth(3), gap(6), quadrics(15, "line-Grassmannian of P^5"),
             rows((3, 8, 6, 6, 0, 2, 14))),
            base=lambda: scroll((2, 2, 2)),
        ),
        ExampleSpec(
            "octic_plane_bundle_oadp",
            "octic plane bundle with one apparent double point; degree-29 image",
            NUMERIC_ONLY,
            (chern(8, 3, (15, 6), 29, inverse_degree=1, segre=(-60, 267, -909),
                   provenance="recorded Chern degrees 12, 15, 6"),
             rows((3, 8, 7, 8, 3, 1, 29))),
        ),
        ExampleSpec(
            "edge_threefolds_oadp",
            "septic and sextic two-ruling threefolds; degree-33 and degree-38 images"
            " with singular locus of dimension between 1 and 5",
            NUMERIC_ONLY,
            (chern(7, 2, (14, 4), 33, suffix="_septic_case"),
             chern(6, 1, (12, 8), 38, suffix="_sextic_case"),
             rows((3, 8, 8, 7, 2, 1, 33), (3, 8, 9, 6, 1, 1, 38))),
        ),
        ExampleSpec(
            "quintic_scroll_oadp",
            "quintic threefold scroll with one apparent double point; degree-42 image",
            NUMERIC_ONLY,
            (chern(5, 0, (11, 6), 42, inverse_degree=1),
             quadrics(35, _QUINTIC_SCROLL_QUADRICS), rows((3, 8, 10, 5, 0, 1, 42))),
            base=lambda: in_hyperplane(scroll((1, 2, 2))),
        ),
    ]
}


def verify_example(
    name: str,
    budget: StepBudget | int | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Run one corpus example.  `seed` is ignored: every step is
    deterministic."""
    if name not in CORPUS:
        raise KeyError(f"unknown example {name!r}; known: {sorted(CORPUS)}")
    spec = CORPUS[name]
    ctx = _Ctx(spec, _budget(budget))
    start = time.time()
    try:
        for step in spec.steps:
            step(ctx)
    except _UNDECIDED as e:
        ctx.checks.append(
            CheckResult(
                "pipeline",
                SKIPPED_HEAVY,
                expected=str(e),
                provenance="budget exhausted mid-pipeline",
            )
        )
    return VerificationReport(
        example=name,
        description=spec.description,
        feasibility=spec.feasibility,
        checks=ctx.checks,
        wall_time_s=time.time() - start,
    )


def verify_all(
    budget_limit: int | None = None, seed: int = 0
) -> list[VerificationReport]:
    """Run every corpus example (fresh budget each), sorted by name.
    `seed` is ignored."""
    return [verify_example(name, StepBudget(budget_limit)) for name in sorted(CORPUS)]


def reports_to_text(reports: list[VerificationReport], timings: bool = False) -> str:
    return "\n".join(r.to_text(timings) for r in reports)


def reports_to_json(reports: list[VerificationReport], timings: bool = False) -> str:
    return json.dumps(
        [r.to_json_dict(timings) for r in reports], indent=2, sort_keys=True
    )
