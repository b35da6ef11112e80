"""The worked-example corpus and its verification pipeline.

Each entry packages a known quadratic birational transformation: its base
locus (an explicit ideal file or a classical constructor), the recorded
image/inverse equations where available, and the expected invariants tied
to rows of the shipped classification table.  `verify_example` runs every
check the entry's feasibility class allows and reports PASS / FAIL /
SKIPPED_HEAVY per expectation; budget exhaustion downgrades a check to
SKIPPED_HEAVY, never to PASS.

Feasibility classes: FULL (complete symbolic pipeline), FORWARD_ONLY
(constructed base locus with image checks by linear algebra), NUMERIC_ONLY
(numeric invariants only; the heavy symbolic side is attempted only under
an enlarged budget).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from .classify import CaseRow, check_row, load_table
from .groebner import (
    BudgetExceeded,
    Ideal,
    SaturationUncertified,
    StepBudget,
    ideal_equal,
    membership,
    saturate_irrelevant,
)
from .hilbert import graded_piece, hilbert_data
from .ideal_io import read_ideal
from .invariants import (
    normal_segre_from_chern,
    pushforward_degrees,
    k2_thresholds,
    segre_chern,
)
from .maps import (
    HeavyComputation,
    RationalMap,
    ambient_gap,
    composition_identity,
    forward_annihilation,
    image_forms,
    image_ideal,
    map_from_ideal,
    map_type,
    singular_locus,
    smooth_certificate,
    solve_inverse,
)
from .polyring import Ring
from .varieties import (
    elliptic_quintic_pfaffian,
    grassmannian_plucker,
    hyperplane_slice,
    in_hyperplane,
    rational_normal_curve,
    scroll,
    segre,
    segre_product,
)

FULL = "FULL"
FORWARD_ONLY = "FORWARD_ONLY"
NUMERIC_ONLY = "NUMERIC_ONLY"

PASS = "PASS"
FAIL = "FAIL"
SKIPPED_HEAVY = "SKIPPED_HEAVY"

# checks marked heavy run only when the step budget is at least this large
HEAVY_BUDGET_THRESHOLD = 30_000_000

_DATA = os.path.join(os.path.dirname(__file__), "data", "ideals")


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
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "expected": c.expected,
                    "computed": c.computed,
                    "provenance": c.provenance,
                }
                for c in self.checks
            ],
        }
        if timings:
            out["wall_time_s"] = round(self.wall_time_s, 2)
        return out


class _Ctx:
    def __init__(self, budget: StepBudget, seed: int):
        self.budget = budget
        self.seed = seed
        # runners append here, so checks that finished survive a later
        # budget exhaustion
        self.checks: list[CheckResult] = []

    @property
    def heavy_allowed(self) -> bool:
        return self.budget.limit is None or self.budget.limit >= HEAVY_BUDGET_THRESHOLD


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
    return CheckResult(
        name,
        PASS if value else FAIL,
        expected="True",
        computed=repr(value),
        provenance=provenance,
    )


def _heavy(
    ctx: _Ctx, name: str, provenance: str, fn: Callable[[], CheckResult]
) -> CheckResult:
    if not ctx.heavy_allowed:
        return CheckResult(
            name,
            SKIPPED_HEAVY,
            expected="attempted only under an enlarged step budget",
            provenance=provenance,
        )
    try:
        return fn()
    except (BudgetExceeded, HeavyComputation, SaturationUncertified) as e:
        return CheckResult(
            name, SKIPPED_HEAVY, expected=str(e), provenance=provenance
        )


def _table_row(r, n, a, lam, g, d, Delta) -> CaseRow:
    for row in load_table():
        if row.key() == (r, n, a, lam, g, d, Delta):
            return row
    raise KeyError(f"no classification row {(r, n, a, lam, g, d, Delta)}")


def _row_checks(key: tuple, prefix: str = "row") -> list[CheckResult]:
    """Re-evaluate every applicable closed-form relation on a table row."""
    row = _table_row(*key)
    out = []
    for rel in check_row(row):
        out.append(
            CheckResult(
                f"{prefix}[{key}].{rel.relation}",
                PASS if rel.ok else FAIL,
                expected="relation holds",
                computed=rel.detail or ("ok" if rel.ok else "violated"),
                provenance=row.provenance,
            )
        )
    return out


def _load(name: str) -> Ideal:
    return read_ideal(os.path.join(_DATA, name))


def _map_from_files(base: str, image: str) -> tuple[RationalMap, Ideal]:
    B = _load(base)
    S = _load(image)
    return RationalMap(B.ring, S.ring, B.generators), S


# ---------------------------------------------------------------------------
# runners

def _run_quadric_slices(ctx: _Ctx) -> None:
    """Smooth quadric in a hyperplane: the conic case is run symbolically,
    the surface and threefold slices numerically."""
    checks = ctx.checks
    P3 = Ring(["x0", "x1", "x2", "x3"])
    x = P3.gens()
    I = Ideal(P3, [x[0] * x[2] - x[1] * x[1], x[3]])
    F = map_from_ideal(I, ctx.budget)
    checks.append(_eq("ambient_gap", 1, ambient_gap(F)))
    hd = hilbert_data(I, budget=ctx.budget, assume_saturated=True)
    checks.append(
        _eq("base_locus_dim_deg_genus", (1, 2, 0), (hd.dim_proj, hd.degree, hd.sectional_genus))
    )
    S = image_ideal(F, ctx.budget)
    hs = hilbert_data(S, budget=ctx.budget, assume_saturated=True)
    checks.append(_eq("image_dim_deg", (3, 2), (hs.dim_proj, hs.degree)))
    checks.append(
        _true("image_smooth", smooth_certificate(S, 3, ctx.budget), "quadric image")
    )
    G = solve_inverse(F, 1)
    checks.append(_true("linear_inverse_exists", G is not None))
    if G is not None:
        checks.append(_eq("type", (2, 1), map_type(F, G, ctx.seed)))
    for key in [(1, 3, 1, 2, 0, 1, 2), (2, 4, 1, 2, 0, 1, 2), (3, 5, 1, 2, 0, 1, 2)]:
        checks += _row_checks(key)


def _run_elliptic_quintic(ctx: _Ctx) -> None:
    checks = ctx.checks
    I = elliptic_quintic_pfaffian()
    hd = hilbert_data(I, budget=ctx.budget, assume_saturated=True)
    checks.append(
        _eq("base_locus_dim_deg_genus", (1, 5, 1), (hd.dim_proj, hd.degree, hd.sectional_genus))
    )
    checks.append(
        _true("base_locus_smooth", smooth_certificate(I, 1, ctx.budget))
    )
    dim2, _ = graded_piece(I, 2, ctx.budget)
    checks.append(_eq("ambient_gap", 0, dim2 - 5, "square Cremona: five quadrics"))
    checks += _row_checks((1, 4, 0, 5, 1, 3, 1))

    def secant_check() -> CheckResult:
        from .maps import secant_ideal

        sec = secant_ideal(I, ctx.budget)
        gens = sec.generators
        ok = len(gens) == 1 and gens[0].degree() == 5
        return _true("secant_quintic_hypersurface", ok, "degree 2d-1 with d=3")

    checks.append(
        _heavy(ctx, "secant_quintic_hypersurface", "two-copy elimination", secant_check)
    )


def _run_severi_slices(ctx: _Ctx) -> None:
    """Hyperplane slice of the Veronese involution: quartic curve case run
    symbolically, the surface and threefold relatives numerically."""
    checks = ctx.checks
    I = rational_normal_curve(4)
    hd = hilbert_data(I, budget=ctx.budget, assume_saturated=True)
    checks.append(
        _eq("base_locus_dim_deg_genus", (1, 4, 0), (hd.dim_proj, hd.degree, hd.sectional_genus))
    )
    F = map_from_ideal(I, ctx.budget)
    checks.append(_eq("ambient_gap", 1, ambient_gap(F)))
    S = image_ideal(F, ctx.budget)
    hs = hilbert_data(S, budget=ctx.budget, assume_saturated=True)
    checks.append(_eq("image_dim_deg", (4, 2), (hs.dim_proj, hs.degree)))
    checks.append(_true("image_smooth", smooth_certificate(S, 4, ctx.budget)))
    G = solve_inverse(F, 2)
    checks.append(_true("quadratic_inverse_exists", G is not None))
    if G is not None:
        checks.append(_eq("type", (2, 2), map_type(F, G, ctx.seed)))
    for key in [(1, 4, 1, 4, 0, 2, 2), (2, 5, 0, 4, 0, 2, 1), (3, 7, 1, 6, 1, 2, 2)]:
        checks += _row_checks(key)


def _run_quartic_curve(ctx: _Ctx) -> None:
    """The quartic-curve transformation whose image is singular exactly
    along the inverse base locus (the regularity hypothesis fails)."""
    checks = ctx.checks
    X = _load("quartic_curve_base.ideal")
    comp = _load("quartic_curve_map.ideal")
    S_disp = _load("quartic_curve_image.ideal")
    sing_disp = _load("quartic_curve_sing.ideal")
    singred = _load("quartic_curve_singred.ideal")

    hd = hilbert_data(X, budget=ctx.budget, assume_saturated=True)
    checks.append(
        _eq("base_locus_dim_deg_genus", (1, 4, 1), (hd.dim_proj, hd.degree, hd.sectional_genus))
    )
    dim2, _ = graded_piece(X, 2, ctx.budget)
    checks.append(_eq("ambient_gap", 2, dim2 - 5))
    F = RationalMap(X.ring, S_disp.ring, comp.generators)
    checks.append(
        _true(
            "forward_annihilation",
            all(forward_annihilation(F, g) for g in S_disp.generators),
            "recorded image generators",
        )
    )
    S = image_ideal(F, ctx.budget)
    checks.append(
        _true("image_ideal_equals_recorded", ideal_equal(S, S_disp, ctx.budget))
    )
    hs = hilbert_data(S_disp, budget=ctx.budget, assume_saturated=True)
    checks.append(
        _eq(
            "image_hilbert_polynomial",
            "1/6*t^4 + t^3 + 7/3*t^2 + 5/2*t + 1",
            hs.hp_str(),
            "quartic fourfold image",
        )
    )
    sing = singular_locus(S_disp, 2, ctx.budget, seed=ctx.seed)
    hsing = hilbert_data(sing, budget=ctx.budget, assume_saturated=True)
    checks.append(_eq("singular_locus_hilbert_polynomial", "t + 5", hsing.hp_str()))
    checks.append(
        _true(
            "singular_scheme_matches_recorded",
            ideal_equal(sing, sing_disp, ctx.budget),
            "saturated Jacobian-minor scheme",
        )
    )
    # reduced support: the singular scheme is contained in the recorded
    # line, and every linear generator has a power inside it
    contained = all(membership(g, singred, ctx.budget) for g in sing.generators)
    powers = all(
        membership(singred.ring.var(v) ** 3, sing, ctx.budget)
        for v in ("y2", "y3", "y4", "y5", "y6")
    )
    checks.append(
        _true("singular_support_is_recorded_line", contained and powers)
    )
    G = solve_inverse(F, 1)
    checks.append(_true("linear_inverse_exists", G is not None))
    if G is not None:
        checks.append(_eq("type", (2, 1), map_type(F, G, ctx.seed)))
        Bprime = Ideal(S_disp.ring, list(G.components) + list(S_disp.generators))
        Bp = saturate_irrelevant(Bprime, ctx.budget, seed=ctx.seed)
        same = ideal_equal(Bp, singred, ctx.budget)
        checks.append(
            _true(
                "inverse_base_locus_is_recorded_line",
                same,
                "base locus of the linear inverse on the image",
            )
        )
        checks.append(
            CheckResult(
                "ASSUMPTION3_VIOLATED",
                PASS if (same and contained and powers) else FAIL,
                expected="singular support equals the inverse base locus",
                computed=str(same and contained and powers),
                provenance="regularity hypothesis fails for this map",
            )
        )
    # this case sits outside the classification table (the regularity
    # hypothesis fails), so its numeric relations run on an ad-hoc row
    adhoc = CaseRow(
        r=1, n=4, a=2, lam=4, g=1,
        structure="elliptic quartic curve", d=1, Delta=4, c=2, eps=1, chi=0,
    )
    for rel in check_row(adhoc):
        if rel.relation == "double_point":
            continue
        checks.append(
            CheckResult(
                f"row[excluded quartic].{rel.relation}",
                PASS if rel.ok else FAIL,
                expected="relation holds",
                computed=rel.detail or ("ok" if rel.ok else "violated"),
            )
        )
    # exclusion witness: the curve has two apparent double points, not the
    # single one a linear-inverse transformation would need
    from .invariants import double_point as _dp

    checks.append(
        _eq(
            "apparent_double_points_exclude_case",
            -2,
            int(_dp(1, 4, 1, 1)),
            "two apparent double points versus secant degree one",
        )
    )


def _run_segre_line_plane(ctx: _Ctx) -> None:
    checks = ctx.checks
    I = in_hyperplane(segre(1, 2))
    hd = hilbert_data(I, budget=ctx.budget, assume_saturated=True)
    checks.append(_eq("base_locus_dim_deg", (3, 3), (hd.dim_proj, hd.degree)))
    F = map_from_ideal(I, ctx.budget)
    checks.append(_eq("ambient_gap", 3, ambient_gap(F)))
    quads = image_forms(F, 2, ctx.budget)
    checks.append(
        _eq("image_quadric_count", 5, len(quads), "line-Grassmannian image")
    )
    K = Ideal(F.target_ring, quads)
    hk = hilbert_data(K, budget=ctx.budget, assume_saturated=True)
    checks.append(_eq("image_dim_deg", (6, 5), (hk.dim_proj, hk.degree)))
    checks += _row_checks((3, 6, 3, 3, 0, 1, 5))
    checks += _row_checks((2, 5, 3, 3, 0, 1, 5))
    checks += _row_checks((1, 4, 3, 3, 0, 1, 5))


def _run_octic_cremona(ctx: _Ctx) -> None:
    ctx.checks += _row_checks((2, 6, 0, 8, 3, 4, 1))
    ctx.checks += _row_checks((2, 6, 0, 7, 1, 4, 1))


def _run_septic_section(ctx: _Ctx) -> None:
    ctx.checks += _row_checks((2, 6, 1, 7, 2, 3, 2))


def _run_del_pezzo_sextic(ctx: _Ctx) -> None:
    checks = ctx.checks
    cube = segre_product((1, 1, 1))
    I = hyperplane_slice(cube, [1, 0, 0, 1, 0, 1, 0, 1])
    hd = hilbert_data(I, budget=ctx.budget, assume_saturated=True)
    checks.append(
        _eq("base_locus_dim_deg_genus", (2, 6, 1), (hd.dim_proj, hd.degree, hd.sectional_genus))
    )
    checks.append(_true("base_locus_smooth", smooth_certificate(I, 2, ctx.budget)))
    F = map_from_ideal(I, ctx.budget)
    checks.append(_eq("ambient_gap", 2, ambient_gap(F)))
    quads = image_forms(F, 2, ctx.budget)
    checks.append(
        _eq("image_quadric_count", 2, len(quads), "intersection of two quadrics")
    )
    K = Ideal(F.target_ring, quads)
    hk = hilbert_data(K, budget=ctx.budget, assume_saturated=True)
    checks.append(_eq("image_dim_deg", (6, 4), (hk.dim_proj, hk.degree)))
    checks += _row_checks((2, 6, 2, 6, 1, 2, 4))


def _run_quintic_scrolls(ctx: _Ctx) -> None:
    checks = ctx.checks
    I = scroll((1, 4))
    hd = hilbert_data(I, budget=ctx.budget, assume_saturated=True)
    checks.append(
        _eq("base_locus_dim_deg_genus", (2, 5, 0), (hd.dim_proj, hd.degree, hd.sectional_genus))
    )
    checks.append(_true("base_locus_smooth", smooth_certificate(I, 2, ctx.budget)))
    F = map_from_ideal(I, ctx.budget)
    checks.append(_eq("ambient_gap", 3, ambient_gap(F)))
    quads = image_forms(F, 2, ctx.budget)
    checks.append(_eq("image_quadric_count", 5, len(quads)))
    K = Ideal(F.target_ring, quads)
    hk = hilbert_data(K, budget=ctx.budget, assume_saturated=True)
    checks.append(
        _eq("image_dim_deg", (6, 5), (hk.dim_proj, hk.degree), "line-Grassmannian image")
    )
    checks += _row_checks((2, 6, 3, 5, 0, 2, 5))


def _run_grassmannian_to_spinor(ctx: _Ctx) -> None:
    checks = ctx.checks
    I = in_hyperplane(grassmannian_plucker(1, 4))
    hd = hilbert_data(I, budget=ctx.budget, assume_saturated=True)
    checks.append(_eq("base_locus_dim_deg", (6, 5), (hd.dim_proj, hd.degree)))
    dim2, _ = graded_piece(I, 2, ctx.budget)
    checks.append(_eq("ambient_gap", 5, dim2 - 11))

    def kernel_check() -> CheckResult:
        F = map_from_ideal(I, ctx.budget)
        quads = image_forms(F, 2, ctx.budget)
        return _eq("image_quadric_count", 10, len(quads), "spinor-variety image")

    checks.append(
        _heavy(ctx, "image_quadric_count", "large exact kernel", kernel_check)
    )
    checks += _row_checks((2, 6, 5, 5, 1, 1, 12))
    checks += _row_checks((3, 7, 5, 5, 1, 1, 12))


def _run_line_space_segre(ctx: _Ctx) -> None:
    checks = ctx.checks
    I = in_hyperplane(segre(1, 3))
    hd = hilbert_data(I, budget=ctx.budget, assume_saturated=True)
    checks.append(_eq("base_locus_dim_deg", (4, 4), (hd.dim_proj, hd.degree)))
    dim2, _ = graded_piece(I, 2, ctx.budget)
    checks.append(_eq("ambient_gap", 6, dim2 - 9))
    F = map_from_ideal(I, ctx.budget)
    quads = image_forms(F, 2, ctx.budget)
    checks.append(
        _eq("image_quadric_count", 15, len(quads), "line-Grassmannian of P^5")
    )
    checks += _row_checks((3, 7, 6, 4, 0, 1, 14))
    checks += _row_checks((2, 6, 6, 4, 0, 1, 14))


def _run_projected_grassmannian(ctx: _Ctx) -> None:
    ctx.checks += _row_checks((3, 8, 0, 13, 8, 5, 1))


def _run_blown_up_quadric(ctx: _Ctx) -> None:
    ctx.checks += _row_checks((3, 8, 1, 11, 5, 3, 3))


def _run_ruled_scroll_eleven(ctx: _Ctx) -> None:
    checks = ctx.checks
    prof, _ = segre_chern(3, 8, 11, 5, 4, 2)
    checks.append(
        _eq(
            "segre_degrees",
            (-85, 386, -1330),
            prof.s,
            "recorded normal-bundle Segre degrees",
        )
    )
    dd, _ = pushforward_degrees(3, 8, 11, list(prof.s))
    checks.append(_eq("degree_times_image_degree", 2, dd))
    th = k2_thresholds(11, 5)
    checks.append(
        _eq(
            "generation_thresholds",
            (True, False, False),
            (th["acm"], th["quadric_generated"], th["linear_syzygies"]),
            "conditional: needs the base locus cut out by its quadrics",
        )
    )
    checks += _row_checks((3, 8, 1, 11, 5, 4, 2))


def _run_spinor_section(ctx: _Ctx) -> None:
    ctx.checks += _row_checks((3, 8, 1, 12, 7, 4, 2))


def _run_quadric_scroll_ten(ctx: _Ctx) -> None:
    checks = ctx.checks
    prof, _ = segre_chern(3, 8, 10, 4, 3, 4)
    checks.append(_eq("segre_degrees", (-76, 340, -1156), prof.s))
    dd, _ = pushforward_degrees(3, 8, 10, list(prof.s))
    checks.append(_eq("degree_times_image_degree", 4, dd))
    th = k2_thresholds(10, 5)
    checks.append(
        _eq(
            "generation_thresholds",
            (True, True, False),
            (th["acm"], th["quadric_generated"], th["linear_syzygies"]),
        )
    )
    checks += _row_checks((3, 8, 2, 10, 4, 3, 4))


def _run_plane_scroll_nine(ctx: _Ctx) -> None:
    checks = ctx.checks
    prof_s, _ = segre_chern(3, 8, 9, 3, 2, 8)
    checks.append(_eq("segre_degrees_scroll", (-67, 294, -984), prof_s.s))
    dd_s, _ = pushforward_degrees(3, 8, 9, list(prof_s.s))
    checks.append(_eq("degree_times_image_degree_scroll", 8, dd_s))
    prof_q, _ = segre_chern(3, 8, 9, 3, 3, 5)
    checks.append(_eq("segre_degrees_fibration", (-67, 295, -997), prof_q.s))
    dd_q, _ = pushforward_degrees(3, 8, 9, list(prof_q.s))
    checks.append(_eq("degree_times_image_degree_fibration", 5, dd_q))
    checks += _row_checks((3, 8, 3, 9, 3, 2, 8))
    checks += _row_checks((3, 8, 3, 9, 3, 3, 5))


def _run_line_times_quadric(ctx: _Ctx) -> None:
    """The explicit thirteen-quadric threefold in P^8: full pipeline."""
    checks = ctx.checks
    X = _load("line_times_quadric_base.ideal")
    S_disp = _load("line_times_quadric_image.ideal")
    inv = _load("line_times_quadric_inverse.ideal")

    sat = saturate_irrelevant(X, ctx.budget, seed=ctx.seed)
    checks.append(
        _true("ideal_saturated", ideal_equal(sat, X, ctx.budget), "irrelevant saturation fixed point")
    )
    hd = hilbert_data(X, budget=ctx.budget, assume_saturated=True)
    checks.append(
        _eq(
            "base_locus_dim_deg_genus_chi",
            (3, 8, 2, 1),
            (hd.dim_proj, hd.degree, hd.sectional_genus, hd.chi),
        )
    )
    dim2, _ = graded_piece(X, 2, ctx.budget)
    checks.append(_eq("ambient_gap", 4, dim2 - 9))
    checks.append(
        _true("base_locus_smooth", smooth_certificate(X, 3, ctx.budget), "per-chart Jacobians")
    )
    F = RationalMap(X.ring, S_disp.ring, X.generators)
    checks.append(
        _true(
            "forward_annihilation",
            all(forward_annihilation(F, g) for g in S_disp.generators),
            "six recorded image generators",
        )
    )
    G = RationalMap(S_disp.ring, X.ring, inv.generators)
    checks.append(
        _true("composition_identity", composition_identity(F, G), "recorded inverse")
    )
    checks.append(_eq("type", (2, 2), map_type(F, G, ctx.seed)))
    hs = hilbert_data(S_disp, budget=ctx.budget, assume_saturated=False, seed=ctx.seed)
    checks.append(_eq("image_dim_deg", (8, 10), (hs.dim_proj, hs.degree)))

    def sing_dim() -> CheckResult:
        J = singular_locus(S_disp, 4, ctx.budget, cap=12000, seed=ctx.seed)
        h = hilbert_data(J, budget=ctx.budget, assume_saturated=True)
        return _eq("image_singular_dim", 3, h.dim_proj)

    checks.append(
        _heavy(ctx, "image_singular_dim", "codimension-4 minor scheme in P^12", sing_dim)
    )
    checks += _row_checks((3, 8, 4, 8, 2, 2, 10))


def _run_del_pezzo_seven(ctx: _Ctx) -> None:
    """Degree-seven del Pezzo threefold: birational image of degree 19 with
    a non-liftable inverse."""
    checks = ctx.checks
    X = _load("del_pezzo_seven_base.ideal")
    S_disp = _load("del_pezzo_seven_image.ideal")
    inv = _load("del_pezzo_seven_inverse.ideal")
    hd = hilbert_data(X, budget=ctx.budget, assume_saturated=True)
    checks.append(
        _eq(
            "base_locus_dim_deg_genus_chi",
            (3, 7, 1, 1),
            (hd.dim_proj, hd.degree, hd.sectional_genus, hd.chi),
        )
    )
    dim2, _ = graded_piece(X, 2, ctx.budget)
    checks.append(_eq("ambient_gap", 5, dim2 - 9))
    checks.append(_true("base_locus_smooth", smooth_certificate(X, 3, ctx.budget)))
    prof, _ = segre_chern(3, 8, 7, 1, None, None)
    c1 = prof.c[0]
    s = normal_segre_from_chern(3, 8, 7, (c1, 12, 6))
    checks.append(_eq("segre_degrees", (-49, 201, -627), s, "del Pezzo Chern degrees 14, 12, 6"))
    deg_delta, d_delta = pushforward_degrees(3, 8, 7, list(s))
    checks.append(_eq("image_degree", 19, deg_delta))
    checks.append(
        _eq(
            "lift_candidate_degree_product",
            25,
            d_delta,
            "inconsistent with an integral inverse degree",
        )
    )
    checks.append(
        CheckResult(
            "NOT_LIFTABLE_CERTIFICATE",
            PASS if d_delta % deg_delta != 0 else FAIL,
            expected="19 does not divide 25",
            computed=f"{d_delta} mod {deg_delta} = {d_delta % deg_delta}",
        )
    )
    F = RationalMap(X.ring, S_disp.ring, X.generators)
    checks.append(
        _true(
            "forward_annihilation",
            all(forward_annihilation(F, g) for g in S_disp.generators),
            "recorded image generators (six quadrics and one cubic)",
        )
    )
    G = RationalMap(S_disp.ring, X.ring, inv.generators)
    checks.append(
        _true("composition_identity", composition_identity(F, G), "recorded inverse representative")
    )

    def sing_bound() -> CheckResult:
        J = singular_locus(S_disp, 5, ctx.budget, cap=50000, seed=ctx.seed)
        h = hilbert_data(J, budget=ctx.budget, assume_saturated=True)
        return _eq("image_singular_dim", 4, h.dim_proj)

    checks.append(
        _heavy(ctx, "image_singular_dim", "codimension-5 minor scheme in P^13", sing_bound)
    )


def _run_sextic_scrolls(ctx: _Ctx) -> None:
    checks = ctx.checks
    I = scroll((2, 2, 2))
    hd = hilbert_data(I, budget=ctx.budget, assume_saturated=True)
    checks.append(
        _eq("base_locus_dim_deg_genus", (3, 6, 0), (hd.dim_proj, hd.degree, hd.sectional_genus))
    )
    checks.append(_true("base_locus_smooth", smooth_certificate(I, 3, ctx.budget)))
    F = map_from_ideal(I, ctx.budget)
    checks.append(_eq("ambient_gap", 6, ambient_gap(F)))
    quads = image_forms(F, 2, ctx.budget)
    checks.append(
        _eq("image_quadric_count", 15, len(quads), "line-Grassmannian of P^5")
    )
    checks += _row_checks((3, 8, 6, 6, 0, 2, 14))


def _run_octic_plane_bundle(ctx: _Ctx) -> None:
    checks = ctx.checks
    s = normal_segre_from_chern(3, 8, 8, (12, 15, 6))
    checks.append(
        _eq("segre_degrees", (-60, 267, -909), s, "recorded Chern degrees 12, 15, 6")
    )
    deg_delta, d_delta = pushforward_degrees(3, 8, 8, list(s))
    checks.append(_eq("image_degree", 29, deg_delta))
    checks.append(_eq("inverse_degree", 1, d_delta // deg_delta))
    checks += _row_checks((3, 8, 7, 8, 3, 1, 29))


def _run_edge_threefolds(ctx: _Ctx) -> None:
    checks = ctx.checks
    s7 = normal_segre_from_chern(3, 8, 7, (12, 14, 4))
    d7, dd7 = pushforward_degrees(3, 8, 7, list(s7))
    checks.append(_eq("image_degree_septic_case", 33, d7))
    s6 = normal_segre_from_chern(3, 8, 6, (12, 12, 8))
    d6, dd6 = pushforward_degrees(3, 8, 6, list(s6))
    checks.append(_eq("image_degree_sextic_case", 38, d6))
    checks += _row_checks((3, 8, 8, 7, 2, 1, 33))
    checks += _row_checks((3, 8, 9, 6, 1, 1, 38))
    checks.append(
        CheckResult(
            "image_singular_dim_bounds",
            SKIPPED_HEAVY,
            expected="between 1 and 5 inclusive",
            provenance="bound check only; the minor schemes exceed the desk scale",
        )
    )


def _run_quintic_scroll_oadp(ctx: _Ctx) -> None:
    checks = ctx.checks
    s = normal_segre_from_chern(3, 8, 5, (12, 11, 6))
    deg_delta, d_delta = pushforward_degrees(3, 8, 5, list(s))
    checks.append(_eq("image_degree", 42, deg_delta))
    checks.append(_eq("inverse_degree", 1, d_delta // deg_delta))

    def kernel_check() -> CheckResult:
        I = in_hyperplane(scroll((1, 2, 2)))
        F = map_from_ideal(I, ctx.budget)
        quads = image_forms(F, 2, ctx.budget)
        return _eq(
            "image_quadric_count",
            37,
            len(quads),
            "linear section of the line Grassmannian of P^6",
        )

    checks.append(
        _heavy(ctx, "image_quadric_count", "large exact kernel", kernel_check)
    )
    checks += _row_checks((3, 8, 10, 5, 0, 1, 42))


@dataclass(frozen=True)
class ExampleSpec:
    name: str
    description: str
    feasibility: str
    runner: Callable[[_Ctx], None]  # appends its checks to ctx.checks
    note: str = ""


CORPUS: dict[str, ExampleSpec] = {
    spec.name: spec
    for spec in [
        ExampleSpec(
            "quadric_slices",
            "smooth quadric inside a hyperplane; image a smooth quadric, linear inverse",
            FULL,
            _run_quadric_slices,
        ),
        ExampleSpec(
            "elliptic_quintic_cremona",
            "elliptic normal quintic curve; square Cremona transformation with cubic inverse",
            FULL,
            _run_elliptic_quintic,
        ),
        ExampleSpec(
            "severi_slices",
            "rational normal quartic curve (hyperplane slice of the Veronese involution)",
            FULL,
            _run_severi_slices,
        ),
        ExampleSpec(
            "quartic_curve_singular_image",
            "elliptic quartic curve; quartic image singular exactly along the inverse base line",
            FULL,
            _run_quartic_curve,
        ),
        ExampleSpec(
            "segre_line_plane",
            "Segre threefold inside a hyperplane; image the line Grassmannian of P^4",
            FORWARD_ONLY,
            _run_segre_line_plane,
        ),
        ExampleSpec(
            "octic_plane_cremona",
            "octic-system plane blow-ups and the septic elliptic scroll; square Cremona sources",
            NUMERIC_ONLY,
            _run_octic_cremona,
        ),
        ExampleSpec(
            "septic_edge_section",
            "surface section of the septic two-ruling scroll; rank-six quadric image",
            NUMERIC_ONLY,
            _run_septic_section,
        ),
        ExampleSpec(
            "del_pezzo_sextic",
            "sextic del Pezzo surface; image a complete intersection of two quadrics",
            FORWARD_ONLY,
            _run_del_pezzo_sextic,
        ),
        ExampleSpec(
            "quintic_surface_scrolls",
            "quintic rational surface scrolls; image the line Grassmannian of P^4",
            FORWARD_ONLY,
            _run_quintic_scrolls,
        ),
        ExampleSpec(
            "grassmannian_to_spinor",
            "line Grassmannian of P^4 inside a hyperplane; image the spinor tenfold",
            NUMERIC_ONLY,
            _run_grassmannian_to_spinor,
            note="full elimination exceeds the desk scale",
        ),
        ExampleSpec(
            "line_space_segre",
            "product of a line and a space inside a hyperplane; image the line Grassmannian of P^5",
            FORWARD_ONLY,
            _run_line_space_segre,
            note="rank-stratification loci out of scope",
        ),
        ExampleSpec(
            "projected_grassmannian_cremona",
            "internal projection of a Grassmannian section; square Cremona with quintic inverse",
            NUMERIC_ONLY,
            _run_projected_grassmannian,
        ),
        ExampleSpec(
            "blown_up_quadric_threefold",
            "quadric threefold blown up at five points; cubic hypersurface image",
            NUMERIC_ONLY,
            _run_blown_up_quadric,
        ),
        ExampleSpec(
            "ruled_scroll_eleven",
            "degree-eleven scroll over a ruled surface; conditional quadric image",
            NUMERIC_ONLY,
            _run_ruled_scroll_eleven,
            note="conditional: requires the base locus to be cut out by its quadrics",
        ),
        ExampleSpec(
            "spinor_section_quadric_image",
            "threefold linear section of the spinor tenfold; smooth quadric image",
            NUMERIC_ONLY,
            _run_spinor_section,
        ),
        ExampleSpec(
            "quadric_scroll_ten",
            "degree-ten scroll over a quadric surface; quartic image",
            NUMERIC_ONLY,
            _run_quadric_scroll_ten,
        ),
        ExampleSpec(
            "plane_scroll_nine",
            "degree-nine plane scroll and quadric fibration; octic and quintic images",
            NUMERIC_ONLY,
            _run_plane_scroll_nine,
        ),
        ExampleSpec(
            "line_times_quadric_section",
            "hyperplane section of a line times a quadric threefold; explicit degree-ten image",
            FULL,
            _run_line_times_quadric,
        ),
        ExampleSpec(
            "del_pezzo_seven_nonliftable",
            "degree-seven del Pezzo threefold; degree-19 image with non-liftable inverse",
            FULL,
            _run_del_pezzo_seven,
        ),
        ExampleSpec(
            "sextic_threefold_scrolls",
            "sextic rational normal threefold scrolls; image the line Grassmannian of P^5",
            FORWARD_ONLY,
            _run_sextic_scrolls,
        ),
        ExampleSpec(
            "octic_plane_bundle_oadp",
            "octic plane bundle with one apparent double point; degree-29 image",
            NUMERIC_ONLY,
            _run_octic_plane_bundle,
        ),
        ExampleSpec(
            "edge_threefolds_oadp",
            "septic and sextic two-ruling threefolds; degree-33 and degree-38 images",
            NUMERIC_ONLY,
            _run_edge_threefolds,
            note="singular loci of the images exceed the desk scale",
        ),
        ExampleSpec(
            "quintic_scroll_oadp",
            "quintic threefold scroll with one apparent double point; degree-42 image",
            NUMERIC_ONLY,
            _run_quintic_scroll_oadp,
        ),
    ]
}


def verify_example(
    name: str,
    budget: StepBudget | int | None = None,
    seed: int = 0,
) -> VerificationReport:
    if name not in CORPUS:
        raise KeyError(f"unknown example {name!r}; known: {sorted(CORPUS)}")
    spec = CORPUS[name]
    b = budget if isinstance(budget, StepBudget) else StepBudget(budget)
    ctx = _Ctx(b, seed)
    start = time.time()
    try:
        spec.runner(ctx)
    except (BudgetExceeded, HeavyComputation, SaturationUncertified) as e:
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
    """Run every corpus example (fresh budget each), sorted by name."""
    out = []
    for name in sorted(CORPUS):
        out.append(verify_example(name, StepBudget(budget_limit), seed))
    return out


def reports_to_text(reports: list[VerificationReport], timings: bool = False) -> str:
    return "\n".join(r.to_text(timings) for r in reports)


def reports_to_json(reports: list[VerificationReport], timings: bool = False) -> str:
    return json.dumps(
        [r.to_json_dict(timings) for r in reports], indent=2, sort_keys=True
    )
