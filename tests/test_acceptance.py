"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  All comparisons are exact (integer or rational); the time
targets are asserted against wall clocks.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from dataclasses import replace

import pytest

from quadbir.classify import (
    check_row,
    check_table,
    coindex_solver,
    enumerate_r1,
    enumerate_r2,
    load_table,
    table_all_pass,
)
from quadbir.corpus import PASS, SKIPPED_HEAVY, verify_example
from quadbir.groebner import StepBudget
from quadbir.invariants import (
    QUADRIC_FIBRATION,
    SCROLL_OVER_CURVE,
    liftability_certificate,
    pushforward_degrees,
    segre_chern,
    structure_formulas,
)


def _announce(number: int, name: str, ok: bool, elapsed: float, limit: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}  [{elapsed:.2f}s / limit {limit:.0f}s]")
    assert ok
    assert elapsed < limit, f"criterion {number} exceeded its time target"


def test_criterion_1_coefficient_gate():
    t0 = time.time()
    base = pushforward_degrees(3, 8, 0, [0, 0, 0])
    lam = pushforward_degrees(3, 8, 1, [0, 0, 0])
    s1 = pushforward_degrees(3, 8, 0, [1, 0, 0])
    s2 = pushforward_degrees(3, 8, 0, [0, 1, 0])
    s3 = pushforward_degrees(3, 8, 0, [0, 0, 1])
    full_vector = (
        lam[0] - base[0],
        s1[0] - base[0],
        s2[0] - base[0],
        s3[0] - base[0],
        base[0],
    )
    mixed_vector = (
        lam[1] - base[1],
        s1[1] - base[1],
        s2[1] - base[1],
        base[1],
    )
    ok = full_vector == (-448, -112, -16, -1, 256) and mixed_vector == (
        -84,
        -14,
        -1,
        128,
    )
    _announce(1, "pushforward coefficient gate", ok, time.time() - t0, 1.0)


def test_criterion_2_numeric_reproductions():
    t0 = time.time()
    ok = True
    # five admissible curve cases, in order
    rows = enumerate_r1()
    ok &= [(r.n, r.a, r.lam, r.g, r.d, r.Delta) for r in rows] == [
        (3, 1, 2, 0, 1, 2),
        (4, 0, 5, 1, 3, 1),
        (4, 1, 4, 0, 2, 2),
        (4, 2, 4, 1, 1, 4),
        (4, 3, 3, 0, 1, 5),
    ]
    # the four surface (a, d, Delta) solutions
    surf = {
        (r.a, r.d, r.Delta)
        for r in enumerate_r2()
        if r.n == 6 and r.eps == 0
    }
    ok &= surf == {(0, 4, 1), (1, 3, 2), (2, 2, 4), (3, 2, 5)}
    # quadric fibration and curve-scroll solutions
    ok &= structure_formulas(QUADRIC_FIBRATION, 9, 3, 3) == [{"d": 3, "Delta": 5}]
    ok &= structure_formulas(QUADRIC_FIBRATION, 8, 2, 4) == [{"d": 2, "Delta": 10}]
    ok &= structure_formulas(SCROLL_OVER_CURVE, 6, 0, 6) == [{"d": 2, "Delta": 14}]
    # coindex-2 triples
    ok &= coindex_solver(3, 2, 10) == [(3, 8, 0), (6, 13, 1), (9, 18, 2)]
    # recorded pushforward degrees
    ok &= pushforward_degrees(3, 8, 8, [-60, 267, -909])[0] == 29
    deg, cand = pushforward_degrees(3, 8, 7, [-49, 201, -627])
    ok &= (deg, cand) == (19, 25) and not liftability_certificate(deg, cand)
    ok &= pushforward_degrees(3, 8, 10, [-76, 340, -1156])[0] == 4
    # recorded Segre triples
    for (lam, g, d, Delta), expected in {
        (10, 4, 3, 4): (-76, 340, -1156),
        (11, 5, 4, 2): (-85, 386, -1330),
        (9, 3, 2, 8): (-67, 294, -984),
        (9, 3, 3, 5): (-67, 295, -997),
    }.items():
        prof, _ = segre_chern(3, 8, lam, g, d, Delta)
        ok &= prof.s == expected
    _announce(2, "numeric reproductions", bool(ok), time.time() - t0, 1.0)


def test_criterion_3_table_validation():
    t0 = time.time()
    reports = check_table()
    ok = len(reports) == 33 and table_all_pass(reports)
    detected = True
    for row in load_table():
        for fieldname in ("n", "a", "lam", "g", "d", "Delta", "c"):
            for delta in (1, -1):
                value = getattr(row, fieldname) + delta
                if value < 0:
                    continue
                mutated = replace(row, **{fieldname: value})
                try:
                    reps = check_row(mutated)
                except Exception:
                    continue
                if all(rel.ok for rel in reps):
                    detected = False
    _announce(3, "table validation and mutation", ok and detected, time.time() - t0, 5.0)


def test_criterion_4_quartic_curve_golden():
    t0 = time.time()
    report = verify_example("quartic_curve_singular_image")
    names = {c.name: c for c in report.checks}
    ok = report.status == PASS
    ok &= names["image_ideal_equals_recorded"].status == PASS
    ok &= names["image_hilbert_polynomial"].status == PASS
    ok &= names["singular_locus_hilbert_polynomial"].status == PASS
    ok &= names["ASSUMPTION3_VIOLATED"].status == PASS
    _announce(4, "symbolic golden results", bool(ok), time.time() - t0, 60.0)


def test_criterion_5_thirteen_quadrics_end_to_end():
    t0 = time.time()
    budget = StepBudget()
    report = verify_example("line_times_quadric_section", budget)
    names = {c.name: c for c in report.checks}
    ok = report.status == PASS
    # the singular-locus check spends exactly its declared cost
    ok &= budget.used == 3_814 + 55_270
    for required in (
        "ideal_saturated",
        "base_locus_smooth",
        "base_locus_dim_deg_genus_chi",
        "ambient_gap",
        "forward_annihilation",
        "composition_identity",
        "type",
        "image_dim_deg",
        "image_singular_dim",
    ):
        ok &= names[required].status == PASS
    _announce(5, "explicit threefold end-to-end", bool(ok), time.time() - t0, 300.0)


def test_criterion_6_property_suites():
    t0 = time.time()
    # re-verify bases and Hilbert data of fixed ideals here, so the
    # criterion holds whether or not the session-wide paranoid wrappers
    # (which re-verify every computation) are switched on
    from conftest import verify_basis, verify_hilbert

    from quadbir.groebner import buchberger
    from quadbir.hilbert import hilbert_data
    from quadbir.polyring import DEGREVLEX, LEX
    from quadbir.varieties import elliptic_quintic_pfaffian, rational_normal_curve

    spolys = 0
    for I in (rational_normal_curve(3), elliptic_quintic_pfaffian()):
        for order in (DEGREVLEX, LEX):
            spolys += verify_basis(I, order, buchberger(I, order))
            verify_hilbert(I, order, hilbert_data(I, order))
    ok = spolys > 0
    # plus a direct order-invariance probe
    I = rational_normal_curve(3)
    ok &= hilbert_data(I, DEGREVLEX).hp == hilbert_data(I, LEX).hp
    _announce(6, "property suites engaged", bool(ok), time.time() - t0, 60.0)


def test_criterion_7_heavy_work_reported_not_faked():
    t0 = time.time()
    ok = True
    # the secant and line-times checks run whenever the budget left covers
    # their declared costs, so the secant (6,900 steps after 762) is skipped
    # under 7,000 steps and the line-times check (55,270 after 3,814) under
    # 59,000; the del Pezzo check is skipped at the default budget
    examples = (("elliptic_quintic_cremona", 7_000), ("del_pezzo_seven_nonliftable", None),
                ("line_times_quadric_section", 59_000))
    for name, limit in examples:
        report = verify_example(name, StepBudget(limit))
        ok &= report.status == PASS
        ok &= any(c.status == SKIPPED_HEAVY for c in report.checks)
        # a skipped check is never presented as a passed expectation
        for c in report.checks:
            assert c.status in (PASS, SKIPPED_HEAVY)
    _announce(7, "heavy computations reported as skipped", bool(ok), time.time() - t0, 60.0)
