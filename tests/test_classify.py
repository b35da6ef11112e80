import json
import os
from dataclasses import asdict, replace

import pytest

from quadbir import classify
from quadbir.classify import (
    check_row,
    check_table,
    coindex_solver,
    default_rule_table,
    enumerate_r1,
    enumerate_r2,
    enumerate_r3,
    enumerate_r4,
    load_table,
    table_all_pass,
)
from quadbir.hilbert import poly_eval
from quadbir.invariants import Infeasible, hilbert_poly_r4

CHECK_TABLE_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "check_table.json")


def test_enumerate_r1_case_list():
    rows = enumerate_r1()
    keys = [(r.n, r.a, r.lam, r.g, r.d, r.Delta) for r in rows]
    assert keys == [
        (3, 1, 2, 0, 1, 2),
        (4, 0, 5, 1, 3, 1),
        (4, 1, 4, 0, 2, 2),
        (4, 2, 4, 1, 1, 4),
        (4, 3, 3, 0, 1, 5),
    ]
    struck = [r for r in rows if r.struck_by]
    assert len(struck) == 1
    assert struck[0].key()[1:] == (4, 2, 4, 1, 1, 4)
    assert struck[0].struck_by == "oadp_curve_is_twisted_cubic"
    survivors = [r for r in rows if r.struck_by is None]
    assert len(survivors) == 4


def test_enumerate_r1_rule_removal_enlarges():
    rules = default_rule_table().without("oadp_curve_is_twisted_cubic")
    rows = enumerate_r1(rules)
    assert all(r.struck_by is None for r in rows)
    assert len(rows) == 5


def _assert_rows_match_table(rows, r):
    """Each enumerated row equals the table row of its key in every field
    but the provenance and the strike mark."""
    table = {row.key(): row for row in load_table() if row.r == r}
    assert sorted(row.key() for row in rows) == sorted(table)
    for row in rows:
        assert replace(row, provenance="", struck_by=None) == replace(
            table[row.key()], provenance="", struck_by=None
        )


def test_enumerate_r2_matches_table():
    rows = enumerate_r2()
    _assert_rows_match_table(rows, 2)
    assert len(rows) == 10


def test_enumerate_r2_without_degree_rule_enlarges():
    rules = default_rule_table().without("nondegenerate_surface_needs_d_ge_2")
    rows = enumerate_r2(rules)
    assert {r.key() for r in enumerate_r2()} <= {r.key() for r in rows}
    extra = {r.key() for r in rows} - {r.key() for r in enumerate_r2()}
    assert extra == {(2, 6, 1, 7, 2, 1, 6)}


def test_enumerate_r3_matches_table():
    rows = enumerate_r3()
    # every field but the provenance, existence flags included
    _assert_rows_match_table(rows, 3)
    assert len(rows) == 19


def test_enumerate_r3_rejects_inconsistent_rows(monkeypatch):
    rows = classify._R3_ROWS
    # a cited inverse degree the pushforward contradicts (it gives d = 1)
    wrong_d = rows[-1][:7] + (2,) + rows[-1][8:]
    # a nondegenerate row outside the three (lam, g) families
    stray = (8, 0, 12, 5) + rows[2][4:]
    for row in (wrong_d, stray):
        monkeypatch.setattr(classify, "_R3_ROWS", [row])
        with pytest.raises(Infeasible):
            enumerate_r3()


def test_enumerate_r3_gap_five_excluded_by_rules():
    rows = enumerate_r3()
    assert all(not (row.n == 8 and row.a == 5 and row.eps == 0) for row in rows)
    # removing both strike rules readmits the degree-seven candidate
    rules = default_rule_table().without(
        "threefold_a5_excluded", "inverse_degree_integral"
    )
    enlarged = enumerate_r3(rules)
    assert any(row.a == 5 and row.eps == 0 for row in enlarged)
    assert {r.key() for r in rows} <= {r.key() for r in enlarged}


def test_enumerate_r4_rows_and_families():
    rows, families = enumerate_r4()
    quads = {(r.a, r.lam, r.g, r.chi) for r in rows}
    assert (10, 7, 0, 1) in quads
    assert (7, 10, 3, 1) in quads
    assert (6, 11, 4, 1) in quads
    assert (5, 12, 5, 1) in quads
    assert (4, 14, 8, 1) in quads and (4, 13, 6, 1) in quads
    assert (3, 14, 7, 1) in quads
    # the rejected degree-11 elliptic scroll never appears
    assert all(not (r.a == 0 and r.lam == 11) for r in rows)
    assert all(r.a != 8 and r.a != 9 for r in rows)
    gaps = [f.a for f in families]
    assert gaps == [3, 2, 1, 0]
    by_gap = {f.a: f for f in families}
    assert (by_gap[3].lam_min, by_gap[3].lam_max, by_gap[3].g_max) == (14, 16, 11)
    assert (by_gap[2].lam_min, by_gap[2].lam_max, by_gap[2].g_max) == (15, 18, 14)
    assert (by_gap[1].lam_min, by_gap[1].lam_max, by_gap[1].g_max) == (15, 20, 17)
    assert by_gap[0].lam_max is None


def test_enumerate_r4_rows_satisfy_their_twists():
    # the provenance names the twists at which the Hilbert polynomial vanishes
    twists = {"three vanishing twists": (-1, -2, -3), "two vanishing twists": (-1, -2)}
    rows, _ = enumerate_r4()
    seen = set()
    for row in rows:
        ts = twists.get(row.provenance)
        if ts is None:
            assert row.provenance.startswith("cited")
            continue
        seen.add(row.provenance)
        hp = hilbert_poly_r4(row.lam, row.g, row.chi, row.a)
        assert [poly_eval(hp, t) for t in ts] == [0] * len(ts), row
    assert seen == set(twists)


def test_coindex_solver_triples():
    assert coindex_solver(3, 2, 10) == [(3, 8, 0), (6, 13, 1), (9, 18, 2)]
    # the linear-inverse coindex-2 family: exactly the slice tower rows
    sols = coindex_solver(1, 2, 3)
    assert sols == [(1, 4, 0), (2, 5, 1), (3, 6, 2)]
    probe = coindex_solver(1, 0, 2)
    assert probe == [(1, 2, 2), (2, 3, 3)]


def test_coindex_solver_closure():
    for d, c in [(3, 2), (1, 2), (2, 1), (4, 3)]:
        for r, n, delta in coindex_solver(d, c, 12):
            assert delta == (r - d - c + 2) // d
            assert (r - d - c + 2) % d == 0
            assert n == 2 * r + 2 - delta
            assert delta >= 0


def test_check_table_relations_are_pinned():
    # every relation's name, verdict and detail string, per table row
    with open(CHECK_TABLE_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = {str(row.key()): [asdict(r) for r in reps] for row, reps in check_table()}
    assert list(got) == list(golden)
    for key, reps in golden.items():
        assert got[key] == reps, key


def test_table_all_pass():
    reports = check_table()
    assert len(reports) == 33
    assert table_all_pass(reports)


@pytest.mark.parametrize("fieldname", ["n", "a", "lam", "g", "d", "Delta", "c"])
def test_table_mutation_detected(fieldname):
    rows = load_table()
    for row in rows:
        for delta in (1, -1):
            value = getattr(row, fieldname) + delta
            if value < 0:
                continue
            mutated = replace(row, **{fieldname: value})
            try:
                reports = check_row(mutated)
            except Exception:
                continue  # an exception also counts as detection
            assert not all(r.ok for r in reports), (
                f"undetected mutation {fieldname}{delta:+d} on {row.key()}"
            )


def test_existence_flags_cover_legend():
    flags = {row.existence for row in load_table()}
    assert flags == {"E", "E*", "E**", "?"}
