import dataclasses
import glob
import os
import shutil
import sys

import pytest

from quadbir import corpus, maps
from quadbir.corpus import (
    CORPUS,
    FAIL,
    FORWARD_ONLY,
    FULL,
    NUMERIC_ONLY,
    PASS,
    SKIPPED_HEAVY,
    ExampleSpec,
    _Ctx,
    base,
    recorded,
    singular_dim,
    verify_example,
)
from quadbir.groebner import StepBudget, ideal_equal
from quadbir.hilbert import hilbert_data
from quadbir.groebner import Ideal
from quadbir.ideal_io import parse_ideal_text, read_ideal, serialize_ideal
from quadbir.maps import HeavyComputation, solve_inverse
from quadbir.polyring import PolyParseError, Ring
from quadbir.varieties import grassmannian_plucker

DATA = os.path.join(
    os.path.dirname(__file__), "..", "src", "quadbir", "data", "ideals"
)


def test_corpus_is_complete():
    assert len(CORPUS) == 23
    classes = {spec.feasibility for spec in CORPUS.values()}
    assert classes == {FULL, FORWARD_ONLY, NUMERIC_ONLY}
    numeric_only = [
        "grassmannian_to_spinor",
        "edge_threefolds_oadp",
        "quintic_scroll_oadp",
    ]
    for name in numeric_only:
        assert CORPUS[name].feasibility == NUMERIC_ONLY


def test_ideal_files_round_trip():
    files = sorted(glob.glob(os.path.join(DATA, "*.ideal")))
    assert files
    # a generator line may start with a variable named `ring`
    ring = Ring(["ring", "x"])
    r, x = ring.gens()
    named_ring = Ideal(ring, [r + x, r * r - 2 * x])
    for I in [read_ideal(path) for path in files] + [named_ring]:
        text = serialize_ideal(I)
        J = parse_ideal_text(text)
        assert I.ring == J.ring
        assert list(I.generators) == list(J.generators)
        assert ideal_equal(I, J)


def test_parse_error_carries_line_number():
    bad = "ring x y over QQ\nideal:\nx + \n"
    with pytest.raises(PolyParseError) as err:
        parse_ideal_text(bad)
    assert "line 3" in str(err.value)
    with pytest.raises(PolyParseError) as err:
        parse_ideal_text("ideal:\nx\n")
    assert "line 1" in str(err.value)
    # a header name that no generator line could reach, or that names a
    # variable twice, is refused
    for header in ("ring x 1x over QQ", "ring x y^2 over QQ", "ring x x over QQ",
                   "ring x y x over QQ"):
        with pytest.raises(PolyParseError) as err:
            parse_ideal_text(header + "\nideal:\n1x - x\n")
        assert err.value.line == 1
    # the header is read as words: 'over' glued to a name is no 'over', and
    # any run of spaces parts two words
    with pytest.raises(PolyParseError, match="over QQ") as err:
        parse_ideal_text("ring x0 x1over QQ\nideal:\nx0\n")
    assert err.value.line == 1
    I = parse_ideal_text("ring x0 x1 over  QQ\nideal:\nx0\n")
    assert I.ring.variables == ("x0", "x1")
    # a second header before 'ideal:' is refused on its line
    with pytest.raises(PolyParseError, match="duplicate") as err:
        parse_ideal_text("ring x over QQ\nring y over QQ\nideal:\nx\n")
    assert err.value.line == 2
    # more digits than Python's integer-string limit, in a coefficient, a
    # denominator or a power
    long = "1" * (sys.get_int_max_str_digits() + 1)
    for generator in (f"{long}*x - y", f"x - 1/{long}", f"x^{long}"):
        with pytest.raises(PolyParseError, match="digits") as err:
            parse_ideal_text(f"ring x y over QQ\nideal:\nx\n{generator}\n")
        assert err.value.line == 4


def test_unknown_example_rejected():
    with pytest.raises(KeyError):
        verify_example("no_such_example")


@pytest.mark.parametrize(
    "name",
    [
        "quadric_slices",
        "elliptic_quintic_cremona",
        "severi_slices",
        "del_pezzo_sextic",
        "quintic_surface_scrolls",
        "segre_line_plane",
        "line_space_segre",
        "octic_plane_bundle_oadp",
        "edge_threefolds_oadp",
        "quintic_scroll_oadp",
        "plane_scroll_nine",
        "quadric_scroll_ten",
        "ruled_scroll_eleven",
    ],
)
def test_examples_pass(name):
    budget = StepBudget()
    report = verify_example(name, budget)
    assert report.status == PASS, report.to_text()
    assert report.checks
    assert all(c.status != SKIPPED_HEAVY for c in report.checks), report.to_text()
    if name == "elliptic_quintic_cremona":
        # the secant check spends exactly its declared cost
        assert budget.used == 762 + 6_900


def test_no_silent_success():
    # every expectation is either checked or reported as skipped-heavy
    report = verify_example("del_pezzo_seven_nonliftable")
    statuses = {c.status for c in report.checks}
    assert statuses <= {PASS, FAIL, SKIPPED_HEAVY}
    assert any(c.status == SKIPPED_HEAVY for c in report.checks)


def test_budget_downgrades_but_never_passes():
    # with a starvation budget the pipeline reports skipped work, not success
    report = verify_example("line_times_quadric_section", budget=10)
    assert report.status != FAIL or any(
        c.status == SKIPPED_HEAVY for c in report.checks
    )
    assert any(c.status == SKIPPED_HEAVY for c in report.checks)


def test_budget_exhaustion_keeps_finished_checks():
    # a budget that runs out partway through: the checks that finished
    # before it ran out survive, followed by one pipeline entry; the cut is
    # half of what the full run uses, so it stays mid-pipeline; the full
    # run's 59,000 steps do not cover the singular-locus check's cost
    # (55,270 after 3,814), so the cut falls before that check
    budget = StepBudget(59_000)
    full = verify_example("line_times_quadric_section", budget)
    limit = budget.used // 2
    starved = verify_example("line_times_quadric_section", budget=limit)
    *finished, last = starved.checks
    assert len(finished) >= 3
    assert last.name == "pipeline" and last.status == SKIPPED_HEAVY
    assert f"{limit + 1} steps" in last.expected
    assert finished == full.checks[: len(finished)]
    assert all(c.status == PASS for c in finished)


def test_decided_singular_dim_keeps_its_provenance():
    # the quartic fourfold in P^6 is singular along a curve; a decided
    # check carries the provenance text its SKIPPED_HEAVY entry would carry
    spec = ExampleSpec("quartic_fourfold", "singular locus probe", FULL, (),
                       image="quartic_curve_image.ideal")
    ctx = _Ctx(spec, StepBudget(400_000_000))
    singular_dim(2, 4000, 1, "codimension-2 minor scheme in P^6", 250)(ctx)
    [check] = ctx.checks
    assert (check.name, check.status, check.computed) == ("image_singular_dim", PASS, "1")
    assert check.provenance == "codimension-2 minor scheme in P^6"


def test_minor_cap_reports_skipped_heavy():
    # the same probe with a cap below the 21 minors is skipped, not decided
    spec = ExampleSpec("quartic_fourfold", "singular locus probe", FULL, (),
                       image="quartic_curve_image.ideal")
    ctx = _Ctx(spec, StepBudget(400_000_000))
    singular_dim(2, 10, 1, "codimension-2 minor scheme in P^6", 250)(ctx)
    [check] = ctx.checks
    assert (check.name, check.status) == ("image_singular_dim", SKIPPED_HEAVY)
    assert check.expected == "21 Jacobian minors exceed the cap of 10"


def test_inverse_unknown_cap_raises_before_solving(monkeypatch):
    # a cubic inverse of the thirteen-quadric map has 5382 unknowns, past
    # the cap; the refusal comes before any equation is built
    ctx = _Ctx(CORPUS["line_times_quadric_section"], StepBudget())
    monkeypatch.setattr(maps, "_monomial_rows", None)
    with pytest.raises(HeavyComputation, match="^5382 unknowns in the inverse solve$"):
        solve_inverse(ctx.map, 3)


def test_quintic_scroll_image_lies_on_35_quadrics():
    # the image is a codimension-2 linear section of G(1,6) in P^20, so it
    # lies on C(20, 2) - (HF(2) - 2*HF(1) + HF(0)) quadrics of P^18
    hf = hilbert_data(grassmannian_plucker(1, 6)).hilbert_function(2)
    assert 190 - (hf[2] - 2 * hf[1] + hf[0]) == 35
    # the exact kernel check runs at the default budget and agrees
    report = verify_example("quintic_scroll_oadp")
    [check] = [c for c in report.checks if c.name == "image_quadric_count"]
    assert check.status == PASS
    assert check.expected == check.computed == "35"
    assert report.status == PASS


@pytest.mark.parametrize("broken", ["swapped", "on_the_image"])
def test_failing_recorded_inverse_is_a_fail_not_a_crash(tmp_path, monkeypatch, broken):
    # the thirteen-quadric example with a broken recorded inverse: two of
    # its components swapped (the composite is not the identity), or every
    # component an image generator (the composite vanishes identically)
    name = "line_times_quadric_section"
    spec = CORPUS[name]
    for f in (spec.base, spec.image):
        shutil.copy(os.path.join(DATA, f), tmp_path)
    comps = list(read_ideal(os.path.join(DATA, spec.inverse)).generators)
    image = read_ideal(os.path.join(DATA, spec.image))
    if broken == "swapped":
        comps[0], comps[1] = comps[1], comps[0]
    else:
        comps = [image.generators[0]] * len(comps)
    (tmp_path / spec.inverse).write_text(serialize_ideal(Ideal(image.ring, comps)))
    steps = (base(3, 8, 2, 1), recorded("recorded image", "broken inverse", (2, 2)))
    monkeypatch.setattr(corpus, "_DATA", str(tmp_path))
    monkeypatch.setitem(CORPUS, name, dataclasses.replace(spec, steps=steps))
    report = verify_example(name)
    # the finished checks survive, and the type is not asked of a map
    # whose inverse failed
    assert report.status == FAIL
    assert [(c.name, c.status) for c in report.checks] == [
        ("base_locus_dim_deg_genus_chi", PASS),
        ("forward_annihilation", PASS),
        ("composition_identity", FAIL),
    ]
