import json
import os

import pytest

from quadbir.cli import main
from quadbir.corpus import CORPUS
from quadbir.ideal_io import serialize_ideal
from quadbir.varieties import rational_normal_curve

DATA = os.path.join(
    os.path.dirname(__file__), "..", "src", "quadbir", "data", "ideals"
)
QUARTIC = os.path.join(DATA, "quartic_curve_base.ideal")
TEST_DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(TEST_DATA, "verify_all_budget60000_seed7.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hilbert_command(capsys):
    code, out, _ = run(capsys, "hilbert", QUARTIC)
    assert code == 0
    assert "degree 4" in out and "sectional_genus 1" in out


def test_hilbert_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "hilbert", QUARTIC)
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 4 and payload["dim"] == 1


def test_gb_command(capsys):
    code, out, _ = run(capsys, "gb", QUARTIC, "--order", "degrevlex")
    assert code == 0
    assert "x4" in out


def test_map_command(capsys):
    code, out, _ = run(capsys, "map", QUARTIC, "--image", "--sing")
    assert code == 0
    assert "ambient gap 2" in out
    assert '"degree": 4' in out
    assert "singular locus" in out


def test_map_sing_of_a_dominant_map(tmp_path, capsys):
    # the twisted cubic's three quadrics map P^3 onto P^2: the image ideal
    # is zero and the image, all of P^2, is smooth
    path = tmp_path / "twisted_cubic.ideal"
    path.write_text(serialize_ideal(rational_normal_curve(3)))
    code, out, _ = run(capsys, "--format", "json", "map", str(path), "--sing")
    assert code == 0
    payload = json.loads(out)
    assert payload["image"]["generators"] == [] and payload["image"]["dim"] == 2
    assert payload["singular_locus"] == {"dim": -1}


def test_enumerate_commands(capsys):
    code, out, _ = run(capsys, "enumerate", "--r", "1")
    assert code == 0
    assert "surviving cases: 4" in out
    assert "struck by oadp_curve_is_twisted_cubic" in out
    code, out, _ = run(capsys, "enumerate", "--r", "3")
    assert code == 0
    assert out.count("n=8") == 14 and "19 cases" in out
    code, out, _ = run(capsys, "enumerate", "--r", "4")
    assert code == 0
    assert "open families" in out


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_enumerate_json_is_pinned(capsys, r):
    # every field of every row, struck rows and labels included
    code, out, _ = run(capsys, "--format", "json", "enumerate", "--r", str(r))
    assert code == 0
    with open(os.path.join(TEST_DATA, f"enumerate_r{r}.json"), encoding="utf-8") as fh:
        assert out == fh.read()


def test_table_command(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert "all rows PASS (33 rows" in out


def test_coindex_command(capsys):
    code, out, _ = run(capsys, "coindex", "--d", "3", "--c", "2")
    assert code == 0
    assert out.strip().splitlines() == [
        "r=3 n=8 delta=0",
        "r=6 n=13 delta=1",
        "r=9 n=18 delta=2",
    ]


def test_invariants_command(capsys):
    code, out, _ = run(
        capsys,
        "invariants", "--r", "1", "--n", "4", "--a", "0",
    )
    assert code == 0
    assert "'lam': 5" in out and "'g': 1" in out


@pytest.mark.parametrize(
    "argv, line",
    [
        # n <= r: refused before any arithmetic (a negative n once reached
        # Fraction as a float and raised TypeError)
        (["--r", "1", "--n", "-1", "--lambda", "1", "--g", "0"],
         "segre_chern: not determined: need r < n"),
        (["--r", "3", "--n", "2", "--lambda", "1", "--g", "0", "--d", "1", "--delta", "1"],
         "segre_chern: not determined: need r < n"),
        # the r=4 Hilbert polynomial is pinned in P^10 with eps = 0 only
        (["--r", "4", "--n", "9", "--eps", "1", "--lambda", "10", "--g", "3",
          "--chi", "1", "--a", "7"],
         "hilbert_relations: not determined: r=4 is pinned for n=10, eps=0 only"),
        # n <= r refuses the coindex and the Hilbert relations too
        (["--r", "3", "--n", "2", "--lambda", "1", "--g", "0", "--d", "1", "--delta", "1"],
         "coindex: not determined: need r < n"),
        (["--r", "3", "--n", "2", "--lambda", "1", "--g", "0", "--d", "1", "--delta", "1"],
         "hilbert_relations: not determined: need r < n"),
        # a given d or Delta that contradicts the derived one
        (["--r", "1", "--n", "4", "--lambda", "5", "--g", "1", "--d", "2", "--delta", "7"],
         "segre_chern: not determined: given d=2 Delta=7, derived d=3 Delta=1"),
        (["--r", "1", "--n", "4", "--lambda", "5", "--g", "1", "--delta", "2"],
         "segre_chern: not determined: given Delta=2, derived Delta=1"),
        (["--r", "2", "--n", "6", "--lambda", "6", "--g", "1", "--d", "5", "--delta", "1"],
         "segre_chern: not determined: given dDelta=5, derived dDelta=8"),
    ],
)
def test_invariants_refusals(capsys, argv, line):
    code, out, _ = run(capsys, "invariants", *argv)
    assert code == 0
    assert line in out.splitlines()
    assert "chern_degrees" not in out


@pytest.mark.parametrize(
    "argv, tail",
    [
        (["--r", "1", "--n", "4", "--lambda", "5", "--g", "1", "--d", "3", "--delta", "1"],
         ["chern_degrees: [0]", "segre_degrees: [-25]", "d: 3", "Delta: 1"]),
        (["--r", "2", "--n", "6", "--lambda", "6", "--g", "1", "--a", "2",
          "--d", "4", "--delta", "2"],
         ["chern_degrees: [6, 8]", "segre_degrees: [-36, 134]", "dDelta: 8"]),
        # r = 3 derives nothing to compare from d or Delta alone
        (["--r", "3", "--n", "8", "--lambda", "11", "--g", "5", "--d", "3"],
         ["secant_degree: 5", "chern_degrees: [14]", "segre_degrees: [-85]"]),
        (["--r", "3", "--n", "8", "--lambda", "11", "--g", "5", "--delta", "2"],
         ["hilbert_relations: {'chi': 0}", "chern_degrees: [14]", "segre_degrees: [-85]"]),
        (["--r", "3", "--n", "8", "--lambda", "11", "--g", "5", "--d", "3", "--delta", "2"],
         ["chern_degrees: [14, 19, -6]", "segre_degrees: [-85, 388, -1362]", "dDelta: 6"]),
    ],
)
def test_invariants_consistent_given_values(capsys, argv, tail):
    # a given d and Delta that agree with the derived ones are reported as before
    code, out, _ = run(capsys, "invariants", *argv)
    assert code == 0
    assert out.splitlines()[-len(tail):] == tail


@pytest.mark.parametrize(
    "argv, line",
    [
        # a given lambda, g or chi that the Hilbert relations contradict
        (["--r", "2", "--n", "6", "--lambda", "6", "--g", "1"],
         "hilbert_relations: not determined: given lam=6, derived lam=7"),
        (["--r", "1", "--n", "4", "--lambda", "9", "--g", "1"],
         "hilbert_relations: not determined: given lam=9 g=1, derived lam=5 g=1"),
        (["--r", "3", "--n", "8", "--lambda", "8", "--g", "2", "--chi", "5", "--a", "4"],
         "hilbert_relations: not determined: given chi=5, derived chi=1"),
        # and given values that agree with them
        (["--r", "3", "--n", "8", "--lambda", "8", "--g", "2", "--chi", "1", "--a", "4"],
         "hilbert_relations: {'chi': 1}"),
        (["--r", "2", "--n", "6", "--lambda", "7", "--g", "1"],
         "hilbert_relations: {'chi': 0, 'lam': 7}"),
        (["--r", "1", "--n", "4", "--lambda", "5", "--g", "1"],
         "hilbert_relations: {'lam': 5, 'g': 1}"),
    ],
)
def test_invariants_checks_given_hilbert_values(capsys, argv, line):
    code, out, _ = run(capsys, "invariants", *argv)
    assert code == 0
    assert out.splitlines()[0] == line


def test_verify_command_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "quadric_slices")
    assert code == 0
    assert "example quadric_slices: PASS" in out


def test_verify_unknown_example_exit_code(capsys):
    code, out, err = run(capsys, "verify", "no_such_example")
    assert code == 2 and out == ""
    assert err.startswith("error: unknown example 'no_such_example'")
    assert all(name in err for name in CORPUS)


def test_verify_all_is_deterministic(capsys):
    # 60,000 steps cover every example (the largest, the line-times check
    # with its singular dimension, uses 59,084), so the only SKIPPED_HEAVY
    # checks are the heavy ones that cost more; two runs
    # must produce byte-identical canonical reports, equal to the golden
    # report kept in tests/data
    argv = ["--format", "json", "--budget", "60000", "verify", "--all"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = fh.read()
    assert out1 == out2
    assert out1 == golden
    assert "SKIPPED_HEAVY" in out1


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ideal"
    bad.write_text("ring x y over QQ\nideal:\nx +\n")
    code, _, err = run(capsys, "hilbert", str(bad))
    assert code == 2
    assert "line 3" in err
    bad.write_text("ring x y over QQ\nideal:\n3/0*x - y\n")
    code, _, err = run(capsys, "hilbert", str(bad))
    assert code == 2
    assert "line 3" in err and "zero denominator" in err
    code, _, err = run(capsys, "hilbert", str(tmp_path / "missing.ideal"))
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["coindex", "--d", "0", "--c", "2"], "need d >= 1"),
        (["coindex", "--d", "3", "--c", "2", "--r-max", "31"], "r_max <= 30"),
    ],
)
def test_usage_error_exit_code(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and message in err


def test_inhomogeneous_hilbert_exit_code(tmp_path, capsys):
    path = tmp_path / "affine.ideal"
    path.write_text("ring x y over QQ\nideal:\nx^2 - y\n")
    code, _, err = run(capsys, "hilbert", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_map_without_quadrics_exit_code(tmp_path, capsys):
    path = tmp_path / "cubic.ideal"
    path.write_text("ring x y z over QQ\nideal:\nx^3 - y*z^2\n")
    code, _, err = run(capsys, "map", str(path))
    assert code == 2
    assert err == "error: ideal contains no quadrics\n"
