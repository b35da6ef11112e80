"""Tests of the benchmark itself: python3 -m pytest perfbench

Each test starts the runner in a subprocess from the root of the
checkout, with short runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

sys.path.insert(0, HERE)
import spans  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "0"]
    cmd += ["--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counters_repeat_across_runs(workload):
    """Two traced runs with one seed give identical calls and counters."""
    first, second = (_result(_run(workload, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    names = [m["name"] for m in _spec()["per_layer"]]
    assert list(first["metrics"]) == names
    counts = [n for n in names if first["metrics"][n]["unit"] == "count"]
    assert set(spans.COUNTERS) <= set(counts)
    for n in counts:
        assert first["metrics"][n] == second["metrics"][n], n
    _check_span_file(os.path.join(HERE, "out", f"{workload}-seed0.tsv"))


def _check_span_file(path: str) -> None:
    """Every parent is a span of the file and encloses its children."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    spans_by_id = {int(r[0]): (r[1], int(r[2]), float(r[3]), float(r[4])) for r in rows}
    assert len(spans_by_id) == len(rows)
    for name, parent, start, end in spans_by_id.values():
        assert start <= end
        if parent == -1:
            assert name == spans.ROOT_SPAN
            continue
        _, _, p_start, p_end = spans_by_id[parent]
        assert p_start <= start and end <= p_end


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics(workload):
    result = _result(_run(workload, 0))
    assert result["correct"] and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in _spec()["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """Next to nothing but the benchmark, the run fails and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in _spec()["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__")
        )
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "corpus_default"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
