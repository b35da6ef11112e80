"""Closed-loop benchmark of quadbir: one client, one pass at a time.

    python3 perfbench/run.py --workload corpus_default --seed 0 --seconds 36 --trace 0

Run from the root of a checkout; quadbir is imported from its `src`.
Without --workload every workload runs, each in a fresh interpreter.

A run measures set-up time in child interpreters, then makes one
reference pass and repeats passes until --seconds have passed.  Every
pass's canonical report bytes must equal the reference pass's.  With
--trace 1, half the time goes to untraced passes and half to passes with
wrapper spans around each layer (see spans.py), whose report bytes and
counters must also repeat exactly.  The last line of standard output is
one JSON object: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
# a pass running longer than this is stopped and counted as failed
PASS_GUARD_S = 60.0
SPAN_DIR = os.path.join(HERE, "out")


class PassTimeout(BaseException):
    """Raised by the wall-clock guard; a BaseException so no handler in
    the program under test swallows it."""


def _on_alarm(signum, frame):
    raise PassTimeout()


def time_setup(name: str, seed: int) -> float:
    """Median wall time of interpreter start, import and input loading."""
    code = (
        f"import sys; sys.path.insert(0, {HERE!r}); import workloads; "
        f"workloads.WORKLOADS[{name!r}]({seed})"
    )
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], check=True, stdin=subprocess.DEVNULL
        )
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def one_pass(run_pass) -> dict:
    """Run one pass under the guard; returns its outcome and verdicts."""
    from quadbir.corpus import FAIL, PASS, SKIPPED_HEAVY, reports_to_json

    signal.setitimer(signal.ITIMER_REAL, PASS_GUARD_S)
    t0 = perf_counter()
    try:
        reports, steps = run_pass()
        status = "ok"
    except PassTimeout:
        reports, steps, status = None, 0, "timeout"
    except Exception as e:  # the program raised: a failed pass, not a crash
        print(f"pass raised {type(e).__name__}: {e}", file=sys.stderr)
        reports, steps, status = None, 0, "raised"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    out = {"seconds": perf_counter() - t0, "status": status, "steps": steps}
    if reports is not None:
        statuses = [c.status for r in reports for c in r.checks]
        out.update(
            output=reports_to_json(reports),
            checks=len(statuses),
            failed=statuses.count(FAIL),
            skipped=statuses.count(SKIPPED_HEAVY),
            decided=statuses.count(PASS) + statuses.count(FAIL),
        )
    return out


def loop(run_pass, deadline: float, ref: dict, on_pass=None) -> list[dict]:
    """Closed loop: start the next pass only after the last one ended,
    and not when it would end after the deadline (always at least one)."""
    done = []
    while True:
        p = one_pass(run_pass)
        if p["status"] == "ok" and p["output"] != ref["output"]:
            p["status"] = "mismatch"
        if on_pass is not None:
            on_pass(p)
        done.append(p)
        if p["status"] == "timeout" or perf_counter() + p["seconds"] > deadline:
            return done


def tail(samples: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    s = sorted(samples)
    k = math.ceil(0.9 * len(s))
    return s[k - 1], len(s) - k


def verdicts(passes: list[dict], ref: dict) -> dict:
    """Check shares over all passes; a pass that raised or timed out
    counts every check of the reference pass as attempted and failed."""
    attempted = failed = decided = 0
    for p in passes:
        if "checks" in p:
            attempted += p["checks"]
            failed += p["failed"]
            decided += p["decided"]
        else:
            attempted += ref["checks"]
            failed += ref["checks"]
    return {
        "decided_share": decided / attempted,
        "failed_share": failed / attempted,
        "undecided_share": (attempted - decided) / attempted,
        "nonfail_share": (attempted - failed) / attempted,
    }


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    setup_s = time_setup(name, seed)
    workload = workloads.WORKLOADS[name](seed)
    signal.signal(signal.SIGALRM, _on_alarm)

    start = perf_counter()
    ref = one_pass(workload.run_pass)
    if ref["status"] != "ok":
        raise SystemExit(f"{name}: reference pass {ref['status']}")
    passes = [ref]
    untraced_end = start + (seconds / 2 if traced else seconds)
    timed = loop(workload.run_pass, untraced_end, ref)
    passes += timed
    pass_s = statistics.median(p["seconds"] for p in timed)

    layer, consistent = {}, True
    if traced:
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        traced_pass = tracer.span(spans.ROOT_SPAN, workload.run_pass)
        per_pass = []

        def collect(p):
            calls, self_s, counters = tracer.take_pass()
            per_pass.append((p, calls, self_s, counters))

        try:
            tpasses = loop(traced_pass, start + seconds, ref, collect)
        finally:
            restore()
        passes += tpasses
        layer, consistent = layer_metrics(per_pass, pass_s)
        os.makedirs(SPAN_DIR, exist_ok=True)
        count = tracer.write(os.path.join(SPAN_DIR, f"{name}-seed{seed}.tsv"))
        print(f"{name}: wrote {count} spans of {len(tpasses)} traced passes to {SPAN_DIR}")

    bad = [p["status"] for p in passes if p["status"] != "ok"]
    shares = verdicts(passes, ref)
    tail_s, beyond = tail([p["seconds"] for p in timed])
    print(
        f"{name}: {len(passes)} passes ({len(timed)} timed untraced); "
        f"pass_s median {pass_s:.4f}, p90 {tail_s:.4f} with {beyond} of "
        f"{len(timed)} samples beyond it; "
        f"decided_share {shares['decided_share']:.6f}, "
        f"failed_share {shares['failed_share']:.6f}; "
        f"not ok: {bad or 'none'}"
    )
    correct = consistent and "raised" not in bad and "mismatch" not in bad
    if traced:
        metrics = layer
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (setup_s, "s"),
            "undecided_share": (shares["undecided_share"], "share"),
            "nonfail_share": (shares["nonfail_share"], "share"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": correct,
        "attempted": len(passes),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(per_pass, untraced_pass_s: float) -> tuple[dict, bool]:
    """Per-pass calls, self time and counters of the traced passes, and
    whether they are consistent: every pass ok and every count repeated.

    Self times are medians over the passes.
    """
    ok = [(c, s, n, p) for p, c, s, n in per_pass if p["status"] == "ok"]
    consistent = len(ok) == len(per_pass) and len(ok) > 0
    if not ok:
        return {}, False
    calls0, _, counters0, p0 = ok[0]
    for calls, _, counters, p in ok[1:]:
        consistent &= calls == calls0 and counters == counters0 and p["steps"] == p0["steps"]
    out = {}
    for name in spans.span_names():
        out[f"{name}.calls"] = (calls0[name], "count")
        out[f"{name}.self_s"] = (statistics.median(s.get(name, 0.0) for _, s, _, _ in ok), "s")
    counts = dict(counters0)
    counts["groebner.steps"] = counts.get("groebner.steps", 0) + p0["steps"]
    counts["corpus.checks"] = p0["checks"]
    counts["corpus.checks_skipped"] = p0["skipped"]
    for name in spans.COUNTERS:
        out[name] = (counts.get(name, 0), "count")
    traced_pass_s = statistics.median(p["seconds"] for _, _, _, p in ok)
    out["trace.untraced_pass_s"] = (untraced_pass_s, "s")
    out["trace.pass_s"] = (traced_pass_s, "s")
    out["trace.overhead_s"] = (traced_pass_s - untraced_pass_s, "s")
    out["trace.uncovered_s"] = (
        statistics.median(s.get(spans.ROOT_SPAN, 0.0) for _, s, _, _ in ok),
        "s",
    )
    out["trace.spans"] = (sum(calls0.values()), "count")
    return out, consistent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        status = 0
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name]
            cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            cmd += ["--trace", str(args.trace)]
            status |= subprocess.run(cmd, stdin=subprocess.DEVNULL).returncode
        return status
    try:
        workloads.import_quadbir()
    except ImportError as e:
        print(f"cannot run the benchmark: {e}", file=sys.stderr)
        return 2
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
