"""The benchmark's workloads: inputs built from the seed, one pass each.

A pass calls quadbir only through public functions and returns the list
of `VerificationReport`s it produced plus the steps its own step budgets
used.  The canonical output of a pass is `reports_to_json` of those
reports (no timings), which is what the runner compares byte for byte.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# verify_example budget for the heavy checks, as in the README's
# `quadbir --budget 400000000 verify <example>`
HEAVY_BUDGET = 400_000_000
# the two corpus examples whose heavy check finishes in well under a second
HEAVY_EXAMPLES = ("grassmannian_to_spinor", "quintic_scroll_oadp")
# Step caps of the two probes.  Each probe runs the same call the corpus's
# heavy check makes, but stops at a fixed number of budget steps, so a pass
# has a fixed amount of work until the kernel finishes inside the cap.
# The elliptic quintic secant needs 248,570 steps (about 70 s) to finish;
# its first 15,000 steps spend about two thirds of their time in division.
SECANT_STEP_CAP = 15_000
# The singular-locus basis of the line-times-quadric image is not known to
# finish; after the 6,151 minors, about 95% of the first 1,500 steps is
# Gebauer-Moeller pair bookkeeping.
SINGULAR_STEP_CAP = 1_500
SINGULAR_CODIM = 4
SINGULAR_MINOR_CAP = 12_000
SINGULAR_IDEAL = "line_times_quadric_image.ideal"
# the corpus's recorded dimension of that singular locus
SINGULAR_EXPECTED_DIM = 3


def import_quadbir():
    """Import quadbir from this checkout's `src`, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "quadbir")):
        raise ImportError(f"no quadbir package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import quadbir

    if os.path.dirname(os.path.dirname(os.path.abspath(quadbir.__file__))) != SRC:
        raise ImportError(f"quadbir imported from {quadbir.__file__}, not {SRC}")
    return quadbir


def _undecided_errors():
    from quadbir.groebner import BudgetExceeded, SaturationUncertified
    from quadbir.maps import HeavyComputation

    return (BudgetExceeded, HeavyComputation, SaturationUncertified)


def _probe_report(example, description, name, provenance, expected, decide):
    """One-check report for a step-capped probe, in the corpus's format.

    Running into the cap gives SKIPPED_HEAVY, as budget exhaustion does in
    the corpus; otherwise `decide()` returns the computed value.
    """
    from quadbir.corpus import FAIL, PASS, SKIPPED_HEAVY, CheckResult, VerificationReport

    try:
        computed = decide()
    except _undecided_errors() as e:
        check = CheckResult(name, SKIPPED_HEAVY, expected=str(e), provenance=provenance)
    else:
        check = CheckResult(
            name,
            PASS if computed == expected else FAIL,
            expected=repr(expected),
            computed=repr(computed),
            provenance=provenance,
        )
    return VerificationReport(example, description, "PROBE", [check])


class CorpusDefault:
    """`verify_all` at the default step budget: what users run."""

    name = "corpus_default"

    def __init__(self, seed: int):
        self.q = import_quadbir()
        self.seed = seed

    def run_pass(self):
        from quadbir.groebner import DEFAULT_STEP_BUDGET

        return self.q.verify_all(DEFAULT_STEP_BUDGET, self.seed), 0


class HeavyDecided:
    """The heavy checks that finish, at a 400M budget, plus the secant
    elimination of the elliptic quintic stopped at a fixed step cap."""

    name = "heavy_decided"

    def __init__(self, seed: int):
        self.q = import_quadbir()
        from quadbir.varieties import elliptic_quintic_pfaffian

        self.seed = seed
        self.quintic = elliptic_quintic_pfaffian()

    def run_pass(self):
        q = self.q
        reports = [
            q.verify_example(name, q.StepBudget(HEAVY_BUDGET), self.seed)
            for name in HEAVY_EXAMPLES
        ]
        budget = q.StepBudget(SECANT_STEP_CAP)

        def decide():
            gens = q.secant_ideal(self.quintic, budget).generators
            return len(gens) == 1 and gens[0].degree() == 5

        reports.append(
            _probe_report(
                "elliptic_quintic_cremona",
                f"secant elimination stopped at {SECANT_STEP_CAP} steps",
                "secant_quintic_hypersurface",
                "two-copy elimination",
                True,
                decide,
            )
        )
        return reports, budget.used


class SingularProbe:
    """`singular_locus` of the line-times-quadric image under a step cap."""

    name = "singular_probe"

    def __init__(self, seed: int):
        self.q = import_quadbir()
        self.seed = seed
        self.image = self.q.ideal_io.read_ideal(
            os.path.join(SRC, "quadbir", "data", "ideals", SINGULAR_IDEAL)
        )

    def run_pass(self):
        q = self.q
        budget = q.StepBudget(SINGULAR_STEP_CAP)

        def decide():
            J = q.singular_locus(
                self.image, SINGULAR_CODIM, budget, cap=SINGULAR_MINOR_CAP, seed=self.seed
            )
            return q.hilbert_data(J, budget=budget, assume_saturated=True).dim_proj

        report = _probe_report(
            "line_times_quadric_section",
            f"image singular locus stopped at {SINGULAR_STEP_CAP} steps",
            "image_singular_dim",
            f"codimension-{SINGULAR_CODIM} minor scheme in P^12",
            SINGULAR_EXPECTED_DIM,
            decide,
        )
        return [report], budget.used


WORKLOADS = {w.name: w for w in (CorpusDefault, HeavyDecided, SingularProbe)}
