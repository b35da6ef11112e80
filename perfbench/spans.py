"""Wrapper spans around quadbir's layer functions, for the traced run.

Each wrapped function records a span (name, start, end, parent span) in
flat in-memory arrays, accumulates its calls and self time (duration
minus the time its child spans cover), and may bump deterministic
counters.  Wrappers are rebound in every quadbir module namespace that
holds the original function, so a call through `maps.kernel_basis` or
`corpus.image_ideal` is traced as well as one through its home module.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

ROOT_SPAN = "pass"


def _rref_cells(args, kwargs, result, counters):
    rows = args[0]
    counters["linalg.rref.cells"] += len(rows) * (len(rows[0]) if len(rows) else 0)


def _buchberger_sizes(args, kwargs, result, counters):
    ideal = args[0]
    gens = ideal.generators if hasattr(ideal, "generators") else [g for g in ideal if g]
    counters["groebner.buchberger.inputs"] += len(gens)
    if result is not None:
        counters["groebner.buchberger.basis_size"] += len(result)


def _minor_count(args, kwargs, result, counters):
    if result is not None:
        counters["maps.minor_ideal.minors"] += len(result.generators) - len(args[0].generators)


def _corpus_steps(args, kwargs, result, counters):
    budget = args[1] if len(args) > 1 else kwargs.get("budget")
    counters["groebner.steps"] += getattr(budget, "used", 0)


# (module, attribute, span name, counter hook); "Class.method" attributes
# are wrapped on the class.  A hook also runs when the call raises, with
# result None, so a basis run stopped by its step cap still counts inputs.
FUNCTIONS = [
    ("quadbir.polyring", "Poly.__mul__", "polyring.Poly.mul", None),
    ("quadbir.polyring", "Poly.substitute", "polyring.Poly.substitute", None),
    ("quadbir.polyring", "Poly.diff", "polyring.Poly.diff", None),
    ("quadbir.linalg", "rref", "linalg.rref", _rref_cells),
    ("quadbir.linalg", "kernel_basis", "linalg.kernel_basis", None),
    ("quadbir.groebner", "buchberger", "groebner.buchberger", _buchberger_sizes),
    ("quadbir.groebner", "membership", "groebner.membership", None),
    ("quadbir.groebner", "eliminate", "groebner.eliminate", None),
    ("quadbir.groebner", "saturate_irrelevant", "groebner.saturate_irrelevant", None),
    ("quadbir.hilbert", "hilbert_data", "hilbert.hilbert_data", None),
    ("quadbir.hilbert", "graded_piece", "hilbert.graded_piece", None),
    ("quadbir.hilbert", "hilbert_series_numerator", "hilbert.hilbert_series_numerator", None),
    ("quadbir.maps", "image_ideal", "maps.image_ideal", None),
    ("quadbir.maps", "image_forms", "maps.image_forms", None),
    ("quadbir.maps", "solve_inverse", "maps.solve_inverse", None),
    ("quadbir.maps", "smooth_certificate", "maps.smooth_certificate", None),
    ("quadbir.maps", "secant_ideal", "maps.secant_ideal", None),
    ("quadbir.maps", "singular_locus", "maps.singular_locus", None),
    ("quadbir.maps", "minor_ideal", "maps.minor_ideal", _minor_count),
    ("quadbir.classify", "check_row", "classify.check_row", None),
    ("quadbir.corpus", "verify_example", "corpus.verify_example", _corpus_steps),
    ("quadbir.ideal_io", "read_ideal", "ideal_io.read_ideal", None),
]
# every public function of quadbir.invariants shares one span name
INVARIANTS_SPAN = "invariants"

# deterministic per-pass counts reported next to the span timings
COUNTERS = [
    "linalg.rref.cells",
    "groebner.buchberger.inputs",
    "groebner.buchberger.basis_size",
    "groebner.steps",
    "maps.minor_ideal.minors",
    "corpus.checks",
    "corpus.checks_skipped",
]


def span_names() -> list[str]:
    return [f[2] for f in FUNCTIONS] + [INVARIANTS_SPAN]


class Tracer:
    """Span recorder; per-pass totals are read and reset by `take_pass`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per finished span, in the order spans end
        self.span_id = array("l")
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child time]
        self._reset_pass()

    def _reset_pass(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, hook=None):
        """Return `fn` wrapped so that each call records one span."""
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                self.span_id.append(sid)
                self.span_name.append(nid)
                self.span_parent.append(parent)
                self.span_start.append(t0)
                self.span_end.append(t1)
                if hook is not None:
                    hook(args, kwargs, result, self.counters)

        return wrapper

    def take_pass(self) -> tuple[Counter, dict, Counter]:
        """Calls, self seconds and counters since the last call, then reset."""
        out = (self.calls, dict(self.self_s), self.counters)
        self._reset_pass()
        return out

    def write(self, path: str) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[i]}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}"
                    f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
        return len(self.span_name)


def install(tracer: Tracer):
    """Rebind every traced function in all quadbir modules; returns undo()."""
    modules = [m for n, m in sys.modules.items() if n == "quadbir" or n.startswith("quadbir.")]
    undo = []
    targets = list(FUNCTIONS)
    inv = sys.modules["quadbir.invariants"]
    for attr, obj in vars(inv).items():
        if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == inv.__name__:
            targets.append(("quadbir.invariants", attr, INVARIANTS_SPAN, None))
    for modname, attr, name, hook in targets:
        home = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.span(name, orig, hook))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(home, attr)
        wrapped = tracer.span(name, orig, hook)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
                    undo.append((m, key, orig))

    def restore():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return restore
