"""The names the benchmark in `perfbench/` calls still exist in quadbir.

The benchmark is run unchanged against every revision, so a refactor that
renames or drops a function, an exception or a parameter it uses breaks
it.  These tests read `perfbench/spans.py` and `perfbench/workloads.py` as
syntax trees, without importing them, and resolve each name in quadbir;
each call's arguments, such as the `seed` that `verify_all`,
`verify_example` and `singular_locus` are passed, must bind to the
function's signature.
"""

import ast
import importlib
import inspect
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# Calls in workloads.py that no longer bind.  The singular probe's last
# line passes `assume_saturated`, which `hilbert_data` no longer takes; it
# runs only if `singular_locus` finishes inside the probe's step cap, which
# it does not, so the benchmark still runs.
KNOWN_STALE_CALLS = {"hilbert_data"}


def _tree(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _resolve(obj, path):
    for part in path:
        obj = getattr(obj, part)
    return obj


def test_traced_functions_resolve():
    (functions,) = [
        node.value
        for node in _tree("spans.py").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FUNCTIONS"]
    ]
    assert functions.elts
    for entry in functions.elts:
        modname, attr = (ast.literal_eval(e) for e in entry.elts[:2])
        *owner, name = attr.split(".")
        home = _resolve(importlib.import_module(modname), owner)
        # a "Class.method" entry is rebound on the class that defines it
        assert name in vars(home), f"{modname}.{attr}"
        assert callable(getattr(home, name)), f"{modname}.{attr}"


def _quadbir_path(node):
    """The attribute path after `q` or `self.q` (the quadbir package in
    workloads.py), or None for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.reverse()
    if not isinstance(node, ast.Name):
        return None
    if node.id == "q":
        return parts
    if node.id == "self" and parts[:1] == ["q"]:
        return parts[1:]
    return None


def test_workload_names_resolve():
    quadbir = importlib.import_module("quadbir")
    imported, bound, stale = set(), set(), set()
    for node in ast.walk(_tree("workloads.py")):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("quadbir"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                imported.add(alias.name)
        elif isinstance(node, ast.Attribute) and _quadbir_path(node):
            _resolve(quadbir, _quadbir_path(node))
        elif isinstance(node, ast.Call) and _quadbir_path(node.func):
            path = _quadbir_path(node.func)
            fn = _resolve(quadbir, path)
            try:
                inspect.signature(fn).bind(
                    *node.args, **{k.arg: k.value for k in node.keywords}
                )
            except TypeError:
                stale.add(path[-1])
            else:
                bound.add(path[-1])
    assert imported and bound
    assert stale <= KNOWN_STALE_CALLS

