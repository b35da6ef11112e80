"""The package namespace loads a layer on first use.

Each check of what is loaded runs in a fresh interpreter, since this
session has long since loaded every layer.
"""

import json
import os
import subprocess
import sys

import pytest

import quadbir
from quadbir.polyring import DEGREVLEX, Ideal, Ring

SRC = os.path.dirname(os.path.dirname(os.path.abspath(quadbir.__file__)))

# the public names and the submodule that defines each
EXPORTS = {
    "polyring": ["DEGREVLEX", "Ideal", "LEX", "MonomialOrder", "Poly", "Ring"],
    "groebner": [
        "BudgetExceeded", "StepBudget", "buchberger", "eliminate",
        "ideal_equal", "ideal_quotient", "membership", "reduce", "saturate",
        "saturate_irrelevant",
    ],
    "hilbert": ["HilbertData", "graded_piece", "hilbert_data", "initial_ideal"],
    "maps": [
        "RationalMap", "composition_identity", "forward_annihilation",
        "image_ideal", "map_from_ideal", "map_type", "secant_ideal",
        "singular_locus", "smooth_certificate", "solve_inverse",
    ],
    "invariants": [
        "ClassProfile", "Infeasible", "castelnuovo_bound", "coindex_delta",
        "double_point", "hp_relations", "k2_thresholds", "pushforward_degrees",
        "r4_relations", "segre_chern", "structure_formulas",
    ],
    "classify": [
        "CaseRow", "RuleTable", "check_table", "coindex_solver",
        "default_rule_table", "enumerate_r1", "enumerate_r2", "enumerate_r3",
        "enumerate_r4", "load_table",
    ],
    "corpus": ["CORPUS", "verify_all", "verify_example"],
}


def fresh(code: str):
    """Run code in a new interpreter that imports quadbir from this
    checkout; returns the JSON value it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('quadbir.'))))"


def test_import_loads_no_layer():
    assert fresh("import quadbir\n" + LOADED) == []


def kernel_and(*modules):
    return sorted(f"quadbir.{m}" for m in ("polyring", "linalg", *modules))


def test_varieties_loads_only_the_kernel():
    assert fresh("import quadbir.varieties\n" + LOADED) == kernel_and("varieties")


def test_ideal_io_loads_only_the_kernel():
    assert fresh("import quadbir.ideal_io\n" + LOADED) == kernel_and("ideal_io")


def test_ideal_loads_no_engine():
    assert fresh("from quadbir import Ideal\n" + LOADED) == kernel_and()


def test_the_engine_loads_on_the_first_basis():
    """`Ideal.groebner` imports `groebner` when it is called, and gives
    what `groebner.buchberger` gives on the same ideal."""
    assert fresh(
        "from quadbir.varieties import rational_normal_curve\n"
        "I = rational_normal_curve(3)\n"
        "before = 'quadbir.groebner' in sys.modules\n"
        "gb = I.groebner()\n"
        "after = 'quadbir.groebner' in sys.modules\n"
        "from quadbir.groebner import buchberger\n"
        "print(json.dumps([before, after, len(gb), gb == buchberger(rational_normal_curve(3))]))"
    ) == [False, True, 3, True]


def test_paranoid_checks_see_a_basis_made_by_the_method(paranoid_stats):
    """The method reads `groebner.buchberger` when called, so the checked
    wrapper that conftest.py binds there verifies its bases too."""
    if os.environ.get("QUADBIR_TEST_PARANOID", "1") == "0":
        pytest.skip("paranoid checks are off")
    ring = Ring(["package_u", "package_v", "package_w"])
    u, v, w = ring.gens()
    checked = paranoid_stats["gb_checked"]
    Ideal(ring, [u * u - v * w, u * v - w * w]).groebner(DEGREVLEX)
    assert paranoid_stats["gb_checked"] == checked + 1


def test_every_name_is_its_home_modules_object():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 54
    same = fresh(
        "import importlib, quadbir\n"
        f"exports = {EXPORTS!r}\n"
        "same = [getattr(quadbir, n) is getattr(importlib.import_module('quadbir.' + m), n)"
        " for m, names in exports.items() for n in names]\n"
        "print(json.dumps([same, quadbir.__all__, sorted(set(quadbir.__all__) - set(dir(quadbir)))]))"
    )
    assert same == [[True] * 54, names, []]


def test_submodules_resolve_as_attributes():
    assert fresh(
        "import quadbir\n"
        "m = quadbir.ideal_io\n"
        "print(json.dumps([m.__name__, m is sys.modules['quadbir.ideal_io'], callable(m.read_ideal)]))"
    ) == ["quadbir.ideal_io", True, True]


def test_from_import_and_star_import():
    assert fresh(
        "from quadbir import hilbert_data, StepBudget\n"
        "from quadbir import *\n"
        "print(json.dumps([hilbert_data.__module__, StepBudget.__module__, callable(verify_all)]))"
    ) == ["quadbir.hilbert", "quadbir.groebner", True]


def test_unknown_attribute_raises():
    assert fresh(
        "import quadbir\n"
        "try:\n"
        "    quadbir.no_such_name\n"
        "except AttributeError as e:\n"
        "    caught = str(e)\n"
        "try:\n"
        "    from quadbir import no_such_name\n"
        "except ImportError:\n"
        "    caught_from = True\n"
        "print(json.dumps([caught, caught_from, hasattr(quadbir, 'no_such_name'),"
        " hasattr(quadbir, '__main__'), sorted(m for m in sys.modules if m.startswith('quadbir.'))]))"
    ) == ["module 'quadbir' has no attribute 'no_such_name'", True, False, False, []]
