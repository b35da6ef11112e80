"""Exact toolkit for quadratic birational transformations of projective
space: a symbolic kernel (polynomial arithmetic over the rationals,
Groebner bases, Hilbert polynomials, rational-map certificates) and a
numeric invariant engine that re-derives the classification of
transformations with low-dimensional base locus.

The package loads a layer on first use (PEP 562): `import quadbir` loads
no submodule, and `quadbir.hilbert_data` or `from quadbir import
hilbert_data` imports `quadbir.hilbert` then.  So a caller that only
parses an ideal or builds a variety never loads the map certificates,
the invariant engine or the corpus."""

from importlib import import_module

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_HOMES = {
    "polyring": ("DEGREVLEX", "Ideal", "LEX", "MonomialOrder", "Poly", "Ring"),
    "groebner": (
        "BudgetExceeded",
        "StepBudget",
        "buchberger",
        "eliminate",
        "ideal_equal",
        "ideal_quotient",
        "membership",
        "reduce",
        "saturate",
        "saturate_irrelevant",
    ),
    "hilbert": ("HilbertData", "graded_piece", "hilbert_data", "initial_ideal"),
    "maps": (
        "RationalMap",
        "composition_identity",
        "forward_annihilation",
        "image_ideal",
        "map_from_ideal",
        "map_type",
        "secant_ideal",
        "singular_locus",
        "smooth_certificate",
        "solve_inverse",
    ),
    "invariants": (
        "ClassProfile",
        "Infeasible",
        "castelnuovo_bound",
        "coindex_delta",
        "double_point",
        "hp_relations",
        "k2_thresholds",
        "pushforward_degrees",
        "r4_relations",
        "segre_chern",
        "structure_formulas",
    ),
    "classify": (
        "CaseRow",
        "RuleTable",
        "check_table",
        "coindex_solver",
        "default_rule_table",
        "enumerate_r1",
        "enumerate_r2",
        "enumerate_r3",
        "enumerate_r4",
        "load_table",
    ),
    "corpus": ("CORPUS", "verify_all", "verify_example"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the submodule `name`, or the one that defines the public
    `name`, and keep the value in the package namespace.  Private and
    dunder names are never looked up as submodules, so that probing for
    one, such as `__main__`, runs nothing."""
    missing = AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name.startswith("_"):
        raise missing
    else:
        try:
            value = import_module(f".{name}", __name__)
        except ModuleNotFoundError as e:
            if e.name != f"{__name__}.{name}":
                raise
            raise missing from None
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
