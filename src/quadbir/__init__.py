"""Exact toolkit for quadratic birational transformations of projective
space: a symbolic kernel (polynomial arithmetic over the rationals,
Groebner bases, Hilbert polynomials, rational-map certificates) and a
numeric invariant engine that re-derives the classification of
transformations with low-dimensional base locus."""

from .polyring import DEGREVLEX, LEX, MonomialOrder, Poly, Ring
from .groebner import (
    BudgetExceeded,
    Ideal,
    StepBudget,
    buchberger,
    eliminate,
    ideal_equal,
    ideal_quotient,
    membership,
    reduce,
    saturate,
    saturate_irrelevant,
)
from .hilbert import HilbertData, graded_piece, hilbert_data, initial_ideal
from .maps import (
    RationalMap,
    composition_identity,
    forward_annihilation,
    image_ideal,
    map_from_ideal,
    map_type,
    secant_ideal,
    singular_locus,
    smooth_certificate,
    solve_inverse,
)
from .invariants import (
    ClassProfile,
    Infeasible,
    castelnuovo_bound,
    coindex_delta,
    double_point,
    hp_relations,
    k2_thresholds,
    pushforward_degrees,
    r4_relations,
    segre_chern,
    structure_formulas,
)
from .classify import (
    CaseRow,
    RuleTable,
    check_table,
    coindex_solver,
    default_rule_table,
    enumerate_r1,
    enumerate_r2,
    enumerate_r3,
    enumerate_r4,
    load_table,
)
from .corpus import CORPUS, verify_all, verify_example

__version__ = "0.1.0"
