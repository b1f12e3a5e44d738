"""anf-sat-lab: a descriptor-function calculus for 3-CNF-SAT over GF(2).

The package builds triangular descriptor vectors for 3-CNF instances,
manipulates ternary solution matrices as a bounded distributive lattice,
expands indicator polynomials, extracts product coefficients sparsely, and
cross-checks every conjectured identity against brute-force oracles.
"""

from .anf import AnfPoly, IntPoly
from .cnf import (
    Clause3,
    Formula,
    Literal,
    SortedFormula,
    StaticSets,
    parse_dimacs,
    relabel_by_frequency,
    sort_clauses,
    split_plus_minus,
    static_sets,
    subproblem,
    to_dimacs,
)
from .coeffs import CoefficientQuery, SweepVerdict, decide_sat_bounded, sweep
from .descriptor import (
    BuildResult,
    Descriptor,
    MergeTrace,
    build,
    clause_descriptor,
    identity_descriptor,
    merge,
    merge_poly,
    profile_csv,
)
from .indicator import (
    FactorSequence,
    factor_sequence,
    indicator_from_clauses,
    indicator_from_descriptor,
    indicator_from_factors,
    indicator_from_solutions,
)
from .oracle import (
    brute_count,
    brute_solutions,
    brute_solutions_slow,
    expand_product,
    random_formula,
)
from .smatrix import SMatrix, descriptor_from_smatrix, image
from .solutions import SolutionSet, intersect_images, list_solutions

__version__ = "0.1.0"

__all__ = [
    "AnfPoly",
    "IntPoly",
    "Clause3",
    "Formula",
    "Literal",
    "SortedFormula",
    "StaticSets",
    "parse_dimacs",
    "to_dimacs",
    "sort_clauses",
    "relabel_by_frequency",
    "split_plus_minus",
    "subproblem",
    "static_sets",
    "Descriptor",
    "MergeTrace",
    "BuildResult",
    "identity_descriptor",
    "clause_descriptor",
    "merge_poly",
    "merge",
    "build",
    "profile_csv",
    "SMatrix",
    "descriptor_from_smatrix",
    "image",
    "SolutionSet",
    "list_solutions",
    "intersect_images",
    "FactorSequence",
    "factor_sequence",
    "indicator_from_descriptor",
    "indicator_from_clauses",
    "indicator_from_solutions",
    "indicator_from_factors",
    "CoefficientQuery",
    "SweepVerdict",
    "sweep",
    "decide_sat_bounded",
    "brute_solutions",
    "brute_solutions_slow",
    "brute_count",
    "expand_product",
    "random_formula",
]
