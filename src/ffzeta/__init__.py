"""Exact characteristic-p zeta polynomials for one-place affine coordinate
rings over small finite fields: special values at negative integers, orders
of vanishing at X = 1, Weierstrass gap structures, ideal class groups, the
all-ideals zeta function, theorem hypothesis checkers and a brute-force
curve search."""

from ffzeta.errors import (
    BudgetError, CheckpointError, ConsistencyError, NonMaximalRingError,
    RingFileError, RingValidationError,
)
from ffzeta.gf import (
    GF, Poly, is_irreducible, is_squarefree, monic_polys, poly_factor,
    poly_from_str, poly_to_str,
)
from ffzeta.ring import RingSpec, elem_to_str
from ffzeta.ringfile import (
    bundled_ring_names, parse_ring_spec, parse_ring_text, serialize_ring_spec,
)
from ffzeta.semigroup import (
    NumericalSemigroup, degree_q_theorem_check, enumerate_semigroups,
    r_gap_values, semigroup_from_ring,
)
from ffzeta.zeta import (
    ZetaPolynomial, affine_power_sum, digit_sum, power_sum_S, zeta_neg,
)
from ffzeta.ideals import (
    class_group, ideal_from_generators, ideal_is_principal, l_polynomial,
)
from ffzeta.ideal_zeta import (
    ideal_zeta_classwise, ideal_zeta_direct, remark_exact_check,
)
from ffzeta.theorems import (
    check_dinesh, check_generalization, check_hiper, check_tesismc,
)
from ffzeta.search import (
    SearchSpace, merge_summaries, search_partition, search_run,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "CheckpointError", "ConsistencyError",
    "NonMaximalRingError", "RingFileError", "RingValidationError",
    "GF", "Poly", "is_irreducible", "is_squarefree", "monic_polys",
    "poly_factor", "poly_from_str", "poly_to_str",
    "RingSpec", "elem_to_str",
    "bundled_ring_names", "parse_ring_spec", "parse_ring_text",
    "serialize_ring_spec",
    "NumericalSemigroup", "degree_q_theorem_check", "enumerate_semigroups",
    "r_gap_values", "semigroup_from_ring",
    "ZetaPolynomial", "affine_power_sum", "digit_sum", "power_sum_S",
    "zeta_neg",
    "class_group", "ideal_from_generators", "ideal_is_principal",
    "l_polynomial",
    "ideal_zeta_classwise", "ideal_zeta_direct", "remark_exact_check",
    "check_dinesh", "check_generalization", "check_hiper", "check_tesismc",
    "SearchSpace", "merge_summaries", "search_partition", "search_run",
    "__version__",
]
