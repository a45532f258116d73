"""Exact-arithmetic homology of divided-power de Rham complexes.

The toolkit materializes, for a free abelian group of finite rank, the
complexes whose degree-i terms are wedge^i (x) divided^(n-i) (and the
classical sym^i (x) wedge^(n-i) companions), computes their integral
homology by Smith reduction, and machine-checks the structural
descriptions of that homology: the degree-0 identification with divided
powers of mod-p reductions, the full table of homology groups through
weight 7 via explicit comparison cycles, the Koszul model for derived
symmetric powers, and the weight-8 breakdown where 4-torsion appears.
"""

from .abelian import (
    expected_h0,
    expected_table_entry,
    gamma_cyclic,
    gamma_group,
    tensor,
    tor,
    tor_power,
)
from .bases import enumerate_basis, gamma_module_action, gamma_product, wedge_insert
from .comparison import (
    eta,
    f18_counterexample,
    f_matrix,
    q_matrix,
    verify_f_welldefined,
    verify_h0_iso,
    verify_q_relations,
    verify_theorem,
)
from .complexes import (
    ChainComplexZ,
    build_C,
    build_D,
    cross_effect_h0,
    homology,
    homology_of,
    kunneth_check,
)
from .intlinalg import (
    GroupInvariants,
    SnfResult,
    fp_cokernel_basis,
    fp_rank,
    invariants_of_cokernel,
    presented_map_is_iso,
    smith_normal_form,
)
from .koszul import build_koszul, derived_sp, generator_presentation
from .numtheory import (
    binomial,
    check_binomial_lemma,
    check_central_divisibility,
    gcd_stable,
)

__version__ = "0.1.0"

__all__ = [
    "GroupInvariants",
    "ChainComplexZ",
    "SnfResult",
    "binomial",
    "build_C",
    "build_D",
    "build_koszul",
    "check_binomial_lemma",
    "check_central_divisibility",
    "cross_effect_h0",
    "derived_sp",
    "enumerate_basis",
    "eta",
    "expected_h0",
    "expected_table_entry",
    "f18_counterexample",
    "f_matrix",
    "fp_cokernel_basis",
    "fp_rank",
    "gamma_cyclic",
    "gamma_group",
    "gamma_module_action",
    "gamma_product",
    "gcd_stable",
    "generator_presentation",
    "homology",
    "homology_of",
    "invariants_of_cokernel",
    "kunneth_check",
    "presented_map_is_iso",
    "q_matrix",
    "smith_normal_form",
    "tensor",
    "tor",
    "tor_power",
    "verify_f_welldefined",
    "verify_h0_iso",
    "verify_q_relations",
    "verify_theorem",
    "wedge_insert",
]
