"""Exact-arithmetic homology of divided-power de Rham complexes.

The toolkit materializes, for a free abelian group of finite rank, the
complexes whose degree-i terms are wedge^i (x) divided^(n-i) (and the
classical sym^i (x) wedge^(n-i) companions), computes their integral
homology by Smith reduction, and machine-checks the structural
descriptions of that homology: the degree-0 identification with divided
powers of mod-p reductions, the full table of homology groups through
weight 7 via explicit comparison cycles, the Koszul model for derived
symmetric powers, and the weight-8 breakdown where 4-torsion appears.

The package namespace holds what the commands run.  The code that no
command runs, the dense numpy views, the full Koszul complex over F_p and
the second routes the tests and demos check against, is in
``derham.reference``, which neither the package nor any command imports.
"""

from .abelian import (
    expected_h0,
    expected_table_entry,
    gamma_cyclic,
    gamma_group,
    tensor,
    tor,
)
from .bases import enumerate_basis
from .comparison import (
    eta,
    f18_counterexample,
    q_matrix,
    verify_h0_iso,
    verify_q_relations,
    verify_theorem,
)
from .complexes import (
    ChainComplexZ,
    build_C,
    build_D,
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
from .koszul import derived_sp, generator_presentation
from .numtheory import binomial, gcd_stable

__version__ = "0.1.0"

__all__ = [
    "GroupInvariants",
    "ChainComplexZ",
    "SnfResult",
    "binomial",
    "build_C",
    "build_D",
    "derived_sp",
    "enumerate_basis",
    "eta",
    "expected_h0",
    "expected_table_entry",
    "f18_counterexample",
    "fp_cokernel_basis",
    "fp_rank",
    "gamma_cyclic",
    "gamma_group",
    "gcd_stable",
    "generator_presentation",
    "homology_of",
    "invariants_of_cokernel",
    "kunneth_check",
    "presented_map_is_iso",
    "q_matrix",
    "smith_normal_form",
    "tensor",
    "tor",
    "verify_h0_iso",
    "verify_q_relations",
    "verify_theorem",
]
