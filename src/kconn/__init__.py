"""Exact-arithmetic connective K-homology calculator.

Computes the classifying-space K-homology of cyclic groups and of smash
squares via presentations, degree-wise tensor and torsion terms, mod-2
Steenrod functional dimensions, and long-exact-sequence feasibility audits of
the published tables.  All arithmetic is exact (arbitrary-precision integers
and F2); answers are reported in invariant-factor canonical form.
"""

from .abelian import (
    AbelianGroupMap,
    FgAbelianGroup,
    GroupPresentation,
    IntegerMatrix,
    cokernel_group,
    kernel_of_map,
    parse_group,
    render_group,
)
from .exactseq import (
    LongExactSequence,
    alternating_order_check,
    bo1_les_consistency,
    bo_smash_group,
    bott_audit,
    image_order_solve,
    load_fixture_table,
    table_group,
)
from .kmods import (
    GradedModulePresentation,
    TruncatedKuRing,
    bu_bzp_group,
    ku_smash_check,
    lu_bzp_presentation,
    lu_closed_form,
    realize_degree,
)
from .kunneth import (
    KunnethReport,
    SummandResolution,
    kunneth_smash_group,
    tensor_degree,
    tor1_degree,
    tor_closed_form,
    verify_bu_decomposition,
)
from .steenrod import SteenrodModule, hom_dim, sq_action, verify_hom_sequence, x_count
from .verify import run_acceptance

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupMap",
    "FgAbelianGroup",
    "GradedModulePresentation",
    "GroupPresentation",
    "IntegerMatrix",
    "KunnethReport",
    "LongExactSequence",
    "SteenrodModule",
    "SummandResolution",
    "TruncatedKuRing",
    "alternating_order_check",
    "bo1_les_consistency",
    "bo_smash_group",
    "bott_audit",
    "bu_bzp_group",
    "cokernel_group",
    "hom_dim",
    "image_order_solve",
    "kernel_of_map",
    "ku_smash_check",
    "kunneth_smash_group",
    "load_fixture_table",
    "lu_bzp_presentation",
    "lu_closed_form",
    "parse_group",
    "realize_degree",
    "render_group",
    "run_acceptance",
    "sq_action",
    "table_group",
    "tensor_degree",
    "tor1_degree",
    "tor_closed_form",
    "verify_bu_decomposition",
    "verify_hom_sequence",
    "x_count",
]
