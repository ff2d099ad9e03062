"""Exact-arithmetic connective K-homology calculator.

Computes the classifying-space K-homology of cyclic groups and of smash
squares via presentations, degree-wise tensor and torsion terms, mod-2
Steenrod functional dimensions, and long-exact-sequence feasibility audits of
the published tables.  All arithmetic is exact (arbitrary-precision integers
and F2); answers are reported in invariant-factor canonical form.

The names below load their home module on first use (PEP 562), so importing
one submodule, such as ``kconn.kunneth``, loads only what it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "abelian": "FgAbelianGroup cokernel_group parse_group render_group",
    "exactseq": "LongExactSequence bo1_les_consistency bo_smash_group bott_audit "
                "image_order_solve load_fixture_table table_group",
    "kmods": "GradedModulePresentation bu_bzp_group ku_smash_check lu_bzp_presentation "
             "lu_closed_form realize_degree",
    "kunneth": "KunnethReport kunneth_smash_group tensor_degree tor1_degree "
               "tor_closed_form verify_bu_decomposition",
    "steenrod": "SteenrodModule hom_dim sq_action verify_hom_sequence x_count",
    "verify": "run_acceptance",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
