"""Finite poset and lattice completions, with exhaustive small-scale checks
of the structure theorems they witness."""

from .algebra import (
    SemilatticeStructure,
    classify,
    semilattice_homs,
    subsemilattices,
    substructure,
)
from .completions import (
    FamilyPoset,
    chain_ideals,
    downsets,
    fdown,
    ideals,
    iterate_id,
    principal_embedding,
    x_down,
)
from .morphisms import (
    BudgetExceeded,
    MonotoneMap,
    are_isomorphic,
    canonical_form,
    canonical_key,
    exists_map,
    iter_maps,
    map_kind,
)
from .poset import (
    CapacityExceeded,
    Poset,
    PosetError,
    adjoin_bounds,
    direct_product,
    disjoint_union,
    from_up_rows,
    hasse_covers,
)
from .verification import (
    CheckReport,
    Corpus,
    KurepaStep,
    KurepaTrace,
    build_atoms_lattice,
    build_chain_bundle,
    build_idemb_tower,
    check_acc,
    check_census,
    check_corollary_2_3_hypothesis,
    check_corollary_3_2,
    check_lemma_5_1,
    check_theorem_2_1,
    check_theorem_2_1_id,
    check_theorem_3_1,
    generate_corpus,
    kurepa_atoms_trace,
    kurepa_chain,
    run_suite,
)

__version__ = "0.1.0"

# The ordinal calculus is loaded on first use (PEP 562), so that importing
# the package for any other verb does not pay for it.
_ORDINALS = frozenset({
    "ordinals",
    "ChainDescriptor",
    "CnfOrdinal",
    "cnf_add",
    "cnf_mul",
    "cnf_parse",
    "cnf_str",
    "id_order_type",
    "product_has_cofinal_chain",
})


def __getattr__(name: str):
    if name in _ORDINALS:
        import importlib

        ordinals = importlib.import_module(".ordinals", __name__)
        return ordinals if name == "ordinals" else getattr(ordinals, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
