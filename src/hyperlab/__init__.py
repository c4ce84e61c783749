"""Finite commutative Krasner (m,n)-hyperrings: axiom checking, hyperideal
enumeration, prime-type predicates, and an executable statement suite."""

import types

from .axioms import (
    AXIOM_ORDER,
    AxiomViolation,
    check_canonical_hypergroup,
    check_krasner,
    iterate_f,
    iterate_g,
    replay,
)
from .constructions import (
    Fixture,
    Homomorphism,
    crt_homomorphism,
    fixture,
    identity_homomorphism,
    inclusion,
    preimage_ideal,
    product,
    product_ideal,
    substructure,
)
from .core import MAX_CARRIER, ElementSet, HyperStructure, inverse_candidates
from .errors import (
    ArityError,
    CapacityError,
    DisjointnessViolated,
    EmptyArgumentError,
    HyperlabError,
    IdentityRequired,
    LoadError,
    NotAnIdeal,
    NotMultiplicative,
    NotProper,
    TableError,
    UnknownElementError,
    UnknownFixtureError,
)
from .files import (
    deserialize,
    document_to_structure,
    dump_structure,
    load_structure,
    serialize,
    structure_to_document,
)
from .harness import (
    COUNTEREXAMPLE,
    DEFAULT_CORPUS,
    PROPERTY_IDS,
    SKIPPED,
    VERIFIED,
    Instance,
    PropertyReport,
    StructureContext,
    build_context,
    build_corpus,
    generate_instances,
    render_report_lines,
    reports_to_json,
    run_property,
    run_suite,
    search_separating_instances,
    summarize,
)
from .ideals import (
    IdealLattice,
    colon,
    colon_zero,
    enumerate_hyperideals,
    generated_hyperideal,
    is_hyperideal,
    radical,
    radical_membership,
    scaled,
    scaled_set,
    set_product,
)
from .predicates import (
    CLASSIFY_KEYS,
    IMPLICATION_CHAIN,
    chain_violations,
    classify,
    evaluate_predicate,
    is_hyperintegral_domain,
    is_multiplicative,
    is_primary,
    is_prime,
    is_s_prime,
    is_strongly_weakly_s_prime,
    is_strongly_weakly_s_prime_colon,
    is_weakly_prime,
    is_weakly_s_prime,
    multiplicative_subsets,
    strongly_associated,
)
from .verdict import Verdict

__version__ = "0.1.0"

# every public name imported above, sorted: the imports are the one list
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
