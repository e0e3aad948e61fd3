"""Exact arithmetic toolkit for comparing unitary-group lattices over CM fields.

The package follows one pipeline: describe a totally real field and a
totally imaginary quadratic extension of it, hand in two rank-odd Hermitian
forms, and receive a verdict on whether the associated arithmetic quotients
can be told apart by cheap invariants.  Every computation is exact over the
rationals; anything the exact engines cannot decide is reported as UNKNOWN
rather than guessed.
"""

from .certificates import (
    CertificateFormatError,
    CertificateVersionError,
    canonical_json,
    content_hash,
    diff_paths,
    exact,
    load_certificate,
    parse_exact,
    rebuild_index,
    write_certificate,
)
from .errors import (
    BudgetExceededError,
    InconclusiveError,
    InvalidInputError,
    LatcertError,
    UnsupportedPlaceError,
)
from .finite_groups import (
    DEFAULT_ENUMERATION_BUDGET,
    FiniteGroupSpec,
    congruence_index,
    enumerate_group,
    group_order,
)
from .hermitian import (
    HermitianForm,
    SeedVerdict,
    forms_equivalent,
    group_isomorphism_verdict,
    indefinite_places,
    seed_pair_check,
    signature_pattern,
    twist_pattern,
)
from .local import (
    CMExtension,
    FinitePlace,
    factor_prime,
    hilbert_product_check,
    local_norm_test,
    relevant_primes,
    splitting_in_E,
)
from .number_field import FieldElement, GaloisClosure, NumberField, automorphism_count
from .polynomials import (
    Polynomial,
    discriminant,
    has_only_simple_real_roots,
    is_irreducible,
    isolate_real_roots,
)
from .runner import (
    SeedInput,
    build_certificate,
    load_example_fixture,
    parse_seed_input,
    run_paper_example,
    seed_echo,
    verify_certificate,
    verify_payload,
)
from .search import SearchConfig, candidate_polynomials, field_candidates, search_seeds
from .volume_fingerprint import (
    fingerprint,
    level_id_for,
    relative_extension_id,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CMExtension",
    "CertificateFormatError",
    "CertificateVersionError",
    "DEFAULT_ENUMERATION_BUDGET",
    "FieldElement",
    "FinitePlace",
    "FiniteGroupSpec",
    "GaloisClosure",
    "HermitianForm",
    "InconclusiveError",
    "InvalidInputError",
    "LatcertError",
    "NumberField",
    "Polynomial",
    "SearchConfig",
    "SeedInput",
    "SeedVerdict",
    "UnsupportedPlaceError",
    "automorphism_count",
    "build_certificate",
    "canonical_json",
    "candidate_polynomials",
    "congruence_index",
    "content_hash",
    "diff_paths",
    "discriminant",
    "enumerate_group",
    "exact",
    "factor_prime",
    "field_candidates",
    "fingerprint",
    "forms_equivalent",
    "group_isomorphism_verdict",
    "group_order",
    "has_only_simple_real_roots",
    "hilbert_product_check",
    "indefinite_places",
    "is_irreducible",
    "isolate_real_roots",
    "level_id_for",
    "load_certificate",
    "load_example_fixture",
    "local_norm_test",
    "parse_exact",
    "parse_seed_input",
    "rebuild_index",
    "relative_extension_id",
    "relevant_primes",
    "run_paper_example",
    "search_seeds",
    "seed_echo",
    "seed_pair_check",
    "signature_pattern",
    "splitting_in_E",
    "twist_pattern",
    "verify_certificate",
    "verify_payload",
    "write_certificate",
]
