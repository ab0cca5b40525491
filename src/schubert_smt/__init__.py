"""Exact standard-monomial computations on Grassmannian Schubert
varieties and their torus quotients."""

from .lattice import (
    IndexTuple,
    WeightVector,
    apply_coset_to_weight,
    distinguished_w,
    fundamental_weight_multiple,
    is_dominance_nonpositive,
    leq_componentwise,
    line_bundle_descends,
    make_index_tuple,
    minimal_semistable_w,
    top_element,
)
from .tableaux import (
    count_standard,
    enumerate_standard,
    monomial_content,
    rows_are_standard,
)
from .plucker import (
    PluckerPolynomial,
    RankDeficientError,
    StraighteningError,
    evaluate,
    normalize_index,
    plucker_relation,
    random_point,
    random_schubert_point,
    restrict,
    sample_generator,
    straighten,
    two_row_exchange,
)
from .invariant_ring import (
    BasisMismatchError,
    GenerationReport,
    GradedPieceBasis,
    NormalityReport,
    SemistableReport,
    generation_degree_probe,
    hilbert_series,
    invariant_basis,
    multiply_to_coordinates,
    normality_probe,
    semistable_nonempty,
)
from .verifier import (
    QuotientGenerators,
    VerificationReport,
    build_generators,
    nonstandard_degree_one_product,
    run_cases,
    verify_exchange_identities,
    verify_minimal_cases,
    verify_non_normality,
    verify_product_relation,
    verify_quotient_dimensions,
)

__version__ = "0.1.0"
