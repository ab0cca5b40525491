"""Exact standard-monomial computations on Grassmannian Schubert
varieties and their torus quotients.

The modules that every CLI command runs are imported here; the names of
`invariant_ring` and `verifier` are loaded on first use (PEP 562), so a
command that runs neither does not compile them.
"""

import importlib

from .lattice import (
    IndexTuple,
    WeightVector,
    apply_coset_to_weight,
    distinguished_w,
    fundamental_weight_multiple,
    is_dominance_nonpositive,
    leq_componentwise,
    line_bundle_descends,
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
)

__version__ = "0.1.0"

# the verification cases, in canonical order: `cli` offers them without
# loading `verifier`, and `verifier.run_cases` runs them
CASE_NAMES = ("lemma", "appendix", "theorem", "proposition", "remarks")

_LAZY = {
    **dict.fromkeys(
        (
            "BasisMismatchError",
            "GenerationReport",
            "GradedPieceBasis",
            "NormalityReport",
            "SemistableReport",
            "generation_degree_probe",
            "hilbert_series",
            "invariant_basis",
            "multiply_to_coordinates",
            "normality_probe",
            "semistable_nonempty",
        ),
        "invariant_ring",
    ),
    **dict.fromkeys(
        (
            "QuotientGenerators",
            "VerificationReport",
            "build_generators",
            "nonstandard_degree_one_product",
            "run_cases",
            "verify_exchange_identities",
            "verify_minimal_cases",
            "verify_non_normality",
            "verify_product_relation",
            "verify_quotient_dimensions",
        ),
        "verifier",
    ),
}

# the names bound above, without the submodules, and the lazy names
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(importlib))
] + list(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
