"""Machine checks of the concrete identities behind the quotient analysis.

Every case reconstructs its objects for a given rank n, runs an exact
computation (zero residual, exact rank, exact dimension count), and
returns a structured report.  Exchange-identity comparisons allow one
global sign per identity, which is recorded rather than silently fixed;
everything else is compared on the nose.
"""

from math import comb

from . import CASE_NAMES
from ._record import Record
from .invariant_ring import hilbert_series, normality_probe
from .lattice import IndexTuple, distinguished_w, top_element
from .plucker import (
    MinorTable,
    PluckerPolynomial,
    plucker_relation,
    random_schubert_point,
    restrict,
    sample_generator,
    straighten,
    value_at,
)
from .tableaux import Monomial, monomial_content, rows_are_standard


class VerificationReport(Record):
    __slots__ = ("name", "n", "status", "details", "seed")
    name: str
    n: int | None
    status: str  # "pass" | "fail"
    details: dict
    seed: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "status": self.status,
            "details": self.details,
            "seed": self.seed,
        }


class QuotientGenerators(Record):
    """The five degree-one invariants spanning R_1 on the big Schubert
    variety, and the two degree-two invariants that are not products,
    each as its monomial."""

    __slots__ = ("deg1", "deg2")
    deg1: tuple[Monomial, ...]
    deg2: tuple[Monomial, ...]


def _odds_upto(m: int) -> tuple[int, ...]:
    return tuple(range(1, m + 1, 2))


def _evens_upto(m: int) -> tuple[int, ...]:
    return tuple(range(2, m + 1, 2))


def _polynomial(rows: Monomial) -> PluckerPolynomial:
    """A monomial of G(r, 2r) as a polynomial."""
    return PluckerPolynomial.monomial(rows, 2 * len(rows[0]))


def build_generators(n: int) -> QuotientGenerators:
    """Instantiate the generator patterns at rank n (ambient SL(2n))."""
    if n < 3:
        raise ValueError("generators need n >= 3")
    n2 = 2 * n
    odd = _odds_upto(2 * n - 5)  # the first n-2 odd values
    even = _evens_upto(2 * n - 6)  # the first n-3 even values
    x_tails = [
        ((2 * n - 3, 2 * n - 1), (2 * n - 4, 2 * n - 2, 2 * n)),
        ((2 * n - 4, 2 * n - 1), (2 * n - 3, 2 * n - 2, 2 * n)),
        ((2 * n - 3, 2 * n - 2), (2 * n - 4, 2 * n - 1, 2 * n)),
        ((2 * n - 4, 2 * n - 2), (2 * n - 3, 2 * n - 1, 2 * n)),
        ((2 * n - 4, 2 * n - 3), (2 * n - 2, 2 * n - 1, 2 * n)),
    ]
    deg1 = tuple((odd + top_tail, even + bot_tail) for top_tail, bot_tail in x_tails)
    deg2 = (
        (
            odd + (2 * n - 4, 2 * n - 3),
            odd + (2 * n - 2, 2 * n - 1),
            even + (2 * n - 4, 2 * n - 2, 2 * n),
            even + (2 * n - 3, 2 * n - 1, 2 * n),
        ),
        (
            odd + (2 * n - 4, 2 * n - 2),
            odd + (2 * n - 3, 2 * n - 1),
            even + (2 * n - 4, 2 * n - 3, 2 * n),
            even + (2 * n - 2, 2 * n - 1, 2 * n),
        ),
    )
    w5 = distinguished_w(5, n)
    # rows of length n, standard below w5 (so in canonical order), every
    # value k times in degree k
    for k, gens in ((1, deg1), (2, deg2)):
        for rows in gens:
            if not (
                len(rows) == 2 * k
                and all(len(row) == n for row in rows)
                and rows_are_standard(rows, w5.values)
                and monomial_content(rows, n2) == (k,) * n2
            ):
                raise RuntimeError(f"degree-{k} generator {rows} failed its checks; bug")
    return QuotientGenerators(deg1=deg1, deg2=deg2)


def nonstandard_degree_one_product(n: int) -> Monomial:
    """The non-standard degree-one monomial whose straightening is the
    alternating sum of the five generators (identity (*))."""
    return (
        _odds_upto(2 * n - 5) + (2 * n - 2, 2 * n - 1),
        _evens_upto(2 * n - 6) + (2 * n - 4, 2 * n - 3, 2 * n),
    )


# -- exchange identity data ---------------------------------------------

# For each identity: the two extra entries appended to the odd prefix of
# the (r-1)-set, the four extra entries appended to the even prefix of
# the (r+1)-set, and the four displayed signed terms, each given by the
# tail pair (first-factor tail after the odd prefix, second-factor tail
# after the even prefix).
_EXCHANGE_CASES = {
    "A1": {
        "i_extra": (-5, -4),
        "j_extra": (-3, -2, -1, 0),
        "terms": [
            (1, (-5, -4, -3), (-2, -1, 0)),
            (-1, (-5, -4, -2), (-3, -1, 0)),
            (1, (-5, -4, -1), (-3, -2, 0)),
            (-1, (-5, -4, 0), (-3, -2, -1)),
        ],
    },
    "A2": {
        "i_extra": (-5, -3),
        "j_extra": (-4, -2, -1, 0),
        "terms": [
            (1, (-5, -4, -3), (-2, -1, 0)),
            (1, (-5, -3, -2), (-4, -1, 0)),
            (-1, (-5, -3, -1), (-4, -2, 0)),
            (1, (-5, -3, 0), (-4, -2, -1)),
        ],
    },
    "A3": {
        "i_extra": (-5, -2),
        "j_extra": (-4, -3, -1, 0),
        "terms": [
            (1, (-5, -4, -2), (-3, -1, 0)),
            (-1, (-5, -3, -2), (-4, -1, 0)),
            (-1, (-5, -2, -1), (-4, -3, 0)),
            (1, (-5, -2, 0), (-4, -3, -1)),
        ],
    },
    "A4": {
        "i_extra": (-5, -1),
        "j_extra": (-4, -3, -2, 0),
        "terms": [
            (1, (-5, -4, -1), (-3, -2, 0)),
            (-1, (-5, -3, -1), (-4, -2, 0)),
            (1, (-5, -2, -1), (-4, -3, 0)),
            (1, (-5, -1, 0), (-4, -3, -2)),
        ],
    },
    "A5": {
        "i_extra": (-5, 0),
        "j_extra": (-4, -3, -2, -1),
        "terms": [
            (1, (-5, -4, 0), (-3, -2, -1)),
            (-1, (-5, -3, 0), (-4, -2, -1)),
            (1, (-5, -2, 0), (-4, -3, -1)),
            (-1, (-5, -1, 0), (-4, -3, -2)),
        ],
    },
}


def exchange_instance(label: str, n: int) -> tuple[PluckerPolynomial, PluckerPolynomial]:
    """(relation restricted to X(w5), displayed four-term identity) for one label."""
    case = _EXCHANGE_CASES[label]
    base = 2 * n
    odd = _odds_upto(2 * n - 7)
    even = _evens_upto(2 * n - 6)
    i_set = odd + tuple(base + d for d in case["i_extra"])
    j_set = even + tuple(base + d for d in case["j_extra"])
    relation = plucker_relation(i_set, j_set, n, 2 * n)
    restricted = restrict(relation, distinguished_w(5, n))
    display = PluckerPolynomial.zero(n, 2 * n)
    for sign, first_tail, second_tail in case["terms"]:
        rows = (
            odd + tuple(base + d for d in first_tail),
            even + tuple(base + d for d in second_tail),
        )
        display = display + PluckerPolynomial.monomial(rows, 2 * n, sign)
    return restricted, display


def generator_combination(gens: QuotientGenerators, coeffs) -> PluckerPolynomial:
    r = len(gens.deg1[0][0])
    out = PluckerPolynomial.zero(r, 2 * r)
    for c, rows in zip(coeffs, gens.deg1):
        out = out + _polynomial(rows) * c
    return out


# -- verification cases --------------------------------------------------


def verify_product_relation(n: int, seed: int = 0) -> VerificationReport:
    """The degree-two identity among the generators, checked two ways:
    as a zero residual after straightening, and by exact evaluation
    agreement on 100 points of the cone over X(w5)."""
    if n < 3:
        raise ValueError("need n >= 3")
    gens = build_generators(n)
    w5 = distinguished_w(5, n)
    x = [_polynomial(rows) for rows in gens.deg1]
    y = [_polynomial(rows) for rows in gens.deg2]
    lhs = x[1] * x[2]
    rhs = x[0] * x[3] - y[1] - y[0] + x[4] * (x[0] - x[1] - x[2] + x[3] - x[4])
    difference = lhs - rhs
    residual = straighten(difference, w5, seed=seed)
    rng = sample_generator(w5, f"{seed}:relation")
    points = [MinorTable(random_schubert_point(w5, rng)) for _ in range(100)]
    # evaluation is linear, so lhs and rhs agree at a point iff their
    # difference vanishes there; one evaluation computes each minor once
    eval_ok = all(value_at(difference, m) == 0 for m in points)
    ok = residual.is_zero() and eval_ok
    return VerificationReport(
        name="product-relation",
        n=n,
        status="pass" if ok else "fail",
        details={
            "residual_terms": len(residual.terms),
            "residual": str(residual),
            "evaluation_points": len(points),
            "evaluations_agree": eval_ok,
        },
        seed=seed,
    )


def verify_exchange_identities(n: int, seed: int = 0) -> VerificationReport:
    """The five exchange identities on X(w5), each up to one recorded
    global sign, plus the straightening of the non-standard degree-one
    product into the alternating generator sum."""
    if n < 3:
        raise ValueError("need n >= 3")
    gens = build_generators(n)
    w5 = distinguished_w(5, n)
    details: dict = {"identities": {}}
    ok = True
    for label in sorted(_EXCHANGE_CASES):
        restricted, display = exchange_instance(label, n)
        if restricted == display:
            sign = 1
        elif restricted == -display:
            sign = -1
        else:
            sign = 0
        matched = sign != 0
        ok = ok and matched
        details["identities"][label] = {
            "matched": matched,
            "global_sign": sign,
            "restricted_terms": len(restricted.terms),
            "residual": "" if matched else str(restricted - display),
        }
    z = _polynomial(nonstandard_degree_one_product(n))
    expected = generator_combination(gens, (1, -1, -1, 1, -1))
    z_straightened = straighten(z, w5, seed=seed)
    star_ok = z_straightened == expected
    ok = ok and star_ok
    details["star"] = {
        "matched": star_ok,
        "straightened": str(z_straightened),
        "residual": "" if star_ok else str(z_straightened - expected),
    }
    return VerificationReport(
        name="exchange-identities",
        n=n,
        status="pass" if ok else "fail",
        details=details,
        seed=seed,
    )


def verify_non_normality(n: int, seed: int = 0) -> VerificationReport:
    """Degree-one products do not span the degree-two invariants on X(w5)
    for n >= 3, with the two degree-two generators as witnesses.  At
    n = 2 the probe runs on all of G(2, 4) and must report spanned,
    matching the known projectively normal minimal case."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n == 2:
        report = normality_probe(top_element(2, 4), 2, seed=seed)
        ok = report.spanned
        return VerificationReport(
            name="non-normality",
            n=n,
            status="pass" if ok else "fail",
            details={
                "probe": report.to_dict(),
                "consistent_with_minimal_case": ok,
            },
            seed=seed,
        )
    gens = build_generators(n)
    report = normality_probe(distinguished_w(5, n), 2, seed=seed)
    witness_rows = set(report.cokernel_witnesses)
    expected_rows = set(gens.deg2)
    ok = (not report.spanned) and expected_rows <= witness_rows
    return VerificationReport(
        name="non-normality",
        n=n,
        status="pass" if ok else "fail",
        details={
            "probe": report.to_dict(),
            "expected_witnesses_found": expected_rows <= witness_rows,
        },
        seed=seed,
    )


def _expected_series(slot: int, k_max: int) -> list[int]:
    if slot == 1:
        return [1] * k_max
    if slot in (2, 3):
        return [k + 1 for k in range(1, k_max + 1)]
    return [comb(k + 3, 3) for k in range(1, k_max + 1)]


def _check_quotient_dimensions(
    ws: list[IndexTuple], n: int, k_max: int
) -> tuple[bool, dict]:
    """Series and vanishing checks for the four small quotients; split out
    so fault-injection tests can pass a perturbed slot list."""
    gens = build_generators(n)
    y2 = _polynomial(gens.deg2[1])
    details: dict = {"slots": {}}
    ok = True
    for slot, w in enumerate(ws, start=1):
        series = hilbert_series(w, k_max)
        expected = _expected_series(slot, k_max)
        mismatch = next(
            (k for k, (a, b) in enumerate(zip(series, expected), start=1) if a != b),
            None,
        )
        vanishes = restrict(y2, w).is_zero()
        details["slots"][slot] = {
            "w": list(w.values),
            "series": series,
            "expected": expected,
            "first_mismatch_degree": mismatch,
            "deg2_witness_restricts_to_zero": vanishes,
        }
        ok = ok and mismatch is None and vanishes
    return ok, details


def verify_quotient_dimensions(n: int, k_max: int = 3, seed: int = 0) -> VerificationReport:
    """Hilbert data of the four small quotients (point, two lines, one
    3-space, all under their degree-one embeddings) and the vanishing of
    the second degree-two generator on each of them."""
    if n < 3:
        raise ValueError("need n >= 3")
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    ws = [distinguished_w(i, n) for i in (1, 2, 3, 4)]
    ok, details = _check_quotient_dimensions(ws, n, k_max)
    return VerificationReport(
        name="quotient-dimensions",
        n=n,
        status="pass" if ok else "fail",
        details=details,
        seed=seed,
    )


def verify_minimal_cases(seed: int = 0) -> VerificationReport:
    """The two rank-two sanity cases: invariants on G(1, 2) stay one
    dimensional, invariants on G(2, 4) grow like k + 1."""
    details: dict = {}
    ok = True
    dims_12 = hilbert_series(top_element(1, 2), 4)
    details["G(1,2)"] = {"series": dims_12, "expected": [1, 1, 1, 1]}
    ok = ok and dims_12 == [1, 1, 1, 1]
    dims_24 = hilbert_series(top_element(2, 4), 4)
    details["G(2,4)"] = {"series": dims_24, "expected": [2, 3, 4, 5]}
    ok = ok and dims_24 == [2, 3, 4, 5]
    return VerificationReport(
        name="minimal-cases",
        n=None,
        status="pass" if ok else "fail",
        details=details,
        seed=seed,
    )


# -- case registry for the CLI -------------------------------------------


def run_cases(case: str, n: int, seed: int = 0, k_max: int = 3) -> list[VerificationReport]:
    """Run one named case or all of them, in canonical order.  Every case
    rejects n < 2, and all but `theorem` and `remarks` (so `all`) n = 2."""
    jobs = {
        "lemma": lambda: verify_product_relation(n, seed=seed),
        "appendix": lambda: verify_exchange_identities(n, seed=seed),
        "theorem": lambda: verify_non_normality(n, seed=seed),
        "proposition": lambda: verify_quotient_dimensions(n, k_max=k_max, seed=seed),
        "remarks": lambda: verify_minimal_cases(seed=seed),
    }
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if case == "all":
        selected = list(CASE_NAMES)
    elif case in jobs:
        selected = [case]
    else:
        raise ValueError(f"unknown case {case!r}")
    return [jobs[name]() for name in selected]
