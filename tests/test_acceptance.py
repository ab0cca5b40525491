"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time and asserting the stated runtime budget.

All comparisons are exact (integer/rational arithmetic throughout).
"""

import itertools
import random
import time
from contextlib import contextmanager


from schubert_smt.invariant_ring import (
    generation_degree_probe,
    hilbert_series,
    invariant_basis,
    normality_probe,
)
from schubert_smt.lattice import distinguished_w, leq_componentwise, minimal_semistable_w, top_element
from schubert_smt.plucker import (
    PluckerPolynomial,
    _interpolation_cell,
    evaluate,
    plucker_relation,
    random_point,
    restrict,
    straighten,
)
from schubert_smt.tableaux import monomial_content, rows_are_standard
from schubert_smt.verifier import (
    _check_quotient_dimensions,
    build_generators,
    verify_exchange_identities,
    verify_product_relation,
)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else "PASS"
        print(f"{status} criterion {number}: {description} ({elapsed:.2f}s)")
        if failed is None:
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
            )


def test_criterion_01_degree_one_basis():
    with criterion(1, "degree-one invariant basis is the five generators, n=3..5", 3.0):
        for n in (3, 4, 5):
            start = time.perf_counter()
            basis = invariant_basis(distinguished_w(5, n), 1)
            assert len(basis) == 5
            assert set(basis) == set(build_generators(n).deg1)
            assert time.perf_counter() - start < 1.0


def test_criterion_02_product_relation():
    with criterion(2, "degree-two product relation has zero residual, n=3..5", 30.0):
        for n in (3, 4, 5):
            start = time.perf_counter()
            report = verify_product_relation(n)
            assert report.passed, report.details
            assert report.details["residual_terms"] == 0
            elapsed = time.perf_counter() - start
            if n == 5:
                assert elapsed < 10.0


def test_criterion_03_non_normality():
    with criterion(3, "degree-one products never span degree two on the big variety", 90.0):
        for n in (3, 4, 5):
            start = time.perf_counter()
            report = normality_probe(distinguished_w(5, n), 2)
            assert not report.spanned
            witness_rows = set(report.cokernel_witnesses)
            expected = set(build_generators(n).deg2)
            assert expected <= witness_rows
            # regression-pinned after first computation: the product span
            # misses exactly one dimension, with both degree-two
            # generators outside it
            assert report.dim_graded_piece == 16
            assert report.dim_lower_products == 15
            assert report.cokernel_dim == 1
            assert witness_rows == expected
            elapsed = time.perf_counter() - start
            if n == 5:
                assert elapsed < 30.0


def test_criterion_04_quotient_hilbert_data():
    with criterion(4, "small-quotient Hilbert data and witness vanishing, n=3,4", 5.0):
        expected = {1: [1, 1, 1], 2: [2, 3, 4], 3: [2, 3, 4], 4: [4, 10, 20]}
        for n in (3, 4):
            gens = build_generators(n)
            y2 = PluckerPolynomial.monomial(gens.deg2[1], 2 * n)
            for i in (1, 2, 3, 4):
                w = distinguished_w(i, n)
                assert hilbert_series(w, 3) == expected[i]
                assert restrict(y2, w).is_zero()


def test_criterion_05_generation_in_degree_two():
    budget = 60.0
    label = "graded pieces are generated in degree two (n=3, d=3..4; n=4, d=3)"
    with criterion(5, label, budget):
        reports = generation_degree_probe(distinguished_w(5, 3), 4)
        assert [r.degree for r in reports] == [3, 4]
        assert all(r.spanned for r in reports)
        reports = generation_degree_probe(distinguished_w(5, 4), 3)
        assert all(r.spanned for r in reports)


def test_criterion_06_exchange_identity_suite():
    with criterion(6, "exchange identities and the alternating-sum straightening, n=3,4", 5.0):
        for n in (3, 4):
            report = verify_exchange_identities(n)
            assert report.passed, report.details
            for label, d in report.details["identities"].items():
                assert d["matched"], (n, label)
                assert d["global_sign"] in (1, -1)
            assert report.details["star"]["matched"]


def test_criterion_07_minimal_semistable():
    with criterion(7, "unique minimal semistable representative, n=2..5", 1.0):
        for n in (2, 3, 4, 5):
            w, hits = minimal_semistable_w(n)
            assert w.values == tuple(range(2, 2 * n + 1, 2))
            assert all(leq_componentwise(w, h) for h in hits)


def test_criterion_08_rank_two_cases():
    with criterion(8, "invariant dimensions in the two rank-two cases, k<=4", 1.0):
        assert hilbert_series(top_element(1, 2), 4) == [1, 1, 1, 1]
        assert hilbert_series(top_element(2, 4), 4) == [2, 3, 4, 5]


def test_criterion_09_oracle_property_suite():
    with criterion(9, "determinant-oracle property suite", 120.0):
        # (a) 200 random exchange relations vanish on 100 random matrices
        for r, n, tag in ((2, 5, "a25"), (3, 6, "a36")):
            rng = random.Random(f"suite:{tag}")
            matrices = [random_point(r, n, f"{tag}:{i}") for i in range(100)]
            pool = list(range(1, n + 1))
            for _ in range(100):
                i_set = tuple(sorted(rng.sample(pool, r - 1)))
                j_set = tuple(sorted(rng.sample(pool, r + 1)))
                rel = plucker_relation(i_set, j_set, r, n)
                assert all(evaluate(rel, m) == 0 for m in matrices)

        # (b) straightening agrees with the input on 100 held-out points
        # for 200 random monomials of degree <= 3
        rng = random.Random("suite:b")
        rows_pool = list(itertools.combinations(range(1, 7), 3))
        holdout = [random_point(3, 6, f"holdout:{i}") for i in range(100)]
        cells_used = set()
        for _ in range(200):
            degree = rng.randint(1, 3)
            rows = tuple(sorted(rng.choice(rows_pool) for _ in range(degree)))
            f = PluckerPolynomial.monomial(rows, 6)
            g = straighten(f)
            assert all(rows_are_standard(t) for t in g.terms)
            assert all(evaluate(g, m) == evaluate(f, m) for m in holdout)
            cells_used.add((degree, monomial_content(rows, 6)))

        # (c) every interpolation cell that was exercised reached full
        # column rank; straighten without a bound samples X(top)
        for degree, cont in cells_used:
            cell = _interpolation_cell(top_element(3, 6), cont, 0)
            assert cell.basis and cell.solver.ok


def test_criterion_10_falsifiability():
    with criterion(10, "injected faults are detected", 5.0):
        # sign flip in the product relation leaves a residual of twice
        # the first degree-two witness
        gens = build_generators(3)
        w5 = distinguished_w(5, 3)
        x = [PluckerPolynomial.monomial(rows, 6) for rows in gens.deg1]
        y = [PluckerPolynomial.monomial(rows, 6) for rows in gens.deg2]
        lhs = x[1] * x[2]
        rhs_flipped = (
            x[0] * x[3] - y[1] + y[0] + x[4] * (x[0] - x[1] - x[2] + x[3] - x[4])
        )
        residual = straighten(lhs - rhs_flipped, w5)
        assert not residual.is_zero()
        assert residual == -2 * y[0]

        # the big representative in the fourth slot fails at degree one
        ws = [distinguished_w(i, 3) for i in (1, 2, 3)] + [distinguished_w(5, 3)]
        ok, details = _check_quotient_dimensions(ws, 3, 3)
        assert not ok
        assert details["slots"][4]["first_mismatch_degree"] == 1
