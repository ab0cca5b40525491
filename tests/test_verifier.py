import json
from pathlib import Path

import pytest

from schubert_smt import invariant_ring, plucker
from schubert_smt.invariant_ring import invariant_basis
from schubert_smt.lattice import distinguished_w
from schubert_smt.plucker import PluckerPolynomial, restrict, straighten
from schubert_smt.tableaux import (
    count_standard,
    enumerate_standard,
    monomial_content,
    rows_are_standard,
)
from schubert_smt.verifier import (
    _check_quotient_dimensions,
    build_generators,
    exchange_instance,
    generator_combination,
    nonstandard_degree_one_product,
    run_cases,
    verify_exchange_identities,
    verify_minimal_cases,
    verify_non_normality,
    verify_product_relation,
    verify_quotient_dimensions,
)


FIXTURES = Path(__file__).resolve().parent / "fixtures"


def load_fixture(n):
    return json.loads((FIXTURES / f"generators_n{n}.json").read_text(encoding="utf-8"))


class TestBuildGenerators:
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_golden_fixture(self, n):
        fixture = load_fixture(n)
        gens = build_generators(n)
        assert [[list(row) for row in rows] for rows in gens.deg1] == fixture["deg1"]
        assert [[list(row) for row in rows] for rows in gens.deg2] == fixture["deg2"]
        assert [
            list(row) for row in nonstandard_degree_one_product(n)
        ] == fixture["nonstandard_product"]
        for i in range(1, 6):
            assert list(distinguished_w(i, n).values) == fixture["w"][f"w{i}"]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_generators_well_formed(self, n):
        gens = build_generators(n)
        w5 = distinguished_w(5, n)
        for k, gens_k in ((1, gens.deg1), (2, gens.deg2)):
            for rows in gens_k:
                assert rows_are_standard(rows, w5.values)
                assert monomial_content(rows, 2 * n) == (k,) * (2 * n)
                assert len(rows) == 2 * k and {len(row) for row in rows} == {n}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_degree_one_generators_span_the_first_piece(self, n):
        basis = invariant_basis(distinguished_w(5, n), 1)
        assert set(basis) == set(build_generators(n).deg1)

    def test_rejects_small_rank(self):
        with pytest.raises(ValueError):
            build_generators(2)

    def test_stable_across_calls(self):
        assert build_generators(3) == build_generators(3)


class TestProductRelation:
    @pytest.mark.parametrize("n", [3, 4])
    def test_passes(self, n):
        report = verify_product_relation(n)
        assert report.passed
        assert report.details["residual_terms"] == 0
        assert report.details["evaluations_agree"]

    def test_sign_flip_fault_is_detected(self):
        # flipping the sign of the first degree-two witness leaves a
        # residual of exactly twice that witness
        gens = build_generators(3)
        w5 = distinguished_w(5, 3)
        x = [PluckerPolynomial.monomial(rows, 6) for rows in gens.deg1]
        y = [PluckerPolynomial.monomial(rows, 6) for rows in gens.deg2]
        lhs = x[1] * x[2]
        good_rhs = x[0] * x[3] - y[1] - y[0] + x[4] * (x[0] - x[1] - x[2] + x[3] - x[4])
        bad_rhs = good_rhs + 2 * y[0]  # i.e. the y[0] term now enters with +1
        residual = straighten(lhs - bad_rhs, w5)
        assert residual == -2 * y[0]
        assert not residual.is_zero()


class TestExchangeIdentities:
    @pytest.mark.parametrize("n", [3, 4])
    def test_passes_with_recorded_signs(self, n):
        report = verify_exchange_identities(n)
        assert report.passed
        signs = {
            label: d["global_sign"] for label, d in report.details["identities"].items()
        }
        # regression-pinned after first computation; the sign flips with
        # the parity of the even prefix length
        expected = (
            {"A1": -1, "A2": 1, "A3": 1, "A4": 1, "A5": 1}
            if n % 2 == 1
            else {"A1": 1, "A2": -1, "A3": -1, "A4": -1, "A5": -1}
        )
        assert signs == expected
        assert report.details["star"]["matched"]

    @pytest.mark.parametrize("n", [3, 4])
    def test_each_restricted_relation_has_four_terms(self, n):
        report = verify_exchange_identities(n)
        for label, d in report.details["identities"].items():
            assert d["restricted_terms"] == 4, label

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_star_straightening(self, n):
        gens = build_generators(n)
        z = PluckerPolynomial.monomial(nonstandard_degree_one_product(n), 2 * n)
        expected = generator_combination(gens, (1, -1, -1, 1, -1))
        assert straighten(z, distinguished_w(5, n)) == expected

    def test_display_terms_are_bounded(self):
        # the displayed identities live on the fifth Schubert variety, so
        # every displayed row must survive restriction
        for n in (3, 4):
            w5 = distinguished_w(5, n)
            for label in ("A1", "A2", "A3", "A4", "A5"):
                _, display = exchange_instance(label, n)
                assert restrict(display, w5) == display


class TestNonNormality:
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_obstructed_at_small_ranks(self, n):
        report = verify_non_normality(n)
        assert report.passed
        probe = report.details["probe"]
        assert not probe["spanned"]
        assert probe["cokernel_dim"] == 1
        assert probe["dim_graded_piece"] == 16
        assert probe["dim_lower_products"] == 15
        witnesses = {
            tuple(tuple(row) for row in t) for t in probe["cokernel_witnesses"]
        }
        assert witnesses == set(build_generators(n).deg2)

    def test_rank_two_case_is_spanned(self):
        report = verify_non_normality(2)
        assert report.passed
        assert report.details["probe"]["spanned"]
        assert report.details["consistent_with_minimal_case"]


class TestQuotientDimensions:
    def test_passes_at_rank_three(self):
        report = verify_quotient_dimensions(3)
        assert report.passed
        for slot, d in report.details["slots"].items():
            assert d["first_mismatch_degree"] is None
            assert d["deg2_witness_restricts_to_zero"]

    def test_passes_at_rank_four(self):
        assert verify_quotient_dimensions(4, k_max=2).passed

    def test_passes_at_rank_six(self):
        report = verify_quotient_dimensions(6)
        assert report.passed
        series = [d["series"] for d in report.details["slots"].values()]
        assert series == [[1, 1, 1], [2, 3, 4], [2, 3, 4], [4, 10, 20]]

    def test_wrong_slot_fault_fails_at_degree_one(self):
        ws = [distinguished_w(i, 3) for i in (1, 2, 3)] + [distinguished_w(5, 3)]
        ok, details = _check_quotient_dimensions(ws, 3, 3)
        assert not ok
        assert details["slots"][4]["first_mismatch_degree"] == 1
        assert details["slots"][4]["series"][0] == 5  # dim 5, expected 4


class TestMinimalCases:
    def test_passes(self):
        report = verify_minimal_cases()
        assert report.passed
        assert report.details["G(1,2)"]["series"] == [1, 1, 1, 1]
        assert report.details["G(2,4)"]["series"] == [2, 3, 4, 5]


class TestRunCases:
    def test_all_cases_pass_at_rank_three(self):
        reports = run_cases("all", 3)
        assert [r.name for r in reports] == [
            "product-relation",
            "exchange-identities",
            "non-normality",
            "quotient-dimensions",
            "minimal-cases",
        ]
        assert all(r.passed for r in reports)

    def test_single_case(self):
        reports = run_cases("remarks", 3)
        assert len(reports) == 1 and reports[0].name == "minimal-cases"

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            run_cases("nonsense", 3)

    def test_deterministic_given_seed(self):
        a = [r.to_dict() for r in run_cases("all", 3, seed=7)]
        b = [r.to_dict() for r in run_cases("all", 3, seed=7)]
        assert a == b

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_all_cases_pass_on_twenty_seeds(self, n):
        # no answer may rest on a lucky sample: a cell reads points of its
        # stream until its rows reach rank B
        for seed in range(1, 21):
            assert all(r.passed for r in run_cases("all", n, seed=seed)), seed

    @pytest.mark.parametrize("n", [5, 7])
    def test_each_interpolation_cell_is_built_once(self, n):
        # the cases share the cell, stream and basis caches; run in order,
        # no two of them can miss on the same key and both build its value,
        # and nothing is evicted and built again.  At n = 7 one call builds
        # 2 cells on one stream of 51 points and draws the lemma's 100
        # points from a second stream, so the cache bounds must hold a
        # whole call.
        caches = (plucker._interpolation_cell, plucker._stream, plucker._standard_basis)
        for cache in caches:
            cache.cache_clear()
        try:
            run_cases("all", n)
            for cache in caches:
                info = cache.cache_info()
                assert info.misses == info.currsize
        finally:
            for cache in caches:
                cache.cache_clear()

    @pytest.mark.parametrize("n", [3, 5])
    def test_each_basis_is_enumerated_once(self, n, monkeypatch):
        # invariant_basis reads the standard-basis cache that straightening
        # fills, and hilbert_series counts without listing, so no (w, k)
        # basis is built twice in one call: the theorem's two bases are
        # enumerated, the twenty Hilbert-function entries only counted
        enumerated, counted = [], []

        def recording(calls, fn):
            def record(*args, **kwargs):
                calls.append((args, tuple(sorted(kwargs.items()))))
                return fn(*args, **kwargs)
            return record

        monkeypatch.setattr(plucker, "enumerate_standard", recording(enumerated, enumerate_standard))
        monkeypatch.setattr(invariant_ring, "count_standard", recording(counted, count_standard))
        caches = (plucker._interpolation_cell, plucker._stream, plucker._standard_basis)
        for cache in caches:
            cache.cache_clear()
        try:
            run_cases("all", n)
        finally:
            for cache in caches:
                cache.cache_clear()
        assert len(enumerated) == len(set(enumerated)) == 2
        assert len(counted) == len(set(counted)) == 20
