import itertools
import os
from fractions import Fraction
from math import comb

import pytest

from schubert_smt import invariant_ring, linalg, plucker
from schubert_smt.invariant_ring import (
    BasisMismatchError,
    generation_degree_probe,
    hilbert_series,
    invariant_basis,
    multiply_to_coordinates,
    normality_probe,
    semistable_nonempty,
)
from schubert_smt.lattice import (
    IndexTuple,
    distinguished_w,
    leq_componentwise,
    minimal_semistable_w,
    top_element,
)
from schubert_smt.linalg import IntRowSpan
from schubert_smt.plucker import PluckerPolynomial, straighten
from schubert_smt.tableaux import enumerate_standard, monomial_content, rows_are_standard
from schubert_smt.verifier import build_generators

from helpers import (
    brute_force_standard,
    fraction_rank,
    function_rank,
    grew,
    recording_cells,
    reference_generation_probe,
    reference_normality_probe,
)

HEAVY = bool(os.environ.get("SCHUBERT_SMT_HEAVY"))
I36 = [IndexTuple(v, 6) for v in itertools.combinations(range(1, 7), 3)]


def count_index_tuples(monkeypatch):
    """A list that receives the values of every IndexTuple built from now on."""
    built = []
    original = IndexTuple.__init__

    def counting(self, values, n):
        built.append(values)
        original(self, values, n)

    monkeypatch.setattr(IndexTuple, "__init__", counting)
    return built


@pytest.fixture
def straightened_products(monkeypatch):
    """The products the probes straighten, recorded as (a, b) pairs."""
    calls = []
    original = invariant_ring.multiply_to_coordinates

    def recording(a, b, target, seed=0):
        calls.append((a, b))
        return original(a, b, target, seed=seed)

    monkeypatch.setattr(invariant_ring, "multiply_to_coordinates", recording)
    return calls


class TestInvariantBasis:
    def test_degree_one_on_the_big_variety(self):
        basis = invariant_basis(distinguished_w(5, 3), 1)
        assert len(basis) == 5
        assert set(basis) == set(build_generators(3).deg1)

    def test_minimal_variety_is_a_single_power(self):
        basis = invariant_basis(distinguished_w(1, 3), 2)
        assert basis.monomials == (((1, 3, 5), (1, 3, 5), (2, 4, 6), (2, 4, 6)),)
        assert list(basis) == list(basis.monomials)

    def test_first_degree_on_the_three_space_slot(self):
        w4 = distinguished_w(4, 4)
        basis = invariant_basis(w4, 1)
        assert len(basis) == 4
        oracle = brute_force_standard(2, 4, 8, bound=w4.values, content=(1,) * 8)
        assert list(basis.monomials) == list(basis) == oracle

    def test_every_element_is_standard_invariant_of_right_weight(self):
        w = distinguished_w(5, 3)
        for k in (1, 2):
            for rows in invariant_basis(w, k):
                assert rows_are_standard(rows, w.values)
                assert monomial_content(rows, 6) == (k,) * 6

    def test_rejects_bad_degree_and_shape(self):
        with pytest.raises(ValueError):
            invariant_basis(distinguished_w(5, 3), 0)
        with pytest.raises(ValueError):
            invariant_basis(IndexTuple((2, 3), 5), 1)

    @pytest.mark.parametrize("r", [3, 4])
    def test_position_is_the_enumeration_index(self, r):
        n = 2 * r
        for values in itertools.combinations(range(1, n + 1), r):
            w = IndexTuple(values, n)
            for k in (1, 2):
                basis = invariant_basis(w, k)
                listed = enumerate_standard(2 * k, r, n, bound=w, content=(k,) * n)
                assert len(basis) == len(listed)
                for i, rows in enumerate(listed):
                    assert basis.position(rows) == i

    def test_position_rejects_a_monomial_outside_the_basis(self):
        w = distinguished_w(5, 3)
        basis = invariant_basis(w, 2)
        nonstandard = tuple(sorted(((1, 2, 5), (3, 4, 6), (1, 3, 4), (2, 5, 6))))
        assert not plucker.rows_are_standard(nonstandard, w.values)
        outside = [
            nonstandard,
            invariant_basis(w, 1).monomials[0],  # of the wrong degree
            (),  # before every basis element
            ((4, 5, 6),) * 4,  # after every basis element
        ]
        for rows in outside:
            with pytest.raises(BasisMismatchError):
                basis.position(rows)

    def test_dimension_monotone_along_the_chain(self):
        chain = [distinguished_w(i, 3) for i in (1, 2, 4, 5)]
        for k in (1, 2):
            dims = [len(invariant_basis(w, k)) for w in chain]
            assert dims == sorted(dims)


class TestMultiplyToCoordinates:
    def test_standard_product_gives_a_unit_vector(self):
        gens = build_generators(3)
        target = invariant_basis(distinguished_w(5, 3), 2)
        coords = multiply_to_coordinates(gens.deg1[0], gens.deg1[3], target)
        nonzero = {i: c for i, c in enumerate(coords) if c}
        expected_rows = tuple(sorted(gens.deg1[0] + gens.deg1[3]))
        assert nonzero == {target.position(expected_rows): Fraction(1)}

    def test_power_on_the_minimal_variety(self):
        gens = build_generators(3)
        target = invariant_basis(distinguished_w(1, 3), 2)
        coords = multiply_to_coordinates(gens.deg1[0], gens.deg1[0], target)
        assert coords == [Fraction(1)]

    def test_symmetry(self):
        gens = build_generators(3)
        target = invariant_basis(distinguished_w(5, 3), 2)
        for a, b in itertools.combinations(gens.deg1, 2):
            assert multiply_to_coordinates(a, b, target) == multiply_to_coordinates(
                b, a, target
            )

    def test_coefficients_are_integral(self):
        gens = build_generators(4)
        target = invariant_basis(distinguished_w(5, 4), 2)
        for a, b in itertools.combinations_with_replacement(gens.deg1, 2):
            coords = multiply_to_coordinates(a, b, target)
            assert all(c.denominator == 1 for c in coords)

    def test_rejects_wrong_degree_sum(self):
        gens = build_generators(3)
        target = invariant_basis(distinguished_w(5, 3), 3)
        with pytest.raises(ValueError, match="degrees do not sum"):
            multiply_to_coordinates(gens.deg1[0], gens.deg1[1], target)

    def test_rejects_nonstandard_input(self):
        gens = build_generators(3)
        target = invariant_basis(distinguished_w(4, 3), 2)
        # the fifth generator is not bounded by the fourth representative
        with pytest.raises(ValueError, match="not standard on X"):
            multiply_to_coordinates(gens.deg1[4], gens.deg1[0], target)

    @pytest.mark.parametrize(
        "factor,reason",
        [
            # the values are each once, and the short row passes the
            # chain and bound checks, which compare rows with zip
            (((1, 2), (3, 4, 5, 6)), "has length"),
            (((1, 3, 5), (2, 4, 7)), "out of range"),
            (((0, 3, 5), (2, 4, 6)), "out of range"),
            (((1, 3, 5), (2, 6, 4)), "not strictly increasing"),
            (((1, 4, 5), (2, 3, 6)), "not standard"),
            (((1, 2, 3), (1, 2, 3)), "not torus invariant"),
            ((), "not torus invariant"),
        ],
        ids=["short-row", "above-n", "zero", "unsorted-row", "column-violation",
             "values-missing", "no-rows"],
    )
    def test_rejects_each_malformed_factor(self, factor, reason):
        target = invariant_basis(distinguished_w(5, 3), 2)
        good = build_generators(3).deg1[0]
        for a, b in ((factor, good), (good, factor)):
            with pytest.raises(ValueError, match=reason):
                multiply_to_coordinates(a, b, target)

    def test_row_order_of_a_factor_does_not_matter(self):
        # a monomial is a multiset of rows; a factor is read in its
        # canonical (sorted) order
        target = invariant_basis(distinguished_w(5, 3), 2)
        a, b = build_generators(3).deg1[:2]
        assert multiply_to_coordinates(a[::-1], [list(row) for row in b], target) == (
            multiply_to_coordinates(a, b, target)
        )


class TestNormalityProbe:
    def test_big_variety_is_obstructed(self):
        gens = build_generators(3)
        report = normality_probe(distinguished_w(5, 3), 2)
        assert not report.spanned
        assert report.dim_graded_piece == 16
        assert report.dim_lower_products == 15
        assert report.cokernel_dim == 1
        assert set(report.cokernel_witnesses) == set(gens.deg2)

    def test_probe_matches_function_level_rank_oracle(self):
        # rank of the products as functions on the cone, computed purely
        # from the determinant oracle with no straightening involved
        w5 = distinguished_w(5, 3)
        gens = build_generators(3)
        target = invariant_basis(w5, 2)
        xs = [PluckerPolynomial.monomial(rows, 6) for rows in gens.deg1]
        products = [
            xs[i] * xs[j] for i, j in itertools.combinations_with_replacement(range(5), 2)
        ]
        n_points = len(target) + 10
        rank_products = function_rank(products, w5, n_points, "oracle:prod")
        assert rank_products == 15
        # the degree-two basis itself is linearly independent as functions
        basis_polys = [PluckerPolynomial.monomial(rows, 6) for rows in target]
        assert function_rank(basis_polys, w5, n_points, "oracle:basis") == 16
        # and each degree-two witness raises the rank, so is not a product
        for rows in gens.deg2:
            fam = products + [PluckerPolynomial.monomial(rows, 6)]
            assert function_rank(fam, w5, n_points, "oracle:wit") == 16

    def test_spanned_slots(self):
        assert normality_probe(distinguished_w(4, 3), 2).spanned
        assert normality_probe(distinguished_w(1, 3), 2).spanned

    def test_spanned_at_rank_six_where_the_first_sample_is_short(self, monkeypatch):
        # at seed 0 the probe's B = 30 cell is rank-deficient at B + 8
        # points and grows
        cells = recording_cells(monkeypatch)
        report = normality_probe(IndexTuple((3, 5, 6, 9, 10, 12), 12), 2)
        assert any(len(cell.basis) == 30 and grew(cell) for cell in cells)
        assert report.spanned
        assert report.dim_lower_products == report.dim_graded_piece == 30

    def test_witnesses_empty_when_spanned(self):
        report = normality_probe(distinguished_w(4, 3), 2)
        assert report.cokernel_witnesses == ()

    def test_corollary_sample_above_the_obstructed_variety(self):
        # containment forces the same obstruction on larger varieties;
        # exercise one strict superset at n=4
        w = IndexTuple((3, 6, 7, 8), 8)
        report = normality_probe(w, 2)
        assert not report.spanned
        assert set(build_generators(4).deg2) <= set(report.cokernel_witnesses)

    @pytest.mark.skipif(
        not HEAVY, reason="heavier full-Grassmannian probe; set SCHUBERT_SMT_HEAVY=1"
    )
    def test_corollary_on_the_full_grassmannian_at_rank_four(self):
        report = normality_probe(top_element(4, 8), 2)
        assert not report.spanned
        assert report.dim_graded_piece == 126
        assert report.dim_lower_products == 105
        assert set(build_generators(4).deg2) <= set(report.cokernel_witnesses)

    def test_rejects_degree_one(self):
        with pytest.raises(ValueError):
            normality_probe(distinguished_w(5, 3), 1)


class TestGenerationProbe:
    def test_big_variety_generated_in_degree_two(self):
        reports = generation_degree_probe(distinguished_w(5, 3), 4)
        assert [r.degree for r in reports] == [3, 4]
        assert all(r.spanned for r in reports)
        assert all(r.cokernel_dim == 0 for r in reports)

    def test_polynomial_slot(self):
        reports = generation_degree_probe(distinguished_w(2, 3), 3)
        assert all(r.spanned for r in reports)

    def test_rejects_small_k_max(self):
        with pytest.raises(ValueError):
            generation_degree_probe(distinguished_w(5, 3), 2)


class TestSpanProbeMechanism:
    """The probes add standard products as unit vectors and straighten
    the others only while the span is short of R_d."""

    def test_warm_generation_probe_builds_no_tableau(self, monkeypatch):
        # the engine works on the cached monomials, which are plain row
        # tuples; no index tuple is built for them
        w = distinguished_w(5, 3)
        expected = generation_degree_probe(w, 3)  # warms the caches
        built = count_index_tuples(monkeypatch)
        assert generation_degree_probe(w, 3) == expected
        assert built == []

    def test_cold_basis_builds_no_index_tuple(self, monkeypatch):
        w = distinguished_w(5, 4)
        plucker._standard_basis.cache_clear()
        built = count_index_tuples(monkeypatch)
        for k in (1, 2):
            assert len(invariant_basis(w, k)) == (5, 16)[k - 1]
        assert plucker._standard_basis.cache_info().misses == 2
        assert built == []

    def test_degree_four_generation_builds_no_cell(self, straightened_products):
        plucker._interpolation_cell.cache_clear()
        reports = generation_degree_probe(distinguished_w(5, 3), 4)
        assert [(r.dim_generated, r.dim_graded_piece) for r in reports] == [(40, 40), (85, 85)]
        assert plucker._interpolation_cell.cache_info().misses == 0
        assert straightened_products == []

    @pytest.mark.parametrize("values", [(1, 2, 3), (2, 4, 5)])
    def test_probes_on_an_empty_graded_piece(self, values, straightened_products):
        # X(w) has no semistable point, so R_d = 0 for every d > 0
        w = IndexTuple(values, 6)
        plucker._interpolation_cell.cache_clear()
        report = normality_probe(w, 2)
        assert (report.dim_lower_products, report.dim_graded_piece, report.spanned) == (0, 0, True)
        assert report.cokernel_witnesses == ()
        assert plucker._interpolation_cell.cache_info().misses == 0
        reports = generation_degree_probe(w, 4)
        assert [(r.degree, r.dim_generated, r.dim_graded_piece) for r in reports] == [(3, 0, 0), (4, 0, 0)]
        assert straightened_products == []

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_normality_straightens_the_one_nonstandard_product(self, n, straightened_products):
        report = normality_probe(distinguished_w(5, n), 2)
        assert (report.dim_lower_products, report.dim_graded_piece) == (15, 16)
        assert len(straightened_products) == 1
        (a, b), = straightened_products
        rows = tuple(sorted(a + b))
        assert not plucker.rows_are_standard(rows, distinguished_w(5, n).values)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_generation_at_rank_five(self, seed):
        # straightening every product built a degree-6 cell here whose
        # sample matrix was rank-deficient on seeds 0 to 2
        reports = generation_degree_probe(distinguished_w(5, 5), 3, seed=seed)
        assert [r.to_dict() for r in reports] == [
            {"degree": 3, "dim_graded_piece": 40, "dim_generated": 40, "spanned": True, "cokernel_dim": 0}
        ]


class TestSpanProbesMatchTheReference:
    """Whole reports agree with probes that straighten every product."""

    @pytest.mark.parametrize("w", I36, ids=lambda w: "".join(map(str, w.values)))
    def test_generation_to_degree_four(self, w):
        assert generation_degree_probe(w, 4) == reference_generation_probe(w, 4)

    @pytest.mark.parametrize(
        "w",
        I36 + [distinguished_w(5, 4), IndexTuple((3, 6, 7, 8), 8)],
        ids=lambda w: "".join(map(str, w.values)),
    )
    def test_normality_in_degree_two(self, w):
        assert normality_probe(w, 2) == reference_normality_probe(w, 2)

    def test_a_membership_fault_in_the_kernel_is_detected(self, monkeypatch):
        # the reference runs on its own span, so a kernel that finds every
        # vector in the span loses the witnesses only on the probe's side
        w = distinguished_w(5, 3)
        monkeypatch.setattr(linalg.IntRowSpan, "contains", lambda self, vec: True)
        assert normality_probe(w, 2).cokernel_witnesses == ()
        assert normality_probe(w, 2) != reference_normality_probe(w, 2)
        assert len(reference_normality_probe(w, 2).cokernel_witnesses) == 2

    def test_generated_piece_given_by_combinations(self, straightened_products):
        # R_2 on X(w5) as the rows of a unimodular upper-triangular
        # matrix: every product but those of the last row has several
        # terms, and non-standard ones among them
        w = distinguished_w(5, 3)
        bases = {d: invariant_basis(w, d) for d in (1, 2, 3)}
        rows = bases[2].monomials
        combinations = [[(1, m) for m in rows[i:]] for i in range(len(rows))]
        unit, unit_basis = invariant_ring._generated_span(
            {1: invariant_ring._whole_piece(bases[1]), 2: invariant_ring._whole_piece(bases[2])},
            bases, 3, seed=0,
        )
        assert straightened_products == []
        combined, combined_basis = invariant_ring._generated_span(
            {1: invariant_ring._whole_piece(bases[1]), 2: combinations}, bases, 3, seed=0
        )
        assert straightened_products
        assert combined.rank == unit.rank == len(bases[3]) == 40
        assert fraction_rank(combined_basis) == fraction_rank(unit_basis) == 40

    def test_non_spanned_piece_is_carried_to_the_next_degree(self, monkeypatch):
        # no variety tried leaves a T_d short of R_d, so T_2 on X(4,5,6) is
        # cut to every other element of R_2: T_3 = T_2.R_1 falls short and
        # is carried to degree 4 as the products that raised its rank
        w = distinguished_w(5, 3)
        whole, span = invariant_ring._whole_piece, invariant_ring._generated_span
        pieces = []  # the generated pieces each degree's span is built from

        def half_of_r2(basis):
            return whole(basis)[::2] if basis.k == 2 else whole(basis)

        def recording(generated, bases, d, seed):
            pieces.append(dict(generated))
            return span(generated, bases, d, seed)

        monkeypatch.setattr(invariant_ring, "_whole_piece", half_of_r2)
        monkeypatch.setattr(invariant_ring, "_generated_span", recording)
        reports = generation_degree_probe(w, 4)
        assert [(r.dim_generated, r.dim_graded_piece) for r in reports] == [(28, 40), (70, 85)]
        bases = {d: invariant_basis(w, d) for d in (1, 2, 3, 4)}
        half = bases[2].monomials[::2]
        r1, r2 = bases[1].monomials, bases[2].monomials

        def straightened(d, *factors):
            poly = PluckerPolynomial.monomial(factors[0], w.n)
            for rows in factors[1:]:
                poly = poly * PluckerPolynomial.monomial(rows, w.n)
            vec = [0] * len(bases[d])
            for rows, c in straighten(poly, w).terms.items():
                vec[bases[d].position(rows)] = c
            return vec

        # T_3 is carried as the 28 products a.x that raised the rank
        carried = []
        for element in pieces[1][3]:
            vec = [0] * len(bases[3])
            for c, rows in element:
                vec[bases[3].position(rows)] = c
            carried.append(vec)
        products = [straightened(3, a, x) for a in half for x in r1]
        assert len(carried) == fraction_rank(carried) == 28
        assert all(vec in products for vec in carried)
        # T_4 = T_3.R_1 + T_2.R_2 against every product a.x.y and a.z
        products = [straightened(4, a, x, y) for a in half for x in r1 for y in r1]
        products += [straightened(4, a, z) for a in half for z in r2]
        assert len(products) == 328
        assert fraction_rank(products) == 70

    @pytest.mark.skipif(not HEAVY, reason="straightens in a B = 112 cell; set SCHUBERT_SMT_HEAVY=1")
    def test_generation_where_standard_products_fall_short(self, straightened_products):
        # 109 of the 112 degree-three basis elements are standard products
        reports = generation_degree_probe(IndexTuple((3, 5, 7, 8), 8), 3)
        assert [(r.dim_generated, r.dim_graded_piece) for r in reports] == [(112, 112)]
        assert straightened_products


class TestHilbertSeries:
    def test_proposition_series(self):
        assert hilbert_series(distinguished_w(1, 3), 3) == [1, 1, 1]
        assert hilbert_series(distinguished_w(2, 3), 3) == [2, 3, 4]
        assert hilbert_series(distinguished_w(3, 3), 3) == [2, 3, 4]
        assert hilbert_series(distinguished_w(4, 3), 3) == [4, 10, 20]

    def test_rejects_bad_k_max(self):
        with pytest.raises(ValueError):
            hilbert_series(distinguished_w(1, 3), 0)

    def test_three_space_slot_at_rank_four(self):
        assert hilbert_series(distinguished_w(4, 4), 2) == [4, 10]


class TestAlgebraicIndependence:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_products_on_the_three_space_slot_have_full_rank(self, k):
        # the four degree-one classes below the fourth representative are
        # algebraically independent: their degree-k products span a space
        # of the same dimension as in a polynomial ring on four variables
        w4 = distinguished_w(4, 3)
        target = invariant_basis(w4, k)
        gens = [rows for rows in build_generators(3).deg1 if rows_are_standard(rows, w4.values)]
        assert len(gens) == 4
        span = IntRowSpan(len(target))
        for combo in itertools.combinations_with_replacement(range(4), k):
            poly = PluckerPolynomial.monomial(gens[combo[0]], 6)
            for idx in combo[1:]:
                poly = poly * PluckerPolynomial.monomial(gens[idx], 6)
            expanded = straighten(poly, w4)
            vec = [0] * len(target)
            for rows, c in expanded.terms.items():
                vec[target.position(rows)] = c
            span.add(vec)
        assert span.rank == comb(k + 3, 3)
        assert span.rank == len(target)


class TestSemistableNonempty:
    def test_minimal_representative_has_a_degree_one_witness(self):
        assert semistable_nonempty(distinguished_w(1, 3)) == ((1, 3, 5), (2, 4, 6))

    def test_content_obstructed_variety_is_empty(self):
        assert semistable_nonempty(IndexTuple((1, 2, 3), 6)) is None

    def test_big_variety_at_rank_four(self):
        w = distinguished_w(5, 4)
        witness = semistable_nonempty(w)
        assert rows_are_standard(witness, w.values)
        assert monomial_content(witness, 8) == (1,) * 8
        assert witness in build_generators(4).deg1

    def test_all_distinguished_representatives_are_semistable(self):
        for n in (3, 4):
            for i in range(1, 6):
                assert semistable_nonempty(distinguished_w(i, n)) is not None

    def test_degree_one_agrees_with_the_weight_criterion(self):
        # every w in I(n, 2n): semistable exactly when w >= (2, 4, ..., 2n),
        # and the semistable elements are counted by the Catalan numbers
        for n, catalan in zip(range(2, 7), (2, 5, 14, 42, 132)):
            minimal, hits = minimal_semistable_w(n)
            assert minimal.values == tuple(range(2, 2 * n + 1, 2))
            found = 0
            for values in itertools.combinations(range(1, 2 * n + 1), n):
                w = IndexTuple(values, 2 * n)
                semistable = semistable_nonempty(w) is not None
                assert semistable == (w in hits) == leq_componentwise(minimal, w)
                found += semistable
            assert found == len(hits) == catalan
