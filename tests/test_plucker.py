import collections
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from schubert_smt import plucker
from schubert_smt.lattice import IndexTuple, distinguished_w, top_element
from schubert_smt.linalg import GaussSolver
from schubert_smt.plucker import (
    MinorTable,
    PluckerPolynomial,
    RankDeficientError,
    StraighteningError,
    evaluate,
    normalize_index,
    normalize_monomial,
    plucker_relation,
    random_point,
    random_schubert_point,
    restrict,
    sample_generator,
    straighten,
    value_at,
)
from schubert_smt.tableaux import monomial_content, rows_are_standard

from helpers import (
    fraction_det,
    grew,
    leibniz_det,
    recording_cells,
    reference_schubert_point,
    schubert_points,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def random_matrix(rng, r, n, lo=-5, hi=5):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(r))


class TestNormalizeIndex:
    def test_one_transposition(self):
        assert normalize_index([2, 1], 4) == (-1, (1, 2))

    def test_repeated_index(self):
        assert normalize_index([1, 1, 3], 4) == (0, None)

    def test_even_permutation(self):
        assert normalize_index([3, 1, 2], 4) == (1, (1, 2, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            normalize_index([0, 1], 4)
        with pytest.raises(ValueError):
            normalize_index([1, 5], 4)

    def test_sign_matches_sorting_parity(self):
        rng = random.Random(3)
        for _ in range(100):
            vals = rng.sample(range(1, 9), rng.randint(2, 6))
            sign, srt = normalize_index(vals, 8)
            assert srt == tuple(sorted(vals))
            # parity by counting inversions independently
            inv = sum(
                1
                for i in range(len(vals))
                for j in range(i + 1, len(vals))
                if vals[i] > vals[j]
            )
            assert sign == (-1) ** inv


class TestNormalizeMonomial:
    @pytest.mark.parametrize("rows", [[[1, 1], [7, 8]], [[7, 8], [1, 1]]])
    def test_out_of_range_row_is_rejected_in_any_order(self, rows):
        # a row with a repeated value does not hide the rows after it
        with pytest.raises(ValueError, match=r"values \[7, 8\] out of range 1\.\.4"):
            normalize_monomial(rows, 4)

    def test_sorts_rows_with_sign(self):
        assert normalize_monomial([[3, 4], [2, 1]], 4) == (-1, ((1, 2), (3, 4)))

    def test_repeated_value_kills_the_monomial(self):
        assert normalize_monomial([[1, 1], [3, 4]], 4) == (0, None)


class TestPolynomialArithmetic:
    def test_construction_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            PluckerPolynomial(2, 4, {((1, 2),): 1, ((1, 2), (3, 4)): 1})

    def test_construction_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            PluckerPolynomial.monomial(((2, 1),), 4)
        with pytest.raises(ValueError):
            PluckerPolynomial.monomial(((1, 5),), 4)

    def test_addition_cancels(self):
        f = PluckerPolynomial.monomial(((1, 2), (3, 4)), 4)
        assert (f - f).is_zero()

    def test_mixed_degree_addition_rejected(self):
        f = PluckerPolynomial.monomial(((1, 2),), 4)
        g = PluckerPolynomial.monomial(((1, 2), (3, 4)), 4)
        with pytest.raises(ValueError):
            f + g

    def test_scalar_is_degree_zero(self):
        one = PluckerPolynomial(2, 4, {(): 1})
        assert one.degree == 0
        f = PluckerPolynomial.monomial(((1, 3),), 4, 5)
        assert one * f == f
        assert PluckerPolynomial(2, 4, {(): 2}) * f == 2 * f


class TestPluckerRelation:
    def test_three_term_relation(self):
        rel = plucker_relation((1,), (2, 3, 4), 2, 4)
        assert rel.terms == {
            ((1, 2), (3, 4)): -1,
            ((1, 3), (2, 4)): 1,
            ((1, 4), (2, 3)): -1,
        }

    def test_repeated_index_term_drops(self):
        rel = plucker_relation((1,), (1, 2, 3), 2, 4)
        # the two surviving terms cancel each other
        assert rel.is_zero()

    def test_rejects_wrong_lengths(self):
        with pytest.raises(ValueError):
            plucker_relation((1, 2), (3, 4, 5), 2, 6)

    @pytest.mark.parametrize("r,n", [(2, 5), (3, 6)])
    def test_relations_vanish_on_random_matrices(self, r, n):
        rng = random.Random(f"rel:{r}:{n}")
        pool = list(range(1, n + 1))
        mats = [random_matrix(rng, r, n) for _ in range(20)]
        for _ in range(20):
            i_set = tuple(sorted(rng.sample(pool, r - 1)))
            j_set = tuple(sorted(rng.sample(pool, r + 1)))
            rel = plucker_relation(i_set, j_set, r, n)
            assert all(evaluate(rel, m) == 0 for m in mats)


class TestEvaluate:
    def test_identity_minor(self):
        f = PluckerPolynomial.monomial(((1, 2),), 4)
        m = ((1, 0, 0, 0), (0, 1, 0, 0))
        assert evaluate(f, m) == 1

    def test_scalar_evaluates_to_coefficient(self):
        m = ((1, 0, 0, 0), (0, 1, 0, 0))
        assert evaluate(PluckerPolynomial(2, 4, {(): 7}), m) == 7

    def test_rejects_dimension_mismatch(self):
        f = PluckerPolynomial.monomial(((1, 2),), 4)
        with pytest.raises(ValueError):
            evaluate(f, ((1, 0, 0), (0, 1, 0)))

    def test_ring_compatibility(self):
        rng = random.Random(17)
        for _ in range(25):
            rows_pool = list(itertools.combinations(range(1, 6), 2))
            def rand_poly():
                p = PluckerPolynomial.zero(2, 5)
                for _ in range(rng.randint(1, 3)):
                    rows = tuple(sorted(rng.sample(rows_pool, 2)))
                    p = p + PluckerPolynomial.monomial(rows, 5, rng.randint(-3, 3))
                return p
            f, g = rand_poly(), rand_poly()
            m = random_matrix(rng, 2, 5)
            assert evaluate(f * g, m) == evaluate(f, m) * evaluate(g, m)
            assert evaluate(f + g, m) == evaluate(f, m) + evaluate(g, m)


class TestRestrict:
    def test_drops_unbounded_rows(self):
        f = PluckerPolynomial.monomial(((1, 4), (2, 3)), 4)
        assert restrict(f, IndexTuple((2, 3), 4)).is_zero()

    def test_keeps_bounded_terms(self):
        rel = plucker_relation((1, 2), (3, 4, 5, 6), 3, 6)
        restricted = restrict(rel, distinguished_w(5, 3))
        assert len(restricted.terms) == 4  # nothing drops at the top element

    def test_big_variety_drops_nothing(self):
        f = PluckerPolynomial.monomial(((1, 4), (2, 3)), 4)
        assert restrict(f, IndexTuple((3, 4), 4)) == f

    def test_w4_kills_the_fifth_generator(self):
        x5 = PluckerPolynomial.monomial(((1, 2, 3), (4, 5, 6)), 6)
        assert restrict(x5, distinguished_w(4, 3)).is_zero()

    def test_rejects_shape_mismatch(self):
        f = PluckerPolynomial.monomial(((1, 2),), 4)
        with pytest.raises(ValueError):
            restrict(f, IndexTuple((1, 2, 3), 6))


class TestRandomSchubertPoint:
    def test_point_variety_supported_on_first_columns(self):
        w = IndexTuple((1, 2, 3), 6)
        columns = random_schubert_point(w, sample_generator(w, 4))
        assert columns[3:] == ((0, 0, 0),) * 3
        assert MinorTable(columns)[(1, 2, 3)] == 1  # principal block of a unit triangular

    def test_deterministic_in_seed(self):
        w = distinguished_w(5, 4)
        first = random_schubert_point(w, sample_generator(w, 12))
        assert first == random_schubert_point(w, sample_generator(w, 12))
        assert first != random_schubert_point(w, sample_generator(w, 13))
        stream = sample_generator(w, 12)
        assert random_schubert_point(w, stream) == first
        assert random_schubert_point(w, stream) != first

    @pytest.mark.parametrize(
        "w_values", [(2, 4, 6), (3, 4, 6), (2, 5, 6), (4, 5, 6), (1, 2, 3)]
    )
    def test_minors_vanish_above_w(self, w_values):
        w = IndexTuple(w_values, 6)
        for seed in range(2):
            for minors in schubert_points(w, seed, 3):
                for tau in itertools.combinations(range(1, 7), 3):
                    if not all(a <= b for a, b in zip(tau, w_values)):
                        assert minors[tau] == 0

    def test_generic_point_has_full_rank(self):
        from schubert_smt.linalg import rank_int

        w = distinguished_w(3, 3)
        stream = sample_generator(w, 0)
        for seed in range(10):
            assert rank_int(random_point(3, 6, seed)) == 3
            assert rank_int(random_schubert_point(w, stream)) == 3

    def test_same_points_as_the_reference_sampler(self):
        # consecutive points, so each one also leaves the generator where
        # the entry-by-entry reference leaves it
        ws = [distinguished_w(i, n) for i in range(1, 6) for n in range(3, 7)]
        ws.append(top_element(4, 8))
        ws.append(top_element(5, 10))
        seeds = [0, 1, 7, 4200132, "s", "9:relation"]
        for w in ws:
            for seed in seeds:
                stream, reference = sample_generator(w, seed), sample_generator(w, seed)
                for _ in range(3):
                    columns = random_schubert_point(w, stream)
                    assert columns == tuple(zip(*reference_schubert_point(w, reference)))

    def test_every_minor_matches_rational_determinant(self):
        # the table reads columns; the oracle builds each submatrix from rows
        ws = [distinguished_w(i, n) for i in range(1, 6) for n in (3, 4)]
        ws.append(top_element(4, 8))
        for w in ws:
            for seed in (0, 7, "s"):
                for minors in schubert_points(w, seed, 2):
                    m = tuple(zip(*minors.columns))
                    for cols in itertools.combinations(range(1, w.n + 1), w.r):
                        expected = fraction_det([[row[c - 1] for c in cols] for row in m])
                        assert minors[cols] == expected

    def test_pinned_points(self):
        # literal values, so a change in the standard library's generator shows too
        w = distinguished_w(5, 3)
        assert random_schubert_point(w, sample_generator(w, 0)) == (
            (3, 2, -1), (-3, 3, 3), (1, -3, 2), (1, 3, 2), (0, 1, 2), (0, 0, 1),
        )
        w = top_element(4, 8)
        stream = sample_generator(w, "s")
        random_schubert_point(w, stream)
        assert random_schubert_point(w, stream) == (
            (-3, -3, -3, 0),
            (1, -1, -1, 2),
            (-1, 2, -2, -2),
            (-3, 2, 1, 2),
            (1, -3, 0, 2),
            (0, 1, -1, -1),
            (0, 0, 1, 1),
            (0, 0, 0, 1),
        )


@st.composite
def matrices_with_zero_columns(draw):
    """An integer r x n matrix, r <= 5 and n <= 8, some of whose columns
    may be zero."""
    r = draw(st.integers(1, 5))
    n = draw(st.integers(r, 8))
    zero = draw(st.sets(st.integers(0, n - 1), max_size=n))
    entries = st.integers(-4, 4)
    return tuple(
        tuple(0 if c in zero else draw(entries) for c in range(n)) for _ in range(r)
    )


class TestMinorTable:
    @PROPERTY
    @given(st.data())
    def test_matches_rational_determinant(self, data):
        m = data.draw(matrices_with_zero_columns())
        r, n = len(m), len(m[0])
        all_cols = list(itertools.combinations(range(1, n + 1), r))
        lookups = data.draw(st.lists(st.sampled_from(all_cols), min_size=1, max_size=30))
        minors = MinorTable(tuple(zip(*m)))
        for cols in lookups:
            assert minors[cols] == fraction_det([[row[c - 1] for c in cols] for row in m])
        assert set(minors) == set(lookups)
        for cols in lookups:  # repeated lookups read the stored value
            assert minors[cols] == fraction_det([[row[c - 1] for c in cols] for row in m])
        assert set(minors) == set(lookups)

    @PROPERTY
    @given(st.data())
    def test_evaluate_matches_leibniz_sum(self, data):
        m = data.draw(matrices_with_zero_columns())
        r, n = len(m), len(m[0])
        all_cols = list(itertools.combinations(range(1, n + 1), r))
        degree = data.draw(st.integers(1, 3))
        monomials = data.draw(
            st.lists(st.lists(st.sampled_from(all_cols), min_size=degree, max_size=degree),
                     min_size=1, max_size=4)
        )
        coeffs = data.draw(
            st.lists(st.integers(-9, 9), min_size=len(monomials), max_size=len(monomials))
        )
        f = PluckerPolynomial(r, n, zip(monomials, coeffs))
        expected = 0
        for rows, c in f.terms.items():
            value = c
            for cols in rows:
                value *= leibniz_det([[row[col - 1] for col in cols] for row in m])
            expected += value
        assert evaluate(f, m) == expected


class TestStraighten:
    def test_three_term_rewrite(self):
        f = PluckerPolynomial.monomial(((1, 4), (2, 3)), 4)
        g = straighten(f)
        assert g.terms == {((1, 3), (2, 4)): 1, ((1, 2), (3, 4)): -1}

    def test_standard_input_is_fixed(self):
        f = PluckerPolynomial.monomial(((1, 2), (3, 4)), 4, 3)
        assert straighten(f) == f

    def test_rank_deficiency_is_diagnosable(self, monkeypatch):
        # The same point at every draw: the sample never reaches rank B = 2,
        # so the cell grows to its cap of 8 (B + 8) points and names the rank.
        fixed = tuple(zip(*random_point(2, 4, "fixed")))
        monkeypatch.setattr(plucker, "random_schubert_point", lambda w, rng: fixed)
        caches = (plucker._interpolation_cell, plucker._stream)
        for cache in caches:
            cache.cache_clear()
        try:
            with pytest.raises(RankDeficientError) as err:
                straighten(PluckerPolynomial.monomial(((1, 4), (2, 3)), 4), seed=1)
        finally:
            for cache in caches:
                cache.cache_clear()
        message = str(err.value)
        assert "(degree=2, content=(1, 1, 1, 1)) cell" in message
        assert "rank 1 < B=2 at 80 sample points" in message

    def test_short_sample_grows_to_full_rank(self):
        # the degree-4 cell of the rank-five lemma at this seed is
        # rank-deficient at B + 8 = 24 points; 8 more from the same
        # stream make it full rank
        w = distinguished_w(5, 5)
        seed = 2
        plucker._interpolation_cell.cache_clear()
        cell = plucker._interpolation_cell(w, (2,) * 10, seed)
        plucker._interpolation_cell.cache_clear()
        size = len(cell.basis)
        assert size == 16 and len(cell.points) == size + 2 * plucker.EXTRA_SAMPLES
        assert cell.solver.ok
        stream = sample_generator(w, seed)
        for point in cell.points:
            assert point.columns == random_schubert_point(w, stream)
        matrix = [[plucker.monomial_value(b, m) for b in cell.basis] for m in cell.points]
        assert not GaussSolver(size, matrix[:size + plucker.EXTRA_SAMPLES]).ok
        assert cell.solver.nrows > size + plucker.EXTRA_SAMPLES

    def test_growth_extends_one_solver_and_evaluates_each_row_once(self, monkeypatch):
        # the cell above reads the rows of its 8 new points into the
        # solver that read its first 24, and computes the basis values at
        # a point once, and only at the points whose rows the solver reads
        solvers = []
        evaluated = collections.Counter()  # basis values computed per point
        value = plucker.monomial_value
        monkeypatch.setattr(
            plucker, "GaussSolver", lambda *args: solvers.append(GaussSolver(*args)) or solvers[-1]
        )
        monkeypatch.setattr(
            plucker, "monomial_value", lambda rows, m: evaluated.update([id(m)]) or value(rows, m)
        )
        plucker._interpolation_cell.cache_clear()
        try:
            cell = plucker._interpolation_cell(distinguished_w(5, 5), (2,) * 10, 2)
        finally:
            plucker._interpolation_cell.cache_clear()
        assert grew(cell) and solvers == [cell.solver]
        read = cell.points[:cell.solver.nrows]
        assert sorted(evaluated) == sorted(id(m) for m in read)
        assert set(evaluated.values()) == {len(cell.basis)}

    def test_back_check_catches_a_wrong_integral_solution(self, monkeypatch):
        original = GaussSolver.solve

        def shifted(self, rhs):
            numerators, d = original(self, rhs)
            return [numerators[0] + d] + numerators[1:], d

        monkeypatch.setattr(GaussSolver, "solve", shifted)
        with pytest.raises(StraighteningError, match="back-check"):
            straighten(PluckerPolynomial.monomial(((1, 4), (2, 3)), 4), seed=1)

    def test_inconsistency_at_an_unread_point_is_inconsistent(self, monkeypatch):
        # the rows read fix the solution; a right-hand side made wrong
        # only at the cell's last point, whose row was never read, leaves
        # the sampled system without a solution
        f = PluckerPolynomial.monomial(((1, 4), (2, 3)), 4)
        plucker._interpolation_cell.cache_clear()
        try:
            cell = plucker._interpolation_cell(top_element(2, 4), (1, 1, 1, 1), 1)
            assert cell.solver.nrows < len(cell.points)
            last = cell.points[-1]
            value = plucker.value_at
            monkeypatch.setattr(plucker, "value_at", lambda g, m: value(g, m) + (m is last))
            with pytest.raises(StraighteningError, match="inconsistent"):
                straighten(f, seed=1)
        finally:
            plucker._interpolation_cell.cache_clear()

    def test_inconsistent_system_fails_at_once(self, monkeypatch):
        # without ((1, 3), (2, 4)) the basis cannot express p14 p23, and
        # more points cannot change that
        original = plucker._standard_basis
        monkeypatch.setattr(plucker, "_standard_basis", lambda *args: original(*args)[:-1])
        sampled = []
        point = plucker.random_schubert_point
        monkeypatch.setattr(
            plucker, "random_schubert_point", lambda *args: sampled.append(args) or point(*args)
        )
        caches = (plucker._interpolation_cell, plucker._stream)
        for cache in caches:
            cache.cache_clear()
        try:
            with pytest.raises(StraighteningError, match="inconsistent"):
                straighten(PluckerPolynomial.monomial(((1, 4), (2, 3)), 4), seed=1)
        finally:
            for cache in caches:
                cache.cache_clear()
        assert len(sampled) == 1 + plucker.EXTRA_SAMPLES

    @pytest.mark.parametrize("bound", [None, distinguished_w(5, 3)])
    def test_two_content_polynomial_samples_each_point_once(self, monkeypatch, bound):
        # both weight cells take their points from one seeded stream, so
        # the smaller cell's points are the first points of the larger
        # and each is drawn once; without a bound they sample X(top)
        if bound is None:
            f = PluckerPolynomial.monomial(((1, 4), (2, 3)), 4) + PluckerPolynomial.monomial(
                ((1, 4), (2, 4)), 4
            )
        else:
            f = PluckerPolynomial.monomial(((1, 4, 5), (2, 3, 6)), 6) + PluckerPolynomial.monomial(
                ((1, 4, 5), (2, 3, 5)), 6
            )
        target = bound if bound is not None else top_element(f.r, f.n)
        contents = {monomial_content(rows, f.n) for rows in f.terms}
        assert len(contents) == 2
        sizes = [len(plucker._standard_basis(target, c)) for c in contents]
        streams = []
        original = plucker.random_schubert_point

        def counting(w, rng):
            assert w == target
            streams.append(rng)
            return original(w, rng)

        caches = (plucker._interpolation_cell, plucker._stream)
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(plucker, "random_schubert_point", counting)
        cells = recording_cells(monkeypatch)
        try:
            g = straighten(f, bound, seed=5)
        finally:
            for cache in caches:
                cache.cache_clear()
        assert not g.is_zero()
        assert len(streams) == max(sizes) + plucker.EXTRA_SAMPLES
        assert all(rng is streams[0] for rng in streams)
        small, large = sorted((cell.points for cell in cells), key=len)
        assert len(small) < len(large)
        assert all(p is q for p, q in zip(small, large))

    def test_unbounded_and_top_bounded_calls_share_one_cell(self):
        # without a bound straighten works on X(top), so the explicit top
        # bound finds the cell that the unbounded call built
        f = PluckerPolynomial.monomial(((1, 4, 5), (2, 3, 6)), 6, 3)
        plucker._interpolation_cell.cache_clear()
        try:
            g = straighten(f, seed=2)
            misses = plucker._interpolation_cell.cache_info().misses
            assert misses == 1
            assert straighten(f, top_element(3, 6), seed=2) == g
            assert plucker._interpolation_cell.cache_info().misses == misses
        finally:
            plucker._interpolation_cell.cache_clear()

    def test_no_cell_below_w_is_empty(self):
        # sorting each column of a monomial whose rows lie below w keeps its
        # content, keeps its rows strictly increasing and below w, and makes
        # it standard, so every cell that straighten builds has a basis
        enumerate_cell = plucker._standard_basis.__wrapped__  # leaves the cache alone
        checked = 0
        for n in range(1, 7):
            for r in range(1, min(n, 3) + 1):
                for w_values in itertools.combinations(range(1, n + 1), r):
                    w = IndexTuple(w_values, n)
                    below = [
                        row
                        for row in itertools.combinations(range(1, n + 1), r)
                        if all(x <= y for x, y in zip(row, w_values))
                    ]
                    for degree in (2, 3):
                        for rows in itertools.combinations_with_replacement(below, degree):
                            if rows_are_standard(rows):
                                continue
                            basis = enumerate_cell(w, monomial_content(rows, n))
                            columns_sorted = tuple(zip(*(sorted(c) for c in zip(*rows))))
                            assert columns_sorted in basis
                            checked += 1
        assert checked > 1000

    def test_idempotent_term_for_term(self):
        f = PluckerPolynomial.monomial(((1, 4), (2, 3)), 4)
        once = straighten(f)
        assert straighten(once) == once

    def test_linear(self):
        rng = random.Random(23)
        rows_pool = list(itertools.combinations(range(1, 7), 3))
        for _ in range(10):
            ra = tuple(sorted(rng.sample(rows_pool, 2)))
            rb = tuple(sorted(rng.sample(rows_pool, 2)))
            f = PluckerPolynomial.monomial(ra, 6)
            g = PluckerPolynomial.monomial(rb, 6)
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            assert straighten(a * f + b * g) == a * straighten(f) + b * straighten(g)

    def test_agrees_with_input_under_evaluation(self):
        rng = random.Random(29)
        rows_pool = list(itertools.combinations(range(1, 7), 3))
        for trial in range(10):
            rows = tuple(sorted(rng.sample(rows_pool, 3)))
            f = PluckerPolynomial.monomial(rows, 6)
            g = straighten(f)
            assert all(rows_are_standard(r) for r in g.terms)
            for i in range(20):
                m = random_point(3, 6, f"holdout:{trial}:{i}")
                assert evaluate(g, m) == evaluate(f, m)

    def test_bounded_agrees_on_schubert_points(self):
        w = distinguished_w(4, 3)
        rng = random.Random(31)
        rows_pool = [
            rows
            for rows in itertools.combinations(range(1, 7), 3)
        ]
        for trial in range(10):
            rows = tuple(sorted(rng.sample(rows_pool, 2)))
            f = PluckerPolynomial.monomial(rows, 6)
            g = straighten(f, w)
            assert all(rows_are_standard(r, w.values) for r in g.terms)
            for m in schubert_points(w, f"hb:{trial}", 20):
                assert value_at(g, m) == value_at(f, m)

    def test_weight_cell_is_preserved(self):
        f = PluckerPolynomial.monomial(((1, 4), (2, 3)), 4)
        g = straighten(f)
        cont = monomial_content(((1, 4), (2, 3)), 4)
        assert all(monomial_content(rows, 4) == cont for rows in g.terms)

    def test_mixed_weight_input(self):
        f = PluckerPolynomial.monomial(((1, 4), (2, 3)), 4) + PluckerPolynomial.monomial(
            ((1, 4), (2, 4)), 4
        )
        g = straighten(f)
        assert all(rows_are_standard(rows) for rows in g.terms)
        for i in range(20):
            m = random_point(2, 4, f"mixed:{i}")
            assert evaluate(g, m) == evaluate(f, m)

    def test_full_product_relation_expansion(self):
        # the product of the second and third degree-one generators
        # expands into exactly eight standard monomials with unit
        # coefficients, matching the degree-two identity
        x = {
            1: ((1, 3, 5), (2, 4, 6)),
            2: ((1, 2, 5), (3, 4, 6)),
            3: ((1, 3, 4), (2, 5, 6)),
            4: ((1, 2, 4), (3, 5, 6)),
            5: ((1, 2, 3), (4, 5, 6)),
        }
        y1 = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6))
        y2 = ((1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6))
        f = PluckerPolynomial.monomial(x[2], 6) * PluckerPolynomial.monomial(x[3], 6)
        g = straighten(f, distinguished_w(5, 3))

        def prod(a, b):
            return tuple(sorted(x[a] + x[b]))

        expected = {
            prod(1, 4): 1,
            y1: -1,
            y2: -1,
            prod(5, 1): 1,
            prod(5, 2): -1,
            prod(5, 3): -1,
            prod(5, 4): 1,
            prod(5, 5): -1,
        }
        assert g.terms == expected

    def test_restriction_compatibility_at_evaluation_level(self):
        w = distinguished_w(2, 3)
        f = PluckerPolynomial.monomial(((1, 4, 5), (2, 3, 6)), 6)
        g = straighten(f, w)
        for m in schubert_points(w, "compat", 30):
            assert value_at(g, m) == value_at(f, m)


def _incomparable_pairs(r):
    """(w, rows below w, the pairs of incomparable rows below w) for each w
    of I(r, 2r) with such a pair: a monomial holding both rows of a pair
    is not standard."""
    n = 2 * r
    rows = list(itertools.combinations(range(1, n + 1), r))
    out = []
    for w in rows:
        below = [a for a in rows if all(x <= y for x, y in zip(a, w))]
        pairs = [
            (a, b)
            for a, b in itertools.combinations(below, 2)
            if not all(x <= y for x, y in zip(a, b))
        ]
        if pairs:
            out.append((IndexTuple(w, n), below, pairs))
    return out


INCOMPARABLE = {r: _incomparable_pairs(r) for r in (3, 4)}


@st.composite
def nonstandard_below(draw):
    """(f, w): w in I(3, 6) or I(4, 8), and f a polynomial of degree 2 or
    3 in rows below w with a term that is not standard."""
    w, below, pairs = draw(st.sampled_from(INCOMPARABLE[draw(st.sampled_from((3, 4)))]))
    degree = draw(st.integers(2, 3))
    first = draw(st.sampled_from(pairs))
    monomials = [first + tuple(draw(st.sampled_from(below)) for _ in range(degree - 2))]
    for _ in range(draw(st.integers(0, 2))):
        monomials.append(tuple(draw(st.sampled_from(below)) for _ in range(degree)))
    coeffs = [draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1))) for _ in monomials]
    f = PluckerPolynomial(w.r, w.n, zip(monomials, coeffs))
    assume(not all(rows_are_standard(rows) for rows in f.terms))
    return f, w


class TestSampleStream:
    @PROPERTY
    @given(nonstandard_below(), st.integers(0, 2**32), st.integers(0, 2**32))
    def test_output_is_free_of_the_seed_and_growth_keeps_the_points(self, f_w, a, b):
        # Seed a's cells are refused at their first B + 8 points, as if that
        # sample were short, so every one of them grows; the expansion is
        # that of seed b all the same, and each grown cell's first B + 8
        # points are the objects it held before it grew.
        assume(a != b)
        f, w = f_w
        builds = []  # the samples each cell build takes, in order
        build, sample = plucker._interpolation_cell, plucker._sample

        def recording_build(*args):
            builds.append([])
            return build(*args)

        def recording_sample(*args):
            builds[-1].append(sample(*args))
            return builds[-1][-1]

        class Refusing(GaussSolver):
            # short of full rank after the rows of the first B + 8 points,
            # whatever they are
            batches = 0

            def extend(self, rows):
                self.batches += 1
                return super().extend(rows)

            @property
            def ok(self):
                return super().ok and self.batches > 1

        caches = (build, plucker._stream)
        for cache in caches:
            cache.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(plucker, "_interpolation_cell", recording_build)
                patch.setattr(plucker, "_sample", recording_sample)
                patch.setattr(plucker, "GaussSolver", Refusing)
                grown = straighten(f, w, seed=a)
            expected = straighten(f, w, seed=b)
        finally:
            for cache in caches:
                cache.cache_clear()
        assert grown == expected
        assert builds
        for samples in builds:
            assert len(samples) >= 2
            for before, after in zip(samples, samples[1:]):
                assert len(after) == len(before) + plucker.EXTRA_SAMPLES
                assert all(x is y for x, y in zip(before, after))

