"""The integer kernel against plain rational elimination.

Every property compares `schubert_smt.linalg` with the `Fraction`
oracles in `helpers`, on integer matrices with at most 12 rows and at
most 8 columns; the 3 x 3 and 4 x 4 determinants also on entries up to
10**6 in size.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from schubert_smt.linalg import GaussSolver, IntRowSpan, det_int, rank_int

from helpers import fraction_det, fraction_rank, fraction_solve

ENTRIES = st.integers(-4, 4)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# small entries, entries up to 10**6 in size, and mostly zeros
COFACTOR_ENTRIES = (
    ENTRIES,
    st.integers(-10**6, 10**6),
    st.sampled_from((0, 0, 0, 0, 0, 1, -1, 3, 10**6, -10**6)),
)


def matrices(nrows, ncols, entries=ENTRIES):
    size = nrows * ncols
    return st.lists(entries, min_size=size, max_size=size).map(
        lambda v: [v[i * ncols:(i + 1) * ncols] for i in range(nrows)]
    )


def mat_vec(a, x):
    return [sum(p * q for p, q in zip(row, x)) for row in a]


@st.composite
def full_column_rank(draw, min_extra_rows=0):
    """An N x B integer matrix of rank B, B <= 8 and N <= 12."""
    b = draw(st.integers(1, 8))
    n = draw(st.integers(b + min_extra_rows, 12))
    a = draw(matrices(n, b))
    assume(fraction_rank(a) == b)
    return a


@st.composite
def low_rank(draw, n=None, b=None):
    """C . R with C of size N x k and R of size k x B, so rank <= k."""
    n = draw(st.integers(1, 12)) if n is None else n
    b = draw(st.integers(1, 8)) if b is None else b
    k = draw(st.integers(0, min(n, b)))
    c = draw(matrices(n, k, st.integers(-2, 2)))
    r = draw(matrices(k, b, st.integers(-3, 3)))
    return [[sum(c[i][t] * r[t][j] for t in range(k)) for j in range(b)] for i in range(n)]


class TestGaussSolver:
    @PROPERTY
    @given(st.data())
    def test_full_column_rank_matches_oracle(self, data):
        a = data.draw(full_column_rank())
        x = data.draw(st.lists(st.integers(-5, 5), min_size=len(a[0]), max_size=len(a[0])))
        rhs = mat_vec(a, x)
        solver = GaussSolver(a)
        assert solver.ok
        numerators, d = solver.solve(rhs)
        assert [Fraction(y, d) for y in numerators] == fraction_solve(a, rhs) == x

    @PROPERTY
    @given(st.data())
    def test_rhs_outside_the_column_span_is_inconsistent(self, data):
        a = data.draw(full_column_rank(min_extra_rows=1))
        x = data.draw(st.lists(st.integers(-5, 5), min_size=len(a[0]), max_size=len(a[0])))
        units = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
        unit = next(e for e in units if fraction_solve(a, e) is None)
        scale = data.draw(st.integers(1, 3) | st.integers(-3, -1))
        rhs = [v + scale * e for v, e in zip(mat_vec(a, x), unit)]
        assert fraction_solve(a, rhs) is None
        assert GaussSolver(a).solve(rhs) is None

    @PROPERTY
    @given(st.data())
    def test_duplicated_column_is_rank_deficient(self, data):
        n = data.draw(st.integers(1, 12))
        b = data.draw(st.integers(1, 7))
        a = data.draw(matrices(n, b))
        j = data.draw(st.integers(0, b - 1))
        a = [row + [row[j]] for row in a]
        solver = GaussSolver(a)
        assert solver.ok is False
        with pytest.raises(RuntimeError):
            solver.solve([0] * n)

    def test_zero_columns(self):
        solver = GaussSolver([[] for _ in range(8)])
        assert solver.ok
        assert solver.solve([0] * 8) == ([], 1)
        assert solver.solve([0] * 7 + [3]) is None

    @PROPERTY
    @given(st.data())
    def test_square_system_integrality_matches_oracle(self, data):
        b = data.draw(st.integers(1, 8))
        a = data.draw(matrices(b, b))
        assume(fraction_rank(a) == b)
        rhs = data.draw(st.lists(st.integers(-9, 9), min_size=b, max_size=b))
        numerators, d = GaussSolver(a).solve(rhs)
        x = fraction_solve(a, rhs)
        assert [Fraction(y, d) for y in numerators] == x
        assert [y % d == 0 for y in numerators] == [xi.denominator == 1 for xi in x]

    def test_rational_solution_is_flagged(self):
        a = [[2, 1], [1, 3], [1, -2]]
        rhs = [1, 0, 1]
        x = [Fraction(3, 5), Fraction(-1, 5)]
        numerators, d = GaussSolver(a).solve(rhs)
        assert fraction_solve(a, rhs) == x
        assert [Fraction(y, d) for y in numerators] == x
        assert any(y % d for y in numerators)

    def test_more_columns_than_rows_is_rank_deficient(self):
        assert not GaussSolver([[1, 2, 3], [4, 5, 6]]).ok


class TestDetRank:
    @PROPERTY
    @given(st.data())
    def test_det_int_matches_fraction_determinant(self, data):
        k = data.draw(st.integers(0, 8))
        a = data.draw(matrices(k, k) | low_rank(k, k))
        assert det_int(a) == fraction_det(a)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_cofactor_sizes_match_fraction_determinant(self, data):
        # 3 x 3 to 5 x 5 take the cofactor formulas, not Bareiss
        k = data.draw(st.sampled_from((3, 4, 5)))
        entries = data.draw(st.sampled_from(COFACTOR_ENTRIES))
        a = data.draw(matrices(k, k, entries) | low_rank(k, k))
        assert det_int(a) == fraction_det(a)
        assert det_int([tuple(row) for row in a]) == fraction_det(a)

    @PROPERTY
    @given(low_rank() | st.integers(1, 12).flatmap(lambda n: matrices(n, 5)))
    def test_rank_int_matches_fraction_rank(self, a):
        assert rank_int(a) == fraction_rank(a)

    def test_rank_of_no_rows(self):
        assert rank_int([]) == 0


class TestIntRowSpan:
    @PROPERTY
    @given(st.data())
    def test_contains_matches_rank_test(self, data):
        rows = data.draw(low_rank())
        width = len(rows[0])
        span = IntRowSpan(width)
        for row in rows:
            span.add(row)
        assert span.rank == fraction_rank(rows)
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        combination = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(width)]
        other = data.draw(st.lists(ENTRIES, min_size=width, max_size=width))
        for vec in (combination, other):
            in_span = fraction_rank(rows + [vec]) == fraction_rank(rows)
            assert span.contains(vec) == in_span
        assert span.contains(combination)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            IntRowSpan(3).add([1, 2])
