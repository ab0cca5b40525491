"""The integer kernel against plain rational elimination.

Every property compares `schubert_smt.linalg` with the `Fraction`
oracles in `helpers`, or the row span with the solver, on integer
matrices with at most 12 rows and at most 8 columns (up to 38 rows when
zero, repeated and dependent rows are mixed in); the 3 x 3 to 5 x 5
determinants also on entries up to 10**6 in size.  The solver reads rows
only up to full column rank, so its results are compared with the
oracles on the rows it read.
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


def prefix_to_full_rank(a):
    """The number of leading rows of `a` up to the first prefix of full
    column rank, or len(a) if there is none."""
    b = len(a[0]) if a else 0
    return next((k for k in range(len(a) + 1) if fraction_rank(a[:k]) == b), len(a))


class Counting:
    """An iterator over rows that counts the rows it hands out."""

    def __init__(self, rows):
        self.rows = iter(rows)
        self.handed_out = 0

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self.rows)
        self.handed_out += 1
        return row


@st.composite
def padded(draw):
    """A matrix of full column rank B <= 8 with zero, repeated and dependent
    rows before, between and after its rows, and how many rows it has up
    to its first prefix of full column rank."""
    a = draw(full_column_rank())
    rows = []
    for row in a + [None]:
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(("zero", "repeat", "combination")))
            if kind == "zero" or not rows:
                rows.append([0] * len(a[0]))
            elif kind == "repeat":
                rows.append(list(draw(st.sampled_from(rows))))
            else:
                coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
                rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(a[0]))])
        if row is not None:
            rows.append(row)
    return rows


class TestGaussSolver:
    @PROPERTY
    @given(st.data())
    def test_full_column_rank_matches_oracle(self, data):
        a = data.draw(full_column_rank())
        x = data.draw(st.lists(st.integers(-5, 5), min_size=len(a[0]), max_size=len(a[0])))
        rhs = mat_vec(a, x)
        solver = GaussSolver(len(a[0]), a)
        assert solver.ok
        numerators, d = solver.solve(rhs)
        assert [Fraction(y, d) for y in numerators] == fraction_solve(a, rhs) == x

    @PROPERTY
    @given(st.data())
    def test_rhs_outside_the_column_span_is_inconsistent(self, data):
        # a row that is a combination of the rows before it, put where the
        # solver is still short of full rank, is read; a right-hand side
        # perturbed there leaves the column span of the rows read
        a = data.draw(full_column_rank())
        j = data.draw(st.integers(0, prefix_to_full_rank(a) - 1))
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=j, max_size=j))
        a.insert(j, [sum(c * row[k] for c, row in zip(coeffs, a)) for k in range(len(a[0]))])
        x = data.draw(st.lists(st.integers(-5, 5), min_size=len(a[0]), max_size=len(a[0])))
        scale = data.draw(st.integers(1, 3) | st.integers(-3, -1))
        rhs = mat_vec(a, x)
        rhs[j] += scale
        solver = GaussSolver(len(a[0]), a)
        assert j < solver.nrows
        assert fraction_solve(a[:solver.nrows], rhs[:solver.nrows]) is None
        assert solver.solve(rhs) is None

    @PROPERTY
    @given(st.data())
    def test_duplicated_column_is_rank_deficient(self, data):
        n = data.draw(st.integers(1, 12))
        b = data.draw(st.integers(1, 7))
        a = data.draw(matrices(n, b))
        j = data.draw(st.integers(0, b - 1))
        a = [row + [row[j]] for row in a]
        solver = GaussSolver(b + 1, a)
        assert solver.ok is False
        assert solver.nrows == n and solver.rank == fraction_rank(a)
        with pytest.raises(RuntimeError):
            solver.solve([0] * n)

    def test_zero_columns(self):
        # full column rank before any row: nothing is read, so no
        # right-hand side can be inconsistent with the rows read
        rows = Counting([[] for _ in range(8)])
        solver = GaussSolver(0, rows)
        assert solver.ok and solver.nrows == rows.handed_out == 0
        assert solver.solve([0] * 8) == ([], 1)
        assert solver.solve([0] * 7 + [3]) == ([], 1)

    @PROPERTY
    @given(st.data())
    def test_square_system_integrality_matches_oracle(self, data):
        b = data.draw(st.integers(1, 8))
        a = data.draw(matrices(b, b))
        assume(fraction_rank(a) == b)
        rhs = data.draw(st.lists(st.integers(-9, 9), min_size=b, max_size=b))
        numerators, d = GaussSolver(b, a).solve(rhs)
        x = fraction_solve(a, rhs)
        assert [Fraction(y, d) for y in numerators] == x
        assert [y % d == 0 for y in numerators] == [xi.denominator == 1 for xi in x]

    def test_rational_solution_is_flagged(self):
        a = [[2, 1], [1, 3], [1, -2]]
        rhs = [1, 0, 1]
        x = [Fraction(3, 5), Fraction(-1, 5)]
        numerators, d = GaussSolver(2, a).solve(rhs)
        assert fraction_solve(a, rhs) == x
        assert [Fraction(y, d) for y in numerators] == x
        assert any(y % d for y in numerators)

    def test_rhs_shorter_than_the_rows_read_raises(self):
        # the dependent second row is consistent, the third row has no rhs
        solver = GaussSolver(2, [[1, 0], [2, 0], [0, 1]])
        assert solver.ok and solver.nrows == 3
        with pytest.raises(IndexError):
            solver.solve([1, 2])

    def test_more_columns_than_rows_is_rank_deficient(self):
        solver = GaussSolver(3, [[1, 2, 3], [4, 5, 6]])
        assert not solver.ok and solver.rank == 2

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            GaussSolver(3, [[1, 2]])


class TestIncrementalElimination:
    @PROPERTY
    @given(st.data())
    def test_batches_give_the_result_of_one_batch(self, data):
        a = data.draw(full_column_rank() | low_rank())
        b = len(a[0])
        rhs = data.draw(
            st.just(mat_vec(a, [1] * b))
            | st.lists(st.integers(-9, 9), min_size=len(a), max_size=len(a))
        )
        cuts = sorted(data.draw(st.lists(st.integers(0, len(a)), max_size=4)))
        batches = [a[i:j] for i, j in zip([0] + cuts, cuts + [len(a)])]
        at_once = GaussSolver(b, a)
        in_batches = GaussSolver(b, batches[0])
        for batch in batches[1:]:
            in_batches.extend(batch)
        one_by_one = GaussSolver(b)
        for row in a:
            one_by_one.extend([row])
        solvers = (at_once, in_batches, one_by_one)
        assert len({(s.ok, s.rank, s.nrows) for s in solvers}) == 1
        read = at_once.nrows
        if not at_once.ok:
            assert read == len(a) and at_once.rank == fraction_rank(a)
            return
        assert at_once.rank == fraction_rank(a[:read]) == b
        results = [s.solve(rhs) for s in solvers]
        assert results[0] == results[1] == results[2]
        x = fraction_solve(a[:read], rhs[:read])
        if x is None:
            assert results[0] is None
        else:
            numerators, d = results[0]
            assert [Fraction(y, d) for y in numerators] == x

    @PROPERTY
    @given(full_column_rank() | low_rank())
    def test_no_row_is_read_past_full_rank(self, a):
        rows = Counting(a)
        solver = GaussSolver(len(a[0]), rows)
        assert rows.handed_out == solver.nrows == prefix_to_full_rank(a)
        solver.extend(rows)
        assert rows.handed_out == solver.nrows

    @PROPERTY
    @given(st.data())
    def test_full_rank_past_zero_repeated_and_dependent_rows(self, data):
        a = data.draw(padded())
        b = len(a[0])
        x = data.draw(st.lists(st.integers(-5, 5), min_size=b, max_size=b))
        solver = GaussSolver(b, a)
        assert solver.ok and solver.nrows == prefix_to_full_rank(a)
        numerators, d = solver.solve(mat_vec(a, x))
        assert [Fraction(y, d) for y in numerators] == x


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

    @PROPERTY
    @given(low_rank() | padded())
    def test_add_is_true_exactly_when_the_rank_grows(self, rows):
        span = IntRowSpan(len(rows[0]))
        for i, row in enumerate(rows):
            assert span.add(row) == (fraction_rank(rows[:i + 1]) > fraction_rank(rows[:i]))
            assert span.rank == fraction_rank(rows[:i + 1])
        assert all(span.contains(row) for row in rows)

    @PROPERTY
    @given(low_rank() | padded() | full_column_rank())
    def test_rank_matches_the_solver(self, rows):
        span = IntRowSpan(len(rows[0]))
        for row in rows:
            span.add(row)
        assert span.rank == GaussSolver(len(rows[0]), rows).rank

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            IntRowSpan(3).add([1, 2])
        with pytest.raises(ValueError):
            IntRowSpan(3).contains([1, 2, 3, 4])
