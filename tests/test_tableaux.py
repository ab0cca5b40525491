import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from schubert_smt.invariant_ring import invariant_basis, multiply_to_coordinates
from schubert_smt.lattice import IndexTuple, distinguished_w, top_element
from schubert_smt.tableaux import (
    count_standard,
    enumerate_standard,
    monomial_content,
    rows_are_standard,
)

from helpers import brute_force_standard, reference_enumerate_standard


X1_N3 = ((1, 3, 5), (2, 4, 6))
Y1_N3 = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6))
Y2_N3 = ((1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6))


@st.composite
def enumeration_inputs(draw):
    """(shape_rows, r, n, bound, content) with shape_rows <= 4 and n <= 6.

    The content is absent, the content of a random multiset of rows
    (so a monomial with it often exists), or a uniform draw of box values
    (so it is mostly infeasible).
    """
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, n))
    shape_rows = draw(st.integers(1, 4))
    subsets = list(itertools.combinations(range(1, n + 1), r))
    bound = draw(st.none() | st.sampled_from(subsets))
    kind = draw(st.sampled_from(["none", "rows", "uniform"]))
    cont = None
    if kind != "none":
        if kind == "rows":
            rows = [draw(st.sampled_from(subsets)) for _ in range(shape_rows)]
            values = [v for row in rows for v in row]
        else:
            values = [draw(st.integers(1, n)) for _ in range(shape_rows * r)]
        cont = tuple(values.count(v) for v in range(1, n + 1))
    return shape_rows, r, n, bound, cont


class TestIsStandard:
    def test_bounded_chain(self):
        assert rows_are_standard(X1_N3, distinguished_w(5, 3).values)

    def test_column_violation(self):
        assert not rows_are_standard(((1, 4), (2, 3)))

    def test_degree_two_witness_is_standard(self):
        assert rows_are_standard(Y2_N3, (4, 5, 6))

    def test_bound_shape_mismatch(self):
        # rows_are_standard compares rows with zip, so the caller that
        # takes outside rows, multiply_to_coordinates, checks their length
        target = invariant_basis(top_element(2, 4), 2)
        with pytest.raises(ValueError, match="has length"):
            multiply_to_coordinates(X1_N3, X1_N3, target)

    def test_bound_violation(self):
        assert rows_are_standard(X1_N3)
        assert not rows_are_standard(X1_N3, (2, 4, 5))

    def test_bounded_implies_unbounded(self):
        w4 = distinguished_w(4, 3)
        for rows in enumerate_standard(2, 3, 6, bound=w4):
            assert rows_are_standard(rows)


class TestContentAndWeight:
    def test_degree_one_content(self):
        assert monomial_content(X1_N3, 6) == (1, 1, 1, 1, 1, 1)

    def test_degree_two_content(self):
        assert monomial_content(Y1_N3, 6) == (2, 2, 2, 2, 2, 2)

    def test_partial_content(self):
        assert monomial_content(((1, 2),), 4) == (1, 1, 0, 0)

    def test_weight_equals_content(self):
        assert monomial_content(X1_N3, 6) == (1, 1, 1, 1, 1, 1)
        assert monomial_content(((1, 3),), 4) == (1, 0, 1, 0)

    def test_weight_additive_under_concatenation(self):
        rng = random.Random(5)
        rows_pool = list(itertools.combinations(range(1, 7), 3))
        for _ in range(50):
            a = tuple(sorted(rng.sample(rows_pool, 2)))
            b = tuple(sorted(rng.sample(rows_pool, 2)))
            assert monomial_content(a + b, 6) == tuple(
                x + y for x, y in zip(monomial_content(a, 6), monomial_content(b, 6))
            )

    def test_doubled_tableau_weight(self):
        assert monomial_content(X1_N3 + X1_N3, 6) == (2, 2, 2, 2, 2, 2)


class TestTorusInvariance:
    """A factor of `multiply_to_coordinates` must have constant content."""

    def test_degree_one_invariant(self):
        rows = ((1, 2, 5), (3, 4, 6))
        target = invariant_basis(distinguished_w(5, 3), 2)
        assert multiply_to_coordinates(rows, rows, target) == [
            int(m == tuple(sorted(rows + rows))) for m in target
        ]

    def test_missing_value(self):
        target = invariant_basis(top_element(2, 4), 2)
        with pytest.raises(ValueError, match="not torus invariant"):
            multiply_to_coordinates(((1, 2), (1, 3)), ((1, 2), (3, 4)), target)

    def test_degree_two_invariant(self):
        target = invariant_basis(distinguished_w(5, 3), 3)
        coords = multiply_to_coordinates(Y2_N3, X1_N3, target)
        assert coords == [int(m == tuple(sorted(Y2_N3 + X1_N3))) for m in target]


class TestEnumerateStandard:
    def test_single_rows_are_subsets(self):
        assert enumerate_standard(1, 2, 4) == [
            (row,) for row in itertools.combinations(range(1, 5), 2)
        ]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_degree_one_invariant_cell_has_five_elements(self, n):
        got = enumerate_standard(
            2, n, 2 * n, bound=distinguished_w(5, n), content=(1,) * (2 * n)
        )
        assert len(got) == 5

    def test_output_is_sorted_tuples_of_increasing_rows(self):
        got = enumerate_standard(3, 2, 5, bound=IndexTuple((3, 5), 5))
        assert got == sorted(got)
        for rows in got:
            assert type(rows) is tuple and rows == tuple(sorted(rows))
            for row in rows:
                assert type(row) is tuple and len(row) == 2 and 1 <= row[0] < row[1] <= 5

    def test_two_by_two_unbounded(self):
        assert len(enumerate_standard(2, 2, 4)) == 20

    def test_canonical_order_is_flattened_lex(self):
        got = enumerate_standard(2, 2, 4)
        flat = [sum(rows, ()) for rows in got]
        assert flat == sorted(flat)

    def test_content_constraint_gives_sublist(self):
        full = enumerate_standard(2, 2, 4)
        constrained = enumerate_standard(2, 2, 4, content=(1, 1, 1, 1))
        assert [r for r in full if r in set(constrained)] == constrained

    def test_bound_monotonicity_along_chain(self):
        chain = [distinguished_w(i, 3) for i in (1, 2, 4, 5)]
        previous: set = set()
        for w in chain:
            current = set(enumerate_standard(4, 3, 6, bound=w))
            assert previous <= current
            previous = current

    def test_rejects_inconsistent_content(self):
        with pytest.raises(ValueError):
            enumerate_standard(2, 2, 4, content=(1, 1, 1))  # wrong length
        with pytest.raises(ValueError):
            enumerate_standard(2, 2, 4, content=(1, 1, 1, 2))  # wrong sum
        with pytest.raises(ValueError):
            enumerate_standard(2, 2, 4, content=(-1, 2, 2, 1))

    def test_rejects_bad_bound_shape(self):
        with pytest.raises(ValueError):
            enumerate_standard(2, 2, 4, bound=IndexTuple((1, 2, 3), 6))

    @pytest.mark.parametrize(
        "shape_rows,r,n,bound,cont",
        [
            (2, 2, 4, None, None),
            (2, 2, 4, None, (1, 1, 1, 1)),
            (3, 2, 5, None, None),
            (2, 3, 6, (4, 5, 6), (1, 1, 1, 1, 1, 1)),
            (2, 3, 6, (3, 5, 6), None),
            (4, 2, 4, (3, 4), (2, 2, 2, 2)),
            (3, 3, 6, (2, 4, 6), None),
            (4, 3, 6, (4, 5, 6), (2, 2, 2, 2, 2, 2)),
        ],
    )
    def test_matches_brute_force_oracle(self, shape_rows, r, n, bound, cont):
        bound_it = IndexTuple(bound, n) if bound else None
        got = enumerate_standard(shape_rows, r, n, bound=bound_it, content=cont)
        expected = brute_force_standard(shape_rows, r, n, bound=bound, content=cont)
        assert got == expected

    def test_every_output_is_standard_with_right_content(self):
        w = distinguished_w(5, 3)
        for rows in enumerate_standard(4, 3, 6, bound=w, content=(2,) * 6):
            assert rows_are_standard(rows, w.values)
            assert monomial_content(rows, 6) == (2,) * 6

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(enumeration_inputs())
    def test_matches_brute_force_oracle_on_random_inputs(self, args):
        shape_rows, r, n, bound, cont = args
        bound_it = IndexTuple(bound, n) if bound else None
        got = enumerate_standard(shape_rows, r, n, bound=bound_it, content=cont)
        assert got == brute_force_standard(shape_rows, r, n, bound=bound, content=cont)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(enumeration_inputs())
    def test_count_matches_enumeration_and_oracle_on_random_inputs(self, args):
        shape_rows, r, n, bound, cont = args
        bound_it = IndexTuple(bound, n) if bound else None
        counted = count_standard(shape_rows, r, n, bound=bound_it, content=cont)
        listed = enumerate_standard(shape_rows, r, n, bound=bound_it, content=cont)
        assert counted == len(listed)
        assert counted == len(brute_force_standard(shape_rows, r, n, bound=bound, content=cont))

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_row_backtracker_on_every_invariant_piece(self, n):
        # the strip walk against the row-by-row backtracker it replaced,
        # order included, for R_1..R_3 on every X(w) in G(n, 2n), and for
        # the two-row monomials of any content
        for values in itertools.combinations(range(1, 2 * n + 1), n):
            w = IndexTuple(values, 2 * n)
            got = enumerate_standard(2, n, 2 * n, bound=w)
            assert got == reference_enumerate_standard(2, n, 2 * n, bound=values)
            for k in (1, 2, 3):
                cont = (k,) * (2 * n)
                got = enumerate_standard(2 * k, n, 2 * n, bound=w, content=cont)
                expected = reference_enumerate_standard(2 * k, n, 2 * n, bound=values, content=cont)
                assert got == expected

    def test_invariant_counts_on_g_5_10_match_enumeration(self):
        w = top_element(5, 10)
        for k in (1, 2, 3):
            cont = (k,) * 10
            counted = count_standard(2 * k, 5, 10, bound=w, content=cont)
            assert counted == len(enumerate_standard(2 * k, 5, 10, bound=w, content=cont))
        assert counted == 25059

    def test_count_rejects_what_enumeration_rejects(self):
        with pytest.raises(ValueError):
            count_standard(2, 2, 4, content=(1, 1, 1, 2))
        with pytest.raises(ValueError):
            count_standard(0, 2, 4)
        with pytest.raises(ValueError):
            count_standard(2, 2, 4, bound=IndexTuple((1, 2, 3), 6))

    def test_calls_leave_no_reference_cycles(self):
        # the recursive walks drop their self-references before returning,
        # so a call's tables are freed by reference counting alone
        w = distinguished_w(5, 4)
        calls = [
            lambda: enumerate_standard(2, 4, 8, bound=w, content=(1,) * 8),
            lambda: count_standard(2, 4, 8, bound=w, content=(1,) * 8),
            lambda: enumerate_standard(3, 2, 5),
        ]
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for call in calls:
                call()
                assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
