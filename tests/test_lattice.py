import itertools

import pytest

from schubert_smt.lattice import IndexTuple, distinguished_w, leq_componentwise

from helpers import apply_simple_reflection


class TestIndexTuple:
    def test_well_formed(self):
        t = IndexTuple([1, 3, 5], 6)
        assert t.values == (1, 3, 5)
        assert t.r == 3 and t.n == 6

    def test_rejects_not_increasing(self):
        with pytest.raises(ValueError):
            IndexTuple([3, 1], 6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            IndexTuple([0, 2], 4)
        with pytest.raises(ValueError):
            IndexTuple([2, 7], 6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IndexTuple([], 4)

    def test_matches_minimal_representative(self):
        assert IndexTuple([2, 4, 6], 6).values == distinguished_w(1, 3).values


class TestComponentwiseOrder:
    def test_examples(self):
        a = IndexTuple((1, 3, 5), 6)
        b = IndexTuple((2, 4, 6), 6)
        assert leq_componentwise(a, b)
        assert not leq_componentwise(
            IndexTuple((1, 4), 6), IndexTuple((2, 3), 6)
        )
        assert leq_componentwise(distinguished_w(1, 3), distinguished_w(5, 3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            leq_componentwise(IndexTuple((1, 2), 4), IndexTuple((1, 2, 3), 6))

    def test_partial_order_axioms_on_i36(self):
        elems = [IndexTuple(v, 6) for v in itertools.combinations(range(1, 7), 3)]
        assert len(elems) == 20
        for a in elems:
            assert leq_componentwise(a, a)
        for a, b in itertools.permutations(elems, 2):
            if leq_componentwise(a, b) and leq_componentwise(b, a):
                assert a == b
        for a, b, c in itertools.product(elems, repeat=3):
            if leq_componentwise(a, b) and leq_componentwise(b, c):
                assert leq_componentwise(a, c)


class TestDistinguishedW:
    def test_values_at_n3(self):
        expected = [(2, 4, 6), (3, 4, 6), (2, 5, 6), (3, 5, 6), (4, 5, 6)]
        assert [distinguished_w(i, 3).values for i in range(1, 6)] == expected

    def test_pattern_instances(self):
        assert distinguished_w(4, 4).values == (2, 5, 7, 8)
        assert distinguished_w(2, 5).values == (2, 4, 7, 8, 10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            distinguished_w(0, 3)
        with pytest.raises(ValueError):
            distinguished_w(6, 3)
        with pytest.raises(ValueError):
            distinguished_w(1, 2)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_reflection_word_oracle(self, n):
        # w2..w5 are obtained from w1 by the stated left reflection words;
        # on value sets a left s_i just swaps i <-> i+1.
        w1 = set(distinguished_w(1, n).values)
        words = {
            2: [2 * n - 4],
            3: [2 * n - 2],
            4: [2 * n - 4, 2 * n - 2],
            5: [2 * n - 2, 2 * n - 4, 2 * n - 3],
        }
        for i, word in words.items():
            values = tuple(sorted(w1))
            for s in word:
                values = apply_simple_reflection(values, s)
            assert values == distinguished_w(i, n).values

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_sublattice_relations(self, n):
        ws = {i: distinguished_w(i, n) for i in range(1, 6)}
        for i in range(2, 6):
            assert leq_componentwise(ws[1], ws[i])
        assert leq_componentwise(ws[2], ws[4])
        assert leq_componentwise(ws[3], ws[4])
        assert leq_componentwise(ws[4], ws[5])
        # the middle two are incomparable
        assert not leq_componentwise(ws[2], ws[3])
        assert not leq_componentwise(ws[3], ws[2])

