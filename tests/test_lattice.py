import itertools
import random

import pytest

from schubert_smt.lattice import (
    IndexTuple,
    apply_coset_to_weight,
    distinguished_w,
    extend_to_permutation,
    fundamental_weight_multiple,
    is_dominance_nonpositive,
    leq_componentwise,
    line_bundle_descends,
    minimal_semistable_w,
    top_element,
)

from helpers import apply_simple_reflection


class TestMakeIndexTuple:
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


class TestWeightAction:
    def test_identity_acts_trivially(self):
        ident = IndexTuple((1, 2, 3), 6)
        lam = (3, -1, 0, 2, -4, 0)
        assert apply_coset_to_weight(ident, lam) == lam

    def test_doubled_weight_examples(self):
        lam = fundamental_weight_multiple(2, 3, 6)
        assert lam == (1, 1, 1, -1, -1, -1)
        assert apply_coset_to_weight(IndexTuple((2, 4, 6), 6), lam) == (-1, 1, -1, 1, -1, 1)
        assert apply_coset_to_weight(IndexTuple((4, 5, 6), 6), lam) == (-1, -1, -1, 1, 1, 1)

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ValueError):
            apply_coset_to_weight(IndexTuple((1, 2), 4), (1, 0, 0, 0, -1))

    def test_preserves_coordinate_multiset(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 8)
            r = rng.randint(1, n)
            w = IndexTuple(sorted(rng.sample(range(1, n + 1), r)), n)
            lam = tuple(rng.randint(-4, 4) for _ in range(n))
            out = apply_coset_to_weight(w, lam)
            assert sorted(out) == sorted(lam)

    def test_extension_is_a_permutation(self):
        w = IndexTuple((2, 5, 6), 6)
        assert sorted(extend_to_permutation(w)) == list(range(1, 7))
        assert extend_to_permutation(w)[:3] == (2, 5, 6)


class TestDominance:
    def test_zero_weight(self):
        assert is_dominance_nonpositive((0, 0, 0, 0))

    def test_alternating(self):
        assert is_dominance_nonpositive((-1, 1, -1, 1, -1, 1))

    def test_positive_prefix_fails(self):
        assert not is_dominance_nonpositive((1, -1, 0, 0, 0, 0))

    def test_nonzero_total_fails(self):
        assert not is_dominance_nonpositive((-1, 0, 0))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_all_distinguished_weights_nonpositive(self, n):
        lam = fundamental_weight_multiple(2, n, 2 * n)
        for i in range(1, 6):
            mu = apply_coset_to_weight(distinguished_w(i, n), lam)
            assert is_dominance_nonpositive(mu)


class TestDescent:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_doubled_weight_always_descends(self, n):
        assert line_bundle_descends(2, n, 2 * n)

    def test_single_fundamental_weight_on_sl2(self):
        assert not line_bundle_descends(1, 1, 2)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_historical_odd_case(self, n):
        assert line_bundle_descends(n, 2, n)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            line_bundle_descends(1, 0, 4)
        with pytest.raises(ValueError):
            line_bundle_descends(1, 4, 4)

    def test_brute_force_root_lattice_oracle(self):
        # k*omega_r is in the root lattice iff k*omega_r is an integer
        # combination of the simple roots; test small cases directly by
        # solving the triangular system over the rationals.
        from fractions import Fraction

        for m in range(2, 7):
            for r in range(1, m):
                for k in range(1, 2 * m + 1):
                    # coordinates of k*omega_r: k on first r entries, shifted
                    target = [Fraction(k) if i < r else Fraction(0) for i in range(m)]
                    mean = sum(target) / m
                    target = [x - mean for x in target]
                    # c_i from prefix sums: root alpha_i = e_i - e_{i+1}
                    prefix = []
                    acc = Fraction(0)
                    for x in target[:-1]:
                        acc += x
                        prefix.append(acc)
                    integral = all(c.denominator == 1 for c in prefix)
                    assert line_bundle_descends(k, r, m) == integral


class TestMinimalSemistable:
    def test_n2_certificate(self):
        w, hits = minimal_semistable_w(2)
        assert w.values == (2, 4)
        assert sorted(h.values for h in hits) == [(2, 4), (3, 4)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_even_pattern(self, n):
        w, hits = minimal_semistable_w(n)
        assert w.values == tuple(range(2, 2 * n + 1, 2))
        assert all(leq_componentwise(w, h) for h in hits)
        if n >= 3:
            assert w == distinguished_w(1, n)

    def test_top_element_always_semistable(self):
        _, hits = minimal_semistable_w(3)
        assert top_element(3, 6) in hits
