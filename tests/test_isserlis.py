"""Pair-partition counts and Gaussian moment components."""

import itertools

import numpy as np
import pytest

from perinull import (
    InvalidInputError,
    MomentTable,
    UnsupportedOrderError,
    isserlis_moment,
    pair_partition_count,
    pair_partitions,
)


def random_spd(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + dim * np.eye(dim)


class TestPairPartitions:
    @pytest.mark.parametrize("w, count", [(2, 1), (4, 3), (6, 15), (8, 105),
                                          (10, 945), (12, 10395)])
    def test_double_factorial_counts(self, w, count):
        assert pair_partition_count(w) == count

    @pytest.mark.parametrize("w", [4, 6, 8])
    def test_enumerated_count_matches(self, w):
        enumerated = sum(1 for _ in pair_partitions(list(range(w))))
        assert enumerated == pair_partition_count(w)

    def test_partitions_are_distinct_and_cover(self):
        seen = set()
        for pairing in pair_partitions([0, 1, 2, 3, 4, 5]):
            key = frozenset(frozenset(p) for p in pairing)
            assert key not in seen
            seen.add(key)
            assert sorted(i for pair in pairing for i in pair) == [0, 1, 2, 3, 4, 5]
        assert len(seen) == 15

    def test_odd_w_rejected(self):
        # a float, even an integral one, is refused rather than counted
        for w in (5, 6.0, 1e200):
            with pytest.raises(InvalidInputError):
                pair_partition_count(w)


class TestIsserlisMoment:
    def test_identity_covariance_order_four(self):
        eye = np.eye(3)
        assert isserlis_moment((0, 1, 2, 0), eye) == 0.0
        assert isserlis_moment((0, 0, 1, 1), eye) == 1.0
        assert isserlis_moment((0, 0, 0, 0), eye) == 3.0

    def test_fourth_order_pairing_formula(self):
        rng = np.random.default_rng(12)
        cov = random_spd(rng, 3)
        for idx in itertools.product(range(3), repeat=4):
            a, b, c, d = idx
            expected = (cov[a, b] * cov[c, d] + cov[a, c] * cov[b, d]
                        + cov[a, d] * cov[b, c])
            np.testing.assert_allclose(isserlis_moment(idx, cov), expected,
                                       rtol=1e-13)

    def test_odd_moments_are_zero(self):
        rng = np.random.default_rng(13)
        cov = random_spd(rng, 2)
        for w in (1, 3, 5, 7, 11):
            idx = tuple(int(i) for i in rng.integers(0, 2, size=w))
            assert isserlis_moment(idx, cov) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        cov = random_spd(rng, 3)
        idx = (0, 1, 1, 2, 0, 2)
        base = isserlis_moment(idx, cov)
        for perm in itertools.permutations(idx):
            np.testing.assert_allclose(isserlis_moment(perm, cov), base, rtol=1e-12)

    def test_diagonal_covariance_odd_multiplicity_vanishes(self):
        cov = np.diag([1.7, 0.4])
        rng = np.random.default_rng(15)
        for _ in range(30):
            w = int(rng.choice([2, 4, 6, 8]))
            idx = tuple(int(i) for i in rng.integers(0, 2, size=w))
            counts = [idx.count(0), idx.count(1)]
            value = isserlis_moment(idx, cov)
            if any(c % 2 for c in counts):
                assert value == 0.0
            else:
                assert value != 0.0

    def test_order_eight_against_monte_carlo(self):
        rng = np.random.default_rng(16)
        cov = random_spd(rng, 2)
        idx = (0, 0, 1, 0, 1, 1, 0, 1)
        draws = rng.multivariate_normal(np.zeros(2), cov, size=10_000_000)
        products = np.prod(draws[:, list(idx)], axis=1)
        mc = products.mean()
        se = products.std(ddof=1) / np.sqrt(len(products))
        exact = isserlis_moment(idx, cov)
        assert abs(exact - mc) <= 4.0 * se

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            isserlis_moment((0,) * 14, np.eye(1))

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(InvalidInputError):
            isserlis_moment((0, 1), np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestMomentTable:
    def test_dense_matches_componentwise(self):
        """Every even order 2..12 for p = 1, 2, 3 against the pairing
        enumeration, with non-diagonal covariances. Entries with cancellation
        make a plain rtol meaningless, so the error is measured against the
        sum of the absolute pairing products, isserlis_moment(idx, |cov|).
        Sorted multi-indices are checked (all of them when there are at most
        30, else a seeded sample of 30); the symmetry check carries them to
        every ordering."""
        rng = np.random.default_rng(17)
        eps = np.finfo(np.float64).eps
        for dim in (1, 2, 3):
            cov = random_spd(rng, dim)
            table = MomentTable(cov)
            for order in range(2, 13, 2):
                dense = table.dense(order)
                keys = list(itertools.combinations_with_replacement(range(dim), order))
                if len(keys) > 30:
                    keys = [keys[i] for i in rng.choice(len(keys), 30, replace=False)]
                for idx in keys:
                    assert abs(dense[idx] - isserlis_moment(idx, cov)) <= (
                        1e-12 * isserlis_moment(idx, np.abs(cov))), (dim, order, idx)
                peak = np.max(np.abs(dense))
                for _ in range(5):
                    perm = rng.permutation(order)
                    assert np.max(np.abs(np.transpose(dense, perm) - dense)) <= 8 * eps * peak

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(InvalidInputError):
            MomentTable(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_order_twelve_available(self):
        table = MomentTable(np.diag([1.0, 0.5]))
        dense = table.dense(12)
        # the memoized arrays are shared between callers
        assert dense is table.dense(12) and not dense.flags.writeable
        # E[Q1^12] = 11!! for unit variance
        np.testing.assert_allclose(dense[(0,) * 12], 10395.0, rtol=1e-12)
        np.testing.assert_allclose(dense[(1,) * 12], 10395.0 * 0.5 ** 6, rtol=1e-12)
