import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from marc_pnc.numerics import complex_gaussian, first_min, first_pair_min, philox_stream, qr_2x3
from oracles import one_gaussian

ATOL = 1e-10


def factor(h):
    """q and r for each 2x3 matrix of ``h``, with q recovered from q* by
    rotating the two unit vectors."""
    h = np.asarray(h, dtype=np.complex128).reshape(-1, 2, 3)
    assert np.all(h[:, 0, 2] == 0), "the scheme's equivalent channel has h13 = 0"
    entries = (h[:, 0, 0], h[:, 1, 0], h[:, 0, 1], h[:, 1, 1], h[:, 1, 2])
    one = np.ones(len(h), dtype=np.complex128)
    zero = np.zeros(len(h), dtype=np.complex128)
    e1 = qr_2x3(*entries, one, zero)
    e2 = qr_2x3(*entries, zero, one)
    qstar = np.stack([np.stack([e1.yt1, e2.yt1], -1), np.stack([e1.yt2, e2.yt2], -1)], -2)
    r = np.stack([np.stack([e1.r11, e1.r12, e1.r13], -1), np.stack([e1.r21, e1.r22, e1.r23], -1)], -2)
    return np.conj(np.swapaxes(qstar, -1, -2)), r


def reconstruction_error(h, q, r):
    return float(np.abs(q @ r - np.asarray(h).reshape(-1, 2, 3)).max())


def unitarity_error(q):
    return float(np.abs(np.conj(np.swapaxes(q, -1, -2)) @ q - np.eye(2)).max())


def random_channels(gen, n):
    h = gen.standard_normal((n, 2, 3)) + 1j * gen.standard_normal((n, 2, 3))
    h[:, 0, 2] = 0.0
    return h


# A few values drawn often, so that columns hold many ties (signed zeros
# compare equal), mixed with arbitrary non-NaN floats.
TIE_VALUES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, math.inf])
METRIC_VALUES = st.one_of(TIE_VALUES, st.floats(allow_nan=False))


def metric_arrays(shape):
    return hnp.arrays(np.float64, shape, elements=METRIC_VALUES)


class TestFirstMin:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.data(), st.sampled_from([1, 2, 3, 4, 8, 16, 64]), st.integers(1, 64))
    def test_matches_min_and_argmin(self, data, rows, n):
        v = data.draw(metric_arrays((rows, n)))
        vmin, idx = first_min(v)
        assert np.array_equal(vmin, v.min(axis=0))
        assert np.array_equal(idx, v.argmin(axis=0))
        assert idx.dtype == np.intp

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data(), st.sampled_from([1, 2, 4, 16]), st.integers(1, 16), st.integers(1, 16))
    def test_scans_the_first_axis_of_a_3d_array(self, data, rows, m, n):
        v = data.draw(metric_arrays((rows, m, n)))
        vmin, idx = first_min(v)
        assert np.array_equal(vmin, v.min(axis=0))
        assert np.array_equal(idx, v.argmin(axis=0))


def brute_first_pair(blocks):
    """Per frame, the pair (i, j) that sorts first by (value, i, j)."""
    n = blocks[0].shape[1]
    return [
        min((float(v[j, f]), i, j) for i, v in enumerate(blocks) for j in range(v.shape[0]))[1:]
        for f in range(n)
    ]


def pairs(best):
    return list(zip(*(a.tolist() for a in best)))


class TestFirstPairMin:
    def test_tie_across_blocks_keeps_the_earlier_block(self):
        blocks = [np.array([[3.0], [1.0]]), np.array([[1.0], [5.0]]), np.array([[4.0], [1.0]])]
        assert pairs(first_pair_min(blocks)) == [(0, 1)] == brute_first_pair(blocks)

    def test_tie_within_a_block_keeps_the_smaller_j(self):
        blocks = [np.array([[3.0], [2.0]]), np.array([[5.0], [1.0], [-0.0], [0.0], [0.0]])]
        assert pairs(first_pair_min(blocks)) == [(1, 2)] == brute_first_pair(blocks)

    def test_all_equal_blocks_give_the_first_pair(self):
        blocks = [np.full((4, 3), 7.0) for _ in range(4)]
        assert pairs(first_pair_min(blocks)) == [(0, 0)] * 3 == brute_first_pair(blocks)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data(), st.integers(1, 5), st.integers(1, 5), st.integers(1, 8))
    def test_matches_a_sort_by_value_then_indices(self, data, count, rows, n):
        blocks = [data.draw(metric_arrays((rows, n))) for _ in range(count)]
        assert pairs(first_pair_min(blocks)) == brute_first_pair(blocks)


class TestQr2x3:
    def test_hand_worked_example(self):
        # First column already (1, 0): no rotation needed, so Q = I, R = H,
        # and the top-right entry is exactly zero.
        inv = 1.0 / math.sqrt(2.0)
        h = [[1.0, inv, 0.0], [0.0, inv, 1.0]]
        q, r = factor(h)
        assert np.abs(q - np.eye(2)).max() < ATOL
        assert np.abs(r - np.asarray(h)).max() < ATOL
        assert r[0, 0, 2] == 0.0

    def test_orthonormal_rows_input(self):
        inv = 1.0 / math.sqrt(2.0)
        h = [[inv, inv, 0.0], [inv * 1j, -inv * 1j, 0.0]]
        q, r = factor(h)
        assert r[0, 1, 0] == 0.0
        assert reconstruction_error(h, q, r) < ATOL

    def test_random_reconstruction_and_unitarity(self):
        h = random_channels(np.random.default_rng(2), 100_000)
        q, r = factor(h)
        assert np.all(r[:, 1, 0] == 0.0)
        assert np.all(r[:, 0, 0].imag == 0.0) and np.all(r[:, 0, 0].real >= 0.0)
        assert np.all(r[:, 1, 1].imag == 0.0) and np.all(r[:, 1, 1].real >= 0.0)
        assert reconstruction_error(h, q, r) < ATOL
        assert unitarity_error(q) < ATOL

    def test_zero_first_column_does_not_crash(self):
        h = [[0.0, 1.0 + 1j, 0.0], [0.0, 3.0, 1j]]
        q, r = factor(h)
        assert r[0, 0, 0] == 0.0
        assert r[0, 1, 0] == 0.0
        assert reconstruction_error(h, q, r) < ATOL
        assert unitarity_error(q) < ATOL

    def test_zero_top_left_entry(self):
        h = [[0.0, 1.0, 0.0], [2j, 3.0, 1.0]]
        q, r = factor(h)
        assert reconstruction_error(h, q, r) < ATOL
        assert r[0, 0, 0] == pytest.approx(2.0)

    def test_rank_deficient_left_block(self):
        # h11 h22 - h21 h12 = 0: the rotated (2, 2) entry is exactly zero, so
        # its phase normalisation must fall back to 1 without a warning.
        h = [[1.0, 2.0, 0.0], [1.0, 2.0, 1j]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, r = factor(h)
        assert r[0, 1, 1] == 0.0
        assert r[0, 1, 0] == 0.0
        assert reconstruction_error(h, q, r) < ATOL
        assert unitarity_error(q) < ATOL

    def test_r13_vanishes_under_orthogonality_condition(self):
        # Channels built with c = 0 put an exact zero in position (2, 1),
        # which must propagate to a vanishing (1, 3) entry.
        gen = np.random.default_rng(3)
        inv = 1.0 / math.sqrt(2.0)
        h_ad, h_bd, h_rd = (gen.standard_normal(2000) + 1j * gen.standard_normal(2000) for _ in range(3))
        zero = np.zeros(2000, dtype=np.complex128)
        qr = qr_2x3(h_ad, zero, inv * h_bd, inv * h_bd, h_rd, zero, zero)
        assert np.abs(qr.r13).max() < 1e-10


class TestGaussianSampling:
    def test_rejects_bad_variance(self):
        rng = philox_stream(1, 0)
        with pytest.raises(ValueError):
            complex_gaussian(rng, 0.0, 1)
        with pytest.raises(ValueError):
            complex_gaussian(rng, -1.0, 1)

    def test_determinism_same_key(self):
        a = philox_stream(1234, 5)
        b = philox_stream(1234, 5)
        seq_a = [one_gaussian(a, 1.0) for _ in range(64)]
        seq_b = [one_gaussian(b, 1.0) for _ in range(64)]
        assert seq_a == seq_b

    def test_distinct_streams_differ(self):
        a = philox_stream(1234, 5)
        b = philox_stream(1234, 6)
        assert [one_gaussian(a, 1.0) for _ in range(8)] != [one_gaussian(b, 1.0) for _ in range(8)]

    def test_keys_are_masked_to_64_bit_words(self):
        a = philox_stream(-1, (1 << 64) + 3)
        b = philox_stream((1 << 64) - 1, 3)
        assert a.random(4).tolist() == b.random(4).tolist()

    def test_second_moment(self):
        z = complex_gaussian(philox_stream(7, 0), 1.0, 10**6)
        mean_sq = float(np.mean(z.real**2 + z.imag**2))
        assert 0.99 <= mean_sq <= 1.01

    def test_real_part_variance_sigma2_2(self):
        z = complex_gaussian(philox_stream(8, 0), 2.0, 10**6)
        assert float(np.var(z.real)) == pytest.approx(1.0, rel=0.01)

    def test_kolmogorov_smirnov_real_part(self):
        n = 10**5
        z = complex_gaussian(philox_stream(9, 0), 1.0, n)
        stat, _ = stats.kstest(z.real, "norm", args=(0.0, math.sqrt(0.5)))
        # 1% critical value of the one-sample KS statistic
        assert stat < 1.628 / math.sqrt(n)
