import numpy as np
import pytest

from marc_pnc.signalset import difference_set, make_psk


class TestMakePsk:
    def test_bpsk_points(self):
        pts = make_psk(2)
        assert pts[0] == pytest.approx(1.0)
        assert pts[1] == pytest.approx(-1.0)

    def test_qpsk_points(self):
        pts = make_psk(4)
        assert pts.shape == (4,) and pts.dtype == np.complex128
        expected = [1.0, 1j, -1.0, -1j]
        for p, e in zip(pts.tolist(), expected):
            assert p == pytest.approx(e, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_unit_energy(self, m):
        assert all(abs(abs(p) ** 2 - 1.0) < 1e-12 for p in make_psk(m).tolist())

    @pytest.mark.parametrize("m", [3, 6, 12, 0, 1])
    def test_non_power_of_two_rejected(self, m):
        with pytest.raises(ValueError):
            make_psk(m)

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_points_sum_to_zero(self, m):
        assert abs(sum(make_psk(m).tolist())) < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_point_count_must_be_a_power_of_two(self, n):
        with pytest.raises(ValueError, match=f"the number of points must be a power of two >= 2, got {n}"):
            make_psk(n)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_points_are_distinct(self, m):
        points = make_psk(m).tolist()
        assert all(abs(points[i] - points[j]) > 1e-9 for i in range(m) for j in range(i))


class TestDifferenceSet:
    def test_bpsk(self):
        values = difference_set(make_psk(2))
        assert sorted((round(v.real, 9), round(v.imag, 9)) for v in values) == [(-2.0, 0.0), (0.0, 0.0), (2.0, 0.0)]

    def test_qpsk_nine_values(self):
        # brute-force expectation over all 16 ordered pairs
        expected = {(0, 0), (2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (1, -1), (-1, 1), (-1, -1)}
        values = difference_set(make_psk(4))
        got = {(round(v.real, 9), round(v.imag, 9)) for v in values}
        assert got == {(float(a), float(b)) for a, b in expected}

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_contains_zero(self, m):
        values = difference_set(make_psk(m))
        assert any(abs(v) < 1e-12 for v in values)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_negation_symmetry(self, m):
        values = difference_set(make_psk(m))
        for v in values:
            assert any(abs(v + w) < 1e-9 for w in values)

    def test_count_matches_bruteforce(self):
        pts = make_psk(8)
        brute = []
        for x in pts.tolist():
            for xp in pts.tolist():
                d = x - xp
                if not any(abs(d - v) < 1e-12 for v in brute):
                    brute.append(d)
        assert len(difference_set(pts)) == len(brute)
