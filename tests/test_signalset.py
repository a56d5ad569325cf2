import cmath

import pytest

from marc_pnc.signalset import SignalSet, difference_set, make_psk


class TestMakePsk:
    def test_bpsk_points(self):
        s = make_psk(2)
        assert s.points[0] == pytest.approx(1.0)
        assert s.points[1] == pytest.approx(-1.0)

    def test_qpsk_points(self):
        s = make_psk(4)
        expected = [1.0, 1j, -1.0, -1j]
        for p, e in zip(s.points, expected):
            assert p == pytest.approx(e, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_unit_energy(self, m):
        s = make_psk(m)
        assert all(abs(abs(p) ** 2 - 1.0) < 1e-12 for p in s.points)

    @pytest.mark.parametrize("m", [3, 6, 12, 0, 1])
    def test_non_power_of_two_rejected(self, m):
        with pytest.raises(ValueError):
            make_psk(m)

    def test_phase_offset(self):
        s = make_psk(4, phase_offset=cmath.pi / 4)
        assert s.points[0] == pytest.approx(cmath.exp(1j * cmath.pi / 4))

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_points_sum_to_zero(self, m):
        assert abs(sum(make_psk(m).points)) < 1e-12

    def test_invalid_signal_set_rejected(self):
        with pytest.raises(ValueError, match="unit energy"):
            SignalSet(points=(2.0 + 0j, -2.0 + 0j), bits_per_symbol=1)
        with pytest.raises(ValueError, match="distinct"):
            SignalSet(points=(1.0 + 0j, 1.0 + 0j), bits_per_symbol=1)


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
        s = make_psk(8)
        brute = []
        for x in s.points:
            for xp in s.points:
                d = x - xp
                if not any(abs(d - v) < 1e-12 for v in brute):
                    brute.append(d)
        assert len(difference_set(s)) == len(brute)

    def test_index_of(self):
        s = make_psk(4)
        for i, p in enumerate(s.points):
            assert s.index_of(p) == i
        with pytest.raises(ValueError):
            s.index_of(0.5 + 0.5j)
