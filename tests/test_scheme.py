import cmath
import math

import numpy as np
import pytest

from marc_pnc.scheme import (
    SchemeConstants,
    check_full_rank_condition,
    check_hr_orthogonal,
    codeword_matrix,
    example1_constants,
    restricted_diff_matrix,
    weight_matrices,
)
from marc_pnc.signalset import difference_set, make_psk

INV = 1.0 / math.sqrt(2.0)


def det(m) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def random_constants(gen, es=1.0) -> SchemeConstants:
    """Random constants satisfying both unit-energy splits exactly."""
    ta, tb = gen.uniform(0, math.pi / 2, size=2)
    pa, pb, pc, pd = gen.uniform(0, 2 * math.pi, size=4)
    return SchemeConstants(
        a=math.cos(ta) * cmath.exp(1j * pa),
        c=math.sin(ta) * cmath.exp(1j * pc),
        b=math.cos(tb) * cmath.exp(1j * pb),
        d=math.sin(tb) * cmath.exp(1j * pd),
        es=es,
    )


class TestConstants:
    def test_example1_values(self):
        k = example1_constants(1.0)
        assert (k.a, k.b, k.c, k.d) == (1.0 + 0j, INV + 0j, 0j, INV + 0j)
        assert abs(k.a) ** 2 + abs(k.c) ** 2 == pytest.approx(1.0, abs=1e-15)
        assert abs(k.b) ** 2 + abs(k.d) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_energy_invariants_enforced(self):
        with pytest.raises(ValueError, match=r"\|a\|"):
            SchemeConstants(a=1.0, b=INV, c=0.5, d=INV, es=1.0)
        with pytest.raises(ValueError, match=r"\|b\|"):
            SchemeConstants(a=1.0, b=1.0, c=0.0, d=1.0, es=1.0)
        with pytest.raises(ValueError, match="es"):
            example1_constants(0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="b must be finite"):
                SchemeConstants(a=1.0, b=complex(INV, bad), c=0.0, d=INV, es=1.0)
            with pytest.raises(ValueError, match="c must be finite"):
                SchemeConstants(a=1.0, b=INV, c=bad, d=INV, es=1.0)
            with pytest.raises(ValueError, match="es must be finite"):
                example1_constants(bad)
        with pytest.raises(ValueError, match=r"\|a\|"):  # |a|^2 overflows
            SchemeConstants(a=1e200, b=INV, c=0.0, d=INV, es=1.0)


class TestCodewordMatrix:
    def test_example_constants_unit_symbols(self):
        k = example1_constants(1.0)
        c = codeword_matrix(k, 1.0, 1.0, 1.0)
        assert tuple(c[0]) == (1.0 + 0j, 0j)
        assert tuple(c[1]) == (INV + 0j, INV + 0j)
        assert tuple(c[2]) == (0j, 1.0 + 0j)

    def test_zero_symbols(self):
        k = example1_constants(1.0)
        assert not codeword_matrix(k, 0, 0, 0).any()

    def test_first_row_structure(self):
        gen = np.random.default_rng(1)
        for _ in range(20):
            k = random_constants(gen)
            xa = complex(*gen.standard_normal(2))
            c = codeword_matrix(k, xa, 1j, -1.0)
            assert c[0, 0] == k.a * xa
            assert c[0, 1] == k.c * xa


class TestRestrictedDiffMatrix:
    def test_example1_determinant(self):
        k = example1_constants(1.0)
        d = det(restricted_diff_matrix(k, 1 + 1j, 2.0))
        assert d == pytest.approx(math.sqrt(2) * (1 + 1j), abs=1e-12)

    def test_zero_difference_rank_deficient(self):
        k = example1_constants(1.0)
        assert det(restricted_diff_matrix(k, 0.0, 2 + 1j)) == 0.0

    def test_proportional_rows_give_zero_det(self):
        k = SchemeConstants(a=INV, b=INV, c=INV, d=INV, es=1.0)
        gen = np.random.default_rng(2)
        for _ in range(20):
            da, db = (complex(*gen.standard_normal(2)) for _ in range(2))
            assert abs(det(restricted_diff_matrix(k, da, db))) < 1e-12

    def test_det_factorisation_identity(self):
        # det = (ad - cb) * da * db for any constants and differences
        gen = np.random.default_rng(3)
        for _ in range(100):
            k = random_constants(gen)
            da, db = (complex(*gen.standard_normal(2)) for _ in range(2))
            got = det(restricted_diff_matrix(k, da, db))
            want = (k.a * k.d - k.c * k.b) * da * db
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))


class TestFullRankCondition:
    def test_example1_on_4psk_and_8psk(self):
        k = example1_constants(1.0)
        assert check_full_rank_condition(k, make_psk(4))
        assert check_full_rank_condition(k, make_psk(8))

    def test_flat_constants_fail(self):
        k = SchemeConstants(a=INV, b=INV, c=INV, d=INV, es=1.0)
        assert not check_full_rank_condition(k, make_psk(4))

    def test_8psk_bruteforce_oracle(self):
        # independent check: every nonzero difference pair has nonzero det
        k = example1_constants(1.0)
        s = make_psk(8)
        diffs = [d for d in difference_set(s) if d != 0]
        ok = all(abs(da * db / math.sqrt(2)) > 1e-9 for da in diffs for db in diffs)
        assert check_full_rank_condition(k, s) == ok

    def test_matches_ad_minus_cb_predicate(self):
        gen = np.random.default_rng(4)
        s = make_psk(4)
        for _ in range(100):
            k = random_constants(gen)
            predicate = abs(k.a * k.d - k.c * k.b) > 1e-6
            assert check_full_rank_condition(k, s) == predicate


class TestWeightMatrices:
    def test_example1_shapes_and_values(self):
        wm = weight_matrices(example1_constants(1.0))
        assert wm.wa.shape == wm.wb.shape == wm.wr.shape == (3, 2)
        assert tuple(wm.wa[0]) == (1.0 + 0j, 0j)
        assert tuple(wm.wa[1]) == (0j, 0j)
        assert tuple(wm.wb[1]) == (INV + 0j, INV + 0j)
        assert tuple(wm.wr[2]) == (0j, 1.0 + 0j)

    def test_relay_weights_constant(self):
        gen = np.random.default_rng(5)
        fixed = weight_matrices(example1_constants(1.0)).wr
        for _ in range(10):
            assert np.array_equal(weight_matrices(random_constants(gen)).wr, fixed)


class TestHrOrthogonality:
    def test_example1_wa_wr(self):
        wm = weight_matrices(example1_constants(1.0))
        assert check_hr_orthogonal(wm.wa, wm.wr)

    def test_example1_wa_times_wr_star_is_zero(self):
        wm = weight_matrices(example1_constants(1.0))
        prod = wm.wa @ wm.wr.conj().T
        assert prod.shape == (3, 3)
        assert np.abs(prod).max() == 0.0

    def test_example1_wb_wr_fails(self):
        # product leaves 1/sqrt(2) at entry (2, 3) of the symmetrised sum
        wm = weight_matrices(example1_constants(1.0))
        assert not check_hr_orthogonal(wm.wb, wm.wr)

    def test_self_pairing_fails_unless_zero(self):
        gen = np.random.default_rng(6)
        for _ in range(10):
            wm = weight_matrices(random_constants(gen))
            assert not check_hr_orthogonal(wm.wa, wm.wa)

    def test_c_zero_implies_orthogonality(self):
        gen = np.random.default_rng(7)
        for _ in range(20):
            phase = cmath.exp(1j * gen.uniform(0, 2 * math.pi))
            tb = gen.uniform(0, math.pi / 2)
            k = SchemeConstants(a=phase, b=math.cos(tb), c=0.0, d=math.sin(tb), es=1.0)
            wm = weight_matrices(k)
            assert check_hr_orthogonal(wm.wa, wm.wr)

    def test_shape_mismatch(self):
        wm = weight_matrices(example1_constants(1.0))
        with pytest.raises(ValueError):
            check_hr_orthogonal(wm.wa, restricted_diff_matrix(example1_constants(1.0), 1, 1))
