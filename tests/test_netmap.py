import numpy as np
import pytest

from marc_pnc.netmap import check_exclusive_law, modulo_latin, xor_latin


def is_latin_square_reference(cells) -> bool:
    """Independent predicate: every line is a permutation of 0..M-1."""
    m = len(cells)
    want = list(range(m))
    for row in cells:
        if sorted(row) != want:
            return False
    for c in range(m):
        if sorted(cells[r][c] for r in range(m)) != want:
            return False
    return True


class TestGenerators:
    def test_modulo4_rows(self):
        f = modulo_latin(4)
        assert f.shape == (4, 4) and f.dtype == np.int64
        assert f[1].tolist() == [1, 2, 3, 0]
        assert f[3].tolist() == [3, 0, 1, 2]

    def test_modulo2_is_xor(self):
        assert modulo_latin(2).tolist() == xor_latin(2).tolist() == [[0, 1], [1, 0]]

    def test_xor4_rows(self):
        f = xor_latin(4)
        assert f.shape == (4, 4) and f.dtype == np.int64
        assert f[1].tolist() == [1, 0, 3, 2]
        assert f[3].tolist() == [3, 2, 1, 0]

    def test_xor_diagonal_zero(self):
        f = xor_latin(8)
        assert all(f[i, i] == 0 for i in range(8))

    def test_xor_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power of two >= 2, got 6"):
            xor_latin(6)

    def test_modulo_requires_order_two(self):
        with pytest.raises(ValueError, match=">= 2, got 1"):
            modulo_latin(1)


class TestExclusiveLaw:
    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_generated_maps_satisfy_it(self, m):
        for f in (modulo_latin(m), xor_latin(m)):
            assert check_exclusive_law(f)
            assert is_latin_square_reference(f.tolist())  # every value also lies in [0, M)

    def test_constant_map_fails(self):
        assert not check_exclusive_law([[0] * 4 for _ in range(4)])

    def test_first_argument_only_map_fails(self):
        # ignores the second source: repeated values along each row
        assert not check_exclusive_law([[r] * 4 for r in range(4)])

    def test_single_repeated_cell_fails(self):
        cells = modulo_latin(4).tolist()
        cells[2][1] = cells[2][0]
        assert not check_exclusive_law(cells)

    def test_agrees_with_reference_predicate_on_random_grids(self):
        gen = np.random.default_rng(31)
        for _ in range(300):
            m = int(gen.integers(2, 6))
            if gen.random() < 0.5:
                cells = modulo_latin(m).tolist()
                if gen.random() < 0.7:
                    # random corruption
                    i, j = gen.integers(0, m, size=2)
                    cells[i][j] = int(gen.integers(0, m))
            else:
                cells = gen.integers(0, m, size=(m, m)).tolist()
            assert check_exclusive_law(cells) == is_latin_square_reference(cells)
