import numpy as np
import pytest

from marc_pnc.netmap import LatinSquare, apply_map, check_exclusive_law, modulo_latin, xor_latin
from marc_pnc.signalset import make_psk


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
        assert f.cells[1] == (1, 2, 3, 0)
        assert f.cells[3] == (3, 0, 1, 2)

    def test_modulo2_is_xor(self):
        assert modulo_latin(2).cells == xor_latin(2).cells == ((0, 1), (1, 0))

    def test_xor4_rows(self):
        f = xor_latin(4)
        assert f.cells[1] == (1, 0, 3, 2)
        assert f.cells[3] == (3, 2, 1, 0)

    def test_xor_diagonal_zero(self):
        f = xor_latin(8)
        assert all(f.cells[i][i] == 0 for i in range(8))

    def test_xor_requires_power_of_two(self):
        with pytest.raises(ValueError):
            xor_latin(6)

    def test_modulo_requires_order_two(self):
        with pytest.raises(ValueError):
            modulo_latin(1)


class TestExclusiveLaw:
    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_generated_maps_satisfy_it(self, m):
        assert check_exclusive_law(modulo_latin(m).cells)
        assert check_exclusive_law(xor_latin(m).cells)

    def test_constant_map_fails(self):
        assert not check_exclusive_law([[0] * 4 for _ in range(4)])

    def test_first_argument_only_map_fails(self):
        # ignores the second source: repeated values along each row
        assert not check_exclusive_law([[r] * 4 for r in range(4)])

    def test_single_repeated_cell_fails(self):
        cells = [list(r) for r in modulo_latin(4).cells]
        cells[2][1] = cells[2][0]
        assert not check_exclusive_law(cells)

    def test_agrees_with_reference_predicate_on_random_grids(self):
        gen = np.random.default_rng(31)
        for _ in range(300):
            m = int(gen.integers(2, 6))
            if gen.random() < 0.5:
                cells = [list(r) for r in modulo_latin(m).cells]
                if gen.random() < 0.7:
                    # random corruption
                    i, j = gen.integers(0, m, size=2)
                    cells[i][j] = int(gen.integers(0, m))
            else:
                cells = gen.integers(0, m, size=(m, m)).tolist()
            assert check_exclusive_law(cells) == is_latin_square_reference(cells)

    def test_latin_square_type_rejects_violators(self):
        with pytest.raises(ValueError, match="Latin"):
            LatinSquare(((0, 1), (0, 1)))
        with pytest.raises(ValueError, match="values"):
            LatinSquare(((0, 5), (5, 0)))


class TestApplyMap:
    def test_modulo_cell_lookup(self):
        s = make_psk(4)
        # cell (1, 2) of the modulo map holds index 3, the point -i
        assert apply_map(modulo_latin(4), s, 1, 2) == pytest.approx(-1j)

    def test_origin_cell(self):
        s = make_psk(4)
        assert apply_map(modulo_latin(4), s, 0, 0) == s.points[0]

    def test_xor_diagonal(self):
        s = make_psk(4)
        assert apply_map(xor_latin(4), s, 3, 3) == s.points[0]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            apply_map(modulo_latin(4), make_psk(4), 4, 0)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            apply_map(modulo_latin(8), make_psk(4), 0, 0)


class TestSerialization:
    def test_text_format(self):
        assert modulo_latin(2).to_text() == "0 1\n1 0"
