"""Many-to-one relay maps as Latin squares over symbol indices.

The relay compresses the decoded pair (index_a, index_b) to a single
transmit symbol through an M x M table.  For the destination to be able to
disambiguate either source given the other, the table must change value
whenever either argument changes with the other held fixed; tables with
that property are exactly the Latin squares.  The map works on indices so
the combinatorial object stays independent of the constellation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .signalset import SignalSet


@dataclass(frozen=True)
class LatinSquare:
    """M x M table of symbol indices, each appearing once per row and column.

    Rows are indexed by source A's symbol index, columns by source B's.
    """

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.cells)
        if m < 2 or any(len(r) != m for r in self.cells):
            raise ValueError("cells must form a square array of order >= 2")
        if any(not (0 <= v < m) for r in self.cells for v in r):
            raise ValueError(f"cell values must lie in [0, {m})")
        if not check_exclusive_law(self.cells):
            raise ValueError("table is not a Latin square")

    @property
    def order(self) -> int:
        return len(self.cells)

    def to_text(self) -> str:
        """Plain-text grid, one row per line, space-separated indices."""
        return "\n".join(" ".join(str(v) for v in row) for row in self.cells)


def modulo_latin(m: int) -> LatinSquare:
    """Table with cell (r, c) = (r + c) mod M."""
    if m < 2:
        raise ValueError("order must be >= 2")
    return LatinSquare(tuple(tuple((r + c) % m for c in range(m)) for r in range(m)))


def xor_latin(m: int) -> LatinSquare:
    """Table with cell (r, c) = r XOR c; requires M a power of two."""
    if m < 2 or m & (m - 1):
        raise ValueError(f"M must be a power of two >= 2, got {m}")
    return LatinSquare(tuple(tuple(r ^ c for c in range(m)) for r in range(m)))


def check_exclusive_law(cells) -> bool:
    """True iff the map separates both arguments (i.e. is a Latin square).

    Checks that every row and every column contains no repeated value; runs
    in O(M^2) with one seen-set pass per line.
    """
    rows = [tuple(r) for r in cells]
    m = len(rows)
    if m == 0 or any(len(r) != m for r in rows):
        return False
    for r in rows:
        if len(set(r)) != m:
            return False
    for c in range(m):
        col = {rows[r][c] for r in range(m)}
        if len(col) != m:
            return False
    return True


def apply_map(f: LatinSquare, s: SignalSet, xa_idx: int, xb_idx: int) -> complex:
    """Constellation point the relay transmits for a decoded index pair."""
    if not (0 <= xa_idx < f.order and 0 <= xb_idx < f.order):
        raise IndexError(f"indices ({xa_idx}, {xb_idx}) out of range for order {f.order}")
    if f.order != s.m:
        raise ValueError("map order and constellation size differ")
    return s.points[f.cells[xa_idx][xb_idx]]
