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

    def to_text(self) -> str:
        """Plain-text grid, one row per line, space-separated indices."""
        return "\n".join(" ".join(str(v) for v in row) for row in self.cells)


def modulo_latin(m: int) -> LatinSquare:
    """Table with cell (r, c) = (r + c) mod M."""
    return LatinSquare(tuple(tuple((r + c) % m for c in range(m)) for r in range(m)))


def xor_latin(m: int) -> LatinSquare:
    """Table with cell (r, c) = r XOR c; requires M a power of two, as any
    other order puts a value >= M in some cell, which ``LatinSquare`` rejects."""
    return LatinSquare(tuple(tuple(r ^ c for c in range(m)) for r in range(m)))


#: The relay maps a sweep can name, by kind.
LATIN_MAPS = {"modulo": modulo_latin, "xor": xor_latin}
MAP_KINDS = tuple(LATIN_MAPS)


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
