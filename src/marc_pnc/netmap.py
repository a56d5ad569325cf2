"""Many-to-one relay maps as Latin squares over symbol indices.

The relay compresses the decoded pair (index_a, index_b) to a single
transmit symbol through an M x M table.  For the destination to be able to
disambiguate either source given the other, the table must change value
whenever either argument changes with the other held fixed; tables with
that property are exactly the Latin squares.  The map works on indices so
the combinatorial object stays independent of the constellation.
"""

from __future__ import annotations

import numpy as np


def modulo_latin(m: int) -> np.ndarray:
    """(M, M) int64 table with cell (r, c) = (r + c) mod M; requires M >= 2.

    Rows are indexed by source A's symbol index, columns by source B's.
    """
    if m < 2:
        raise ValueError(f"a modulo map needs an order >= 2, got {m}")
    r = np.arange(m, dtype=np.int64)
    return (r[:, None] + r[None, :]) % m


def xor_latin(m: int) -> np.ndarray:
    """(M, M) int64 table with cell (r, c) = r XOR c; requires M a power of
    two >= 2, as any other order puts a value >= M in some cell."""
    if m < 2 or m & (m - 1):
        raise ValueError(f"an XOR map needs an order that is a power of two >= 2, got {m}")
    r = np.arange(m, dtype=np.int64)
    return r[:, None] ^ r[None, :]


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
