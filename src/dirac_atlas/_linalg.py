"""Small exact linear-algebra kernels over Fraction.

Only what the root-system and lattice code needs: inversion, and
solving x * A = b for row vectors. Sizes stay at desk scale (rank <= 8),
so plain Gaussian elimination is enough.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Row = tuple[Fraction, ...]
Matrix = tuple[Row, ...]


def mat_inv(a: Matrix) -> Matrix:
    """Invert a square Fraction matrix; raises ValueError if singular."""
    n = len(a)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def solve_left(rows: Sequence[Row], target: Row) -> Optional[Row]:
    """Solve sum_i x_i * rows[i] = target exactly.

    Returns the coefficient vector, or None when target is not in the
    row span. Requires the rows to be linearly independent.
    """
    m = len(rows)
    if m == 0:
        return () if all(t == 0 for t in target) else None
    n = len(rows[0])
    # Transposed system: n equations in the m unknowns x_j.
    aug = [[rows[j][i] for j in range(m)] + [target[i]] for i in range(n)]
    pivots: list[int] = []
    r = 0
    for col in range(m):
        piv = next((k for k in range(r, n) if aug[k][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv_p = Fraction(1) / aug[r][col]
        aug[r] = [x * inv_p for x in aug[r]]
        for k in range(n):
            if k != r and aug[k][col] != 0:
                f = aug[k][col]
                aug[k] = [x - f * y for x, y in zip(aug[k], aug[r])]
        pivots.append(col)
        r += 1
    if len(pivots) < m:
        raise ValueError("rows are linearly dependent")
    if any(all(aug[k][c] == 0 for c in range(m)) and aug[k][m] != 0 for k in range(r, n)):
        return None
    x = [Fraction(0)] * m
    for i, col in enumerate(pivots):
        x[col] = aug[i][m]
    return tuple(x)
