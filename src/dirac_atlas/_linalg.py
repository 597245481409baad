"""Fraction-free linear algebra over the integers (Bareiss elimination).

Callers scale their rational rows to integers over one common
denominator; a solution comes back as integer numerators over one
positive denominator, so a caller makes Fractions only for what it
returns.
"""

from __future__ import annotations

from typing import Optional, Sequence


def bareiss_solve(rows: Sequence[Sequence[int]], targets: Sequence[Sequence[int]]) -> tuple[list, int]:
    """Solve x * A = t for each target t, where A has the integer rows given.

    Returns (solutions, d) with d > 0: each solution is the integer
    vector d * x, or None when t is outside the row span of A. Raises
    ValueError when the rows are linearly dependent. Bareiss (Math.
    Comp. 22, 1968) on the transposed system divides exactly, and d is
    |det| of the pivot block, so d * x is integral (Cramer's rule).
    """
    m = len(rows)
    if m == 0:
        return [() if not any(t) else None for t in targets], 1
    n = len(rows[0])
    aug = [[row[i] for row in rows] + [t[i] for t in targets] for i in range(n)]
    prev = 1
    for k in range(m):
        piv = next((r for r in range(k, n) if aug[r][k]), None)
        if piv is None:
            raise ValueError("rows are linearly dependent")
        aug[k], aug[piv] = aug[piv], aug[k]
        top, p = aug[k], aug[k][k]
        for r in range(k + 1, n):
            f = aug[r][k]
            aug[r] = [(p * a - f * b) // prev for a, b in zip(aug[r], top)]
        prev = p
    solutions: list[Optional[tuple[int, ...]]] = []
    for t in range(m, m + len(targets)):
        if any(aug[r][t] for r in range(m, n)):
            solutions.append(None)
            continue
        x = [0] * m
        for i in reversed(range(m)):
            row = aug[i]
            x[i] = (prev * row[t] - sum(row[j] * x[j] for j in range(i + 1, m))) // row[i]
        solutions.append(tuple(x) if prev > 0 else tuple(-c for c in x))
    return solutions, abs(prev)
