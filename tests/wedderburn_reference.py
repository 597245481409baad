"""Dense reference path for the numerical Wedderburn decomposition.

This is the original algorithm, written on explicit matrices: the left
regular representation as an n x n x n stack of permutation matrices,
the central element as a sum of class-sum matrices, the commutant as a
sum of n dense right-translation matrices, conjugacy classes by a
Python double loop, the group axioms by per-element loops, and the
irreducible blocks as a three-operand einsum over the stack, ordered
by their traces. It draws the same random numbers in the same order as
`dirac_atlas.ktheory.wedderburn`, which computes the same blocks by
index arithmetic on the table and orders them by characters read off
the isotypic projectors; tests compare the two. Its block order
rounds each character with Python's round (`block_key`), the oracle
for the one numpy rounding of ktheory's character matrix.

`symmetric_table_loops` composes S_n's permutations one product at a
time, the oracle for ktheory's gather of the stacked permutations.
"""

from __future__ import annotations

import itertools

import numpy as np

from dirac_atlas.errors import NumericalAmbiguityError, ValidationError
from dirac_atlas.ktheory import (
    GROUP_ORDER_CAP,
    FDAlgebra,
    FiniteGroupAlgebra,
    _group_eigenvalues,
    _table_from_elements,
    resolve_group_table,
)


def symmetric_table_loops(n: int) -> np.ndarray:
    """S_n on its sorted permutations, p q = p after q, by one Python
    composition per product."""
    elements = sorted(itertools.permutations(range(n)))
    return _table_from_elements(elements, lambda p, q: tuple(p[q[i]] for i in range(n)))


def irreps(group: FiniteGroupAlgebra) -> tuple[np.ndarray, ...]:
    """Every block's irreducible matrices, through FiniteGroupAlgebra.irrep."""
    return tuple(group.irrep(b) for b in range(group.algebra.k))


def validate_table_loops(table: np.ndarray) -> tuple[int, np.ndarray]:
    """The group axioms element by element: (identity index, inverses),
    or the first failure with the message of ktheory.validate_group_table."""
    table = np.asarray(table, dtype=int)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValidationError("multiplication table must be square")
    n = table.shape[0]
    if n > GROUP_ORDER_CAP:
        raise ValidationError(f"group order {n} exceeds the desk-scale cap {GROUP_ORDER_CAP}")
    if table.min() < 0 or table.max() >= n:
        raise ValidationError("table entries must be element indices")
    ident = np.arange(n)
    for g in range(n):
        if not (np.array_equal(np.sort(table[g]), ident) and np.array_equal(np.sort(table[:, g]), ident)):
            raise ValidationError("table is not invertible (rows/columns are not permutations)")
    e = next((g for g in range(n) if np.array_equal(table[g], ident) and np.array_equal(table[:, g], ident)), None)
    if e is None:
        raise ValidationError("table has no identity element")
    for a in range(n):
        if not np.array_equal(table[table[a], :], table[a, table]):
            raise ValidationError("table is not associative")
    inv = np.zeros(n, dtype=int)
    for g in range(n):
        inv[g] = int(np.where(table[g] == e)[0][0])
    return e, inv


def conjugacy_classes(table: np.ndarray, inv: np.ndarray) -> list[list[int]]:
    n = table.shape[0]
    seen = set()
    classes = []
    for g in range(n):
        if g in seen:
            continue
        orbit = {int(table[table[h, g], inv[h]]) for h in range(n)}
        seen |= orbit
        classes.append(sorted(orbit))
    classes.sort(key=lambda c: c[0])
    return classes


def left_regular(table: np.ndarray) -> np.ndarray:
    """Stack of permutation matrices L[g] e_y = e_{g y}."""
    n = table.shape[0]
    L = np.zeros((n, n, n))
    for g in range(n):
        L[g, table[g], np.arange(n)] = 1.0
    return L


def wedderburn(group, seed: int = 0) -> tuple[FiniteGroupAlgebra, tuple[np.ndarray, ...]]:
    """The decomposition, with the bases of its irreducible copies, and
    the einsum irreps of its blocks in the same order."""
    table = resolve_group_table(group)
    e, inv = validate_table_loops(table)
    n = table.shape[0]
    classes = conjugacy_classes(table, inv)
    L = left_regular(table)
    rng = np.random.default_rng(seed)

    center_combo = np.zeros((n, n), dtype=complex)
    for cls in classes:
        z = L[cls].sum(axis=0).astype(complex)
        zc = L[[inv[g] for g in cls]].sum(axis=0).astype(complex)
        a, b = rng.normal(size=2)
        center_combo += a * (z + zc) + 1j * b * (z - zc)
    evals, evecs = np.linalg.eigh(center_combo)
    groups = _group_eigenvalues(evals)
    if len(groups) != len(classes):
        raise NumericalAmbiguityError(
            f"isotypic split found {len(groups)} components for {len(classes)} classes"
        )

    coeff = rng.normal(size=n) + 1j * rng.normal(size=n)
    commutant = np.zeros((n, n), dtype=complex)
    for g in range(n):
        r = np.zeros((n, n), dtype=complex)
        r[table[:, g], np.arange(n)] = 1.0
        commutant += coeff[g] * r + np.conj(coeff[g]) * r.conj().T
    blocks = []
    for idx in groups:
        q = evecs[:, idx]
        m2 = q.shape[1]
        dim = int(round(m2 ** 0.5))
        if dim * dim != m2:
            raise NumericalAmbiguityError(
                f"isotypic dimension {m2} is not a perfect square"
            )
        x = q.conj().T @ commutant @ q
        xev, xvec = np.linalg.eigh(x)
        first = _group_eigenvalues(xev)[0]
        if len(first) != dim:
            raise NumericalAmbiguityError(
                f"commutant eigenspace has dimension {len(first)}, expected {dim}"
            )
        basis = q @ xvec[:, first]
        rep = np.einsum("pi,gpq,qj->gij", basis.conj(), L, basis)
        blocks.append((dim, basis, rep))

    if sum(d * d for d, _, _ in blocks) != n:
        raise NumericalAmbiguityError("block dimensions do not satisfy sum d^2 = |G|")

    blocks.sort(key=lambda item: block_key(item[0], np.array([np.trace(item[2][cls[0]]) for cls in classes])))
    group = FiniteGroupAlgebra(
        table=table,
        order=n,
        identity=e,
        inverses=inv,
        classes=tuple(tuple(c) for c in classes),
        algebra=FDAlgebra(tuple(d for d, _, _ in blocks)),
        bases=tuple(basis for _, basis, _ in blocks),
        seed=seed,
    )
    return group, tuple(rep for _, _, rep in blocks)


def block_key(dim: int, chars: np.ndarray) -> tuple:
    """The block order by Python's round: the dimension, then the real
    and the imaginary parts of the characters at the class
    representatives, each rounded to 6 places."""
    return (dim, tuple(round(c, 6) for c in chars.real.tolist()),
            tuple(round(c, 6) for c in chars.imag.tolist()))
