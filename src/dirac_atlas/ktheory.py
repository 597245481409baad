"""K0 of finite-dimensional semisimple algebras, at desk scale.

An algebra is a list of matrix block sizes. Idempotents, possibly in
matrix amplifications, map to K0 classes through per-block ranks;
graded module pairs with an odd operator carry an index built by the
literal stabilization recipe (complete u to a surjection, take the
kernel class minus the added free summand) and cross-checked against
per-block kernel/cokernel counting.

Finite groups enter through their convolution algebra under the
mass-one Haar measure. The Wedderburn decomposition is computed
numerically from the regular representation: a random Hermitian class
function cuts out the isotypic components, a random Hermitian element
of the commutant cuts each isotypic down to a single irreducible copy,
and compressing the left action to that copy yields unitary
irreducible matrices. Every one of these operators is a permutation
written in the multiplication table, so each is built by indexing the
table (left translation by g is the gather x -> g^-1 x), never as a
stack of |G| dense permutation matrices.

Scalars are floating complex with tolerance TAU = 1e-9 for idempotency
and equality; rank decisions use an explicit eigenvalue/singular-value
gap and raise instead of guessing. Inputs with Fraction entries (or
(re, im) Fraction pairs) are exact: a block is stored as Gaussian-integer
numerators N over one denominator d, it is idempotent iff the integer
product N N equals d N, and then its rank is its trace.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import DeskScaleError, NumericalAmbiguityError, ValidationError

TAU = 1e-9
RANK_GAP = 1e-6
# Singular values or eigenvalue distances inside (gap, AMBIGUITY_FACTOR * gap)
# are neither zero nor clearly nonzero; rank decisions refuse them.
AMBIGUITY_FACTOR = 1000.0

GROUP_ORDER_CAP = 1000
# Matrix entries of one k0 spec, summed over its blocks; an exact square
# block just under the cap is decided in a few seconds.
K0_ENTRY_CAP = 40_000
# Complex entries fredholm_index may build for one module, counted from
# the shapes before any work: per block with e1 > 0, the e1 x e1 SVD
# factor of u (or identity, when u is empty), its min(e0, e1) x e0 right
# factor, and the e1 x (e0 + cols) completed operator. An empty u with
# e1 = 1000, at the cap, is decided in about 1.2 s cold on a shared
# 2-vCPU VM.
K0_INDEX_WORK_CAP = 2_000_000
# Cost of the exact idempotency check in limb products, summed over the
# blocks of one spec (see exact_work). It admits an integer 200x200 block
# of entries below 2^31, the largest block under K0_ENTRY_CAP. Near the
# cap, from that block to a 4x4 block of 190 000-bit numerators, the four
# products take 2.4-4.0 s in process on a shared 2-vCPU VM.
K0_EXACT_WORK_CAP = 64_000_000
# Interpreter overhead of one object multiply-add, in limb products; with
# it, blocks of one-limb and of long entries near the cap take about the
# same time.
_PRODUCT_OVERHEAD = 7


class FormalDifferenceWarning(UserWarning):
    """Trace evaluated on a class with no idempotent representative."""


# ---------------------------------------------------------------------------
# Exact Gaussian-rational matrices


@dataclass(frozen=True, eq=False)
class ExactMatrix:
    """Square matrix over the Gaussian rationals, (re + i im) / den.

    re and im are object arrays of Python integers and den is one
    positive integer, the least common denominator of the entries, so
    all arithmetic is exact integer arithmetic at any size.
    """

    re: np.ndarray
    im: np.ndarray
    den: int

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "ExactMatrix":
        """Entries are ints, Fractions or (re, im) pairs of them."""
        pairs = [[x if isinstance(x, tuple) and len(x) == 2 else (x, 0) for x in row] for row in rows]
        n = len(pairs)
        if any(len(r) != n for r in pairs):
            raise ValidationError("exact matrices must be square")
        flat = [q for row in pairs for pair in row for q in pair]
        if not all(isinstance(q, (int, Fraction)) for q in flat):
            raise ValidationError("exact entries must be integers, Fractions or (re, im) pairs of them")
        den = math.lcm(*(q.denominator for q in flat))
        nums = np.array([q.numerator * (den // q.denominator) for q in flat], dtype=object).reshape(n, n, 2)
        return cls(re=nums[..., 0], im=nums[..., 1], den=den)

    @property
    def size(self) -> int:
        return self.re.shape[0]

    def is_idempotent(self) -> bool:
        """P^2 = P, as N N = den N for the numerators N = A + iB."""
        a, b, d = self.re, self.im, self.den
        return np.array_equal(a @ a - b @ b, d * a) and np.array_equal(a @ b + b @ a, d * b)

    def idempotent_rank(self) -> int:
        """Rank of an idempotent: its trace, as its eigenvalues are 0 and 1.

        A matrix that is not idempotent is refused, so a trace is never
        read as a rank.
        """
        if not self.is_idempotent():
            raise ValidationError("element is not idempotent (exact check)")
        return int(np.trace(self.re)) // self.den


def exact_work(rows: Sequence[Sequence]) -> float:
    """Cost of deciding one exact n x n block, counted before any lcm.

    The numerators N = d P are at most b bits long, with b the bits of
    the distinct denominators (which bound the bits of their lcm d)
    plus those of the largest numerator. The check N N = d N makes n^3
    products of such integers, each about l^log2(3) products of 32-bit
    limbs for l = ceil(b / 32) limbs (Karatsuba), plus the interpreter's
    overhead. Entries other than integers and Fractions are left to
    ExactMatrix.from_rows to refuse.
    """
    parts = [q for row in rows for x in row for q in (x if isinstance(x, tuple) else (x,))]
    parts = [q for q in parts if isinstance(q, (int, Fraction))]
    bits = sum(d.bit_length() for d in {q.denominator for q in parts})
    bits += max((abs(q.numerator).bit_length() for q in parts), default=0)
    return len(rows) ** 3 * (math.ceil(bits / 32) ** math.log2(3) + _PRODUCT_OVERHEAD)


# ---------------------------------------------------------------------------
# Algebras, elements, K0


@dataclass(frozen=True)
class FDAlgebra:
    """Direct sum of complex matrix blocks; K0 is Z^(number of blocks)."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        if not self.blocks or any(n < 1 for n in self.blocks):
            raise ValidationError("block sizes must be a nonempty list of positive integers")

    @property
    def k(self) -> int:
        return len(self.blocks)


BlockMatrix = Union[np.ndarray, ExactMatrix]


@dataclass(frozen=True)
class AlgebraElement:
    """Per-block square matrices in a shared amplification M_amp(A)."""

    algebra: FDAlgebra
    blocks: tuple[BlockMatrix, ...]
    amplification: int

    @classmethod
    def from_blocks(cls, algebra: FDAlgebra, blocks: Sequence) -> "AlgebraElement":
        if len(blocks) != algebra.k:
            raise ValidationError("one matrix per block required")
        # one float array makes every block float
        exact = not any(isinstance(b, np.ndarray) for b in blocks)
        if exact:
            work = sum(exact_work(b) for b in blocks if not isinstance(b, ExactMatrix))
            if work > K0_EXACT_WORK_CAP:
                raise DeskScaleError(
                    f"exact spec needs about {math.ceil(work)} limb products, over the desk-scale cap {K0_EXACT_WORK_CAP}"
                )
        converted: list[BlockMatrix] = []
        for b in blocks:
            if isinstance(b, ExactMatrix):
                converted.append(b)
            elif exact:
                converted.append(ExactMatrix.from_rows(b))
            else:
                # an exact block among float ones holds Gaussian rational pairs
                mat = b if isinstance(b, np.ndarray) else np.array(
                    [[complex(*x) if isinstance(x, tuple) else complex(x) for x in row] for row in b]
                ).reshape(len(list(b)), -1)
                if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                    raise ValidationError("block matrices must be square")
                converted.append(np.asarray(mat, dtype=complex))
        amps = set()
        for mat, n in zip(converted, algebra.blocks):
            size = mat.size if isinstance(mat, ExactMatrix) else mat.shape[0]
            if size % n != 0:
                raise ValidationError(
                    f"block of size {size} is not an amplification of Mat({n})"
                )
            amps.add(size // n)
        if len(amps) != 1:
            raise ValidationError("all blocks must share one amplification level")
        return cls(algebra=algebra, blocks=tuple(converted), amplification=amps.pop())

    @property
    def is_exact(self) -> bool:
        return any(isinstance(b, ExactMatrix) for b in self.blocks)


@dataclass(frozen=True)
class K0Class:
    """Formal difference of idempotent classes: one integer per block."""

    ranks: tuple[int, ...]

    def __add__(self, other: "K0Class") -> "K0Class":
        return K0Class(tuple(a + b for a, b in zip(self.ranks, other.ranks)))

    def __sub__(self, other: "K0Class") -> "K0Class":
        return K0Class(tuple(a - b for a, b in zip(self.ranks, other.ranks)))


def _idempotent_eigen_rank(mat: np.ndarray, gap: float) -> int:
    """Rank of a numerically idempotent matrix from its spectrum.

    Every eigenvalue must sit within gap of 0 or of 1; anything in the
    open middle band means there is no usable spectral gap.
    """
    if mat.size == 0:
        return 0
    with np.errstate(all="ignore"):
        evals = np.linalg.eigvals(mat)
        near0 = np.abs(evals) <= gap
        near1 = np.abs(evals - 1) <= gap
    if not np.all(near0 | near1):
        stray = evals[~(near0 | near1)]
        raise NumericalAmbiguityError(
            f"idempotent rank is ambiguous: eigenvalue(s) {stray} are outside the gap bands"
        )
    return int(near1.sum())


def singular_value_rank(mat: np.ndarray, gap: float = RANK_GAP) -> int:
    """Numerical rank with an explicit gap test.

    Singular values at or below gap count as zero, values at or above
    AMBIGUITY_FACTOR * gap as nonzero; values inside the band raise.
    """
    if mat.size == 0:
        return 0
    return _band_rank(np.linalg.svd(mat, compute_uv=False), gap)


def _band_rank(svals: np.ndarray, gap: float) -> int:
    """The rank singular_value_rank reads off the singular values."""
    hi = AMBIGUITY_FACTOR * gap
    if np.any((svals > gap) & (svals < hi)):
        band = svals[(svals > gap) & (svals < hi)]
        raise NumericalAmbiguityError(
            f"rank is ambiguous: singular value(s) {band} inside the gap band ({gap}, {hi})"
        )
    return int((svals >= hi).sum())


def k0_class(p: AlgebraElement, algebra: FDAlgebra, *, tol: float = TAU, gap: float = RANK_GAP) -> K0Class:
    """Class of an idempotent: the vector of per-block ranks.

    The eigenvalue bands |x| <= gap and |x - 1| <= gap of the float rank
    overlap once gap >= 1/2, so such a gap is refused.
    """
    if not gap < 0.5:
        raise ValidationError(f"rank gap must be below 1/2, got {gap}")
    if p.algebra != algebra:
        raise ValidationError("element does not belong to the algebra")
    for mat in p.blocks:
        if not isinstance(mat, ExactMatrix):
            with np.errstate(all="ignore"):  # an overflow shows as an inf or nan error, refused below
                err = float(np.max(np.abs(mat @ mat - mat))) if mat.size else 0.0
            if not err <= tol:
                raise ValidationError(
                    f"element is not idempotent: max |p^2 - p| = {err:.3e} > {tol}"
                )
    return K0Class(tuple(
        mat.idempotent_rank() if isinstance(mat, ExactMatrix) else _idempotent_eigen_rank(mat, gap)
        for mat in p.blocks
    ))


@dataclass(frozen=True)
class FredholmModule:
    """Graded pair of f.g. projective modules with an odd operator.

    e0, e1 are multiplicity vectors over the blocks; u is the odd
    operator, one complex matrix per block with u[i] of shape
    (e1[i], e0[i]). In finite dimension every morphism is compact, so
    the other corner of the operator plays no part in the index.
    """

    e0: tuple[int, ...]
    e1: tuple[int, ...]
    u: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, e0: Sequence[int], e1: Sequence[int], u: Sequence) -> "FredholmModule":
        e0t = tuple(int(x) for x in e0)
        e1t = tuple(int(x) for x in e1)
        if any(x < 0 for x in e0t + e1t):
            raise ValidationError("module multiplicities must be nonnegative")
        ut = tuple(np.asarray(np.array(m, dtype=complex)).reshape(m1, m0) for m, m1, m0 in zip(u, e1t, e0t))
        return cls(e0=e0t, e1=e1t, u=ut)


def index_by_kernel_cokernel(m: FredholmModule, algebra: FDAlgebra, gap: float = RANK_GAP) -> K0Class:
    """Oracle route: per-block dim ker u - dim coker u."""
    if len(m.e0) != algebra.k:
        raise ValidationError("module shape does not match the algebra")
    ranks = []
    for e0, e1, u in zip(m.e0, m.e1, m.u):
        r = singular_value_rank(u, gap)
        ranks.append((e0 - r) - (e1 - r))
    return K0Class(tuple(ranks))


def fredholm_index(m: FredholmModule, algebra: FDAlgebra, gap: float = RANK_GAP) -> K0Class:
    """Index by the stabilization construction.

    Per block, append the smallest free summand A^n whose columns can
    complete u to a surjection onto E1 (columns chosen from the left
    null space of u), then return [ker(u, w)] - [A^n]. Always defined
    in finite dimension and must agree with the kernel/cokernel count.
    Refused past K0_INDEX_WORK_CAP, counted from the shapes, before any SVD.
    """
    if len(m.e0) != algebra.k:
        raise ValidationError("module shape does not match the algebra")
    # at most n_free = max ceil(e1 / n) free copies, when every u has rank 0
    n_free = max((-(-e1 // n) for e1, n in zip(m.e1, algebra.blocks)), default=0)
    work = sum(
        min(e0, e1) * e0 + e1 * e1 + e1 * (e0 + n_free * n) for e0, e1, n in zip(m.e0, m.e1, algebra.blocks) if e1
    )
    if work > K0_INDEX_WORK_CAP:
        raise DeskScaleError(
            f"k0 index would build {work} matrix entries, over the desk-scale cap {K0_INDEX_WORK_CAP}"
        )
    cokernels = [_cokernel_basis(u, gap) for u in m.u]
    n_free = max((-(-c.shape[1] // n) for c, n in zip(cokernels, algebra.blocks)), default=0)
    ranks = []
    for coker, n, e0, e1, u in zip(cokernels, algebra.blocks, m.e0, m.e1, m.u):
        cols = n_free * n
        if e1 == 0:
            ker = e0 + cols
        else:
            w = np.zeros((e1, cols), dtype=complex)
            w[:, : coker.shape[1]] = coker
            # without added columns u has full row rank: its defect is 0
            r_full = singular_value_rank(np.hstack([u, w]), gap) if cols else e1
            if r_full != e1:
                raise NumericalAmbiguityError(
                    "stabilized operator failed to become surjective"
                )
            ker = (e0 + cols) - r_full
        ranks.append(ker - cols)
    return K0Class(tuple(ranks))


def _cokernel_basis(u: np.ndarray, gap: float) -> np.ndarray:
    """Orthonormal basis of the left null space (cokernel) of u, from one SVD
    whose singular values give the rank by singular_value_rank's band test.

    The left SVD factor is complete (e1 x e1) without full_matrices when
    e1 <= e0; the right factor then has e1 rows instead of e0.
    """
    if u.size == 0:
        return np.eye(u.shape[0], dtype=complex)
    e1, e0 = u.shape
    left, svals, _ = np.linalg.svd(u, full_matrices=e1 > e0)
    return left[:, _band_rank(svals, gap) :]


# ---------------------------------------------------------------------------
# Finite groups


def cyclic_table(n: int) -> np.ndarray:
    if n < 1:
        raise ValidationError("cyclic order must be positive")
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def _table_from_elements(elements: list, compose) -> np.ndarray:
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    table = np.zeros((n, n), dtype=int)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = index[compose(a, b)]
    return table


def symmetric_table(n: int) -> np.ndarray:
    """S_n on its permutations in lexicographic order, p q = p after q.

    Every product p[q] is one gather of the stacked permutations; read
    as base-n digits, the sorted permutations have sorted keys, so a
    product's index is a binary search for its key.
    """
    perms = np.array(sorted(itertools.permutations(range(n))), dtype=np.int64)
    digits = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    products = perms[np.arange(len(perms))[:, None, None], perms[None, :, :]]
    return np.searchsorted(perms @ digits, products @ digits)


def dihedral_table(n: int) -> np.ndarray:
    """Dihedral group of order 2n: pairs (rotation, flip)."""
    elements = [(r, f) for f in (0, 1) for r in range(n)]

    def compose(a, b):
        r1, f1 = a
        r2, f2 = b
        r = (r1 + (r2 if f1 == 0 else -r2)) % n
        return (r, (f1 + f2) % 2)

    return _table_from_elements(elements, compose)


def quaternion_table() -> np.ndarray:
    """The eight-element quaternion group {+-1, +-i, +-j, +-k}."""
    axes = "1ijk"
    mul = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    elements = [(s, a) for a in axes for s in (1, -1)]

    def compose(x, y):
        s, a = x
        t, b = y
        u, c = mul[(a, b)]
        return (s * t * u, c)

    return _table_from_elements(elements, compose)


GROUP_CATALOG = {
    "s3": lambda: symmetric_table(3),
    "s4": lambda: symmetric_table(4),
    "d4": lambda: dihedral_table(4),
    "q8": lambda: quaternion_table(),
}


def _check_order(n: int) -> None:
    if n > GROUP_ORDER_CAP:
        raise ValidationError(f"group order {n} exceeds the desk-scale cap {GROUP_ORDER_CAP}")


def table_from_rows(rows) -> np.ndarray:
    """Multiplication table from a square list of lists of integers.

    This is the JSON form of a table. Ragged rows, non-integer or
    boolean entries and entries outside 0..n-1 are refused instead of
    being coerced, and so is an order past the cap.
    """
    if not isinstance(rows, (list, tuple)) or not rows:
        raise ValidationError("multiplication table must be a nonempty list of rows")
    n = len(rows)
    _check_order(n)
    if not all(isinstance(row, (list, tuple)) and len(row) == n for row in rows):
        raise ValidationError("multiplication table must be a square list of lists")
    for row in rows:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValidationError(f"table entry {x!r} is not an integer")
            if not 0 <= x < n:
                raise ValidationError("table entries must be element indices")
    return np.array(rows, dtype=int)


def resolve_group_table(name_or_table) -> np.ndarray:
    if isinstance(name_or_table, str):
        name = name_or_table.lower()
        if name in GROUP_CATALOG:
            return GROUP_CATALOG[name]()
        if name.startswith("z") or name.startswith("c"):
            try:
                n = int(name[1:])
            except ValueError:
                pass
            else:
                _check_order(n)
                return cyclic_table(n)
        raise ValidationError(
            f"unknown group {name_or_table!r}; use z<n>, s3, s4, d4, q8 or a table"
        )
    if isinstance(name_or_table, np.ndarray):
        if not np.issubdtype(name_or_table.dtype, np.integer):
            raise ValidationError("multiplication table entries must be integers")
        return name_or_table
    return table_from_rows(name_or_table)


def validate_group_table(table) -> tuple[int, np.ndarray]:
    """The one group-table check; returns (identity index, inverses).

    Whole-array tests for shape, entries, Latin square and identity,
    then associativity by Light's test (Clifford-Preston, The Algebraic
    Theory of Semigroups I, 1.2). The elements a with (x a) y = x (a y)
    for all x, y are closed under products, so the table is associative
    once every element of a generating set passes. Generators are taken
    greedily, each the least element not yet reached from e by right
    multiplication. A Latin square with an identity that is associative
    is a group, where the reached set is the subgroup the generators
    span; by Lagrange each new generator at least doubles it, so one
    that does not proves the table is not associative. At most
    log2(n) + 1 generators are tested, with two n^2 gathers each.
    """
    table = np.asarray(table, dtype=int)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValidationError("multiplication table must be square")
    n = table.shape[0]
    _check_order(n)
    if table.min() < 0 or table.max() >= n:
        raise ValidationError("table entries must be element indices")
    ident = np.arange(n)
    if not ((np.sort(table, axis=1) == ident).all() and (np.sort(table, axis=0) == ident[:, None]).all()):
        raise ValidationError("table is not invertible (rows/columns are not permutations)")
    units = np.flatnonzero((table == ident).all(axis=1) & (table == ident[:, None]).all(axis=0))
    if not units.size:
        raise ValidationError("table has no identity element")
    e = int(units[0])
    reached = ident == e
    gens: list[int] = []
    while not reached.all():
        size = np.count_nonzero(reached)
        gens.append(int(np.argmin(reached)))
        reached = _right_closure(table, reached, gens)
        if np.count_nonzero(reached) < 2 * size:
            raise ValidationError("table is not associative")
    if not all(_associates_through(table, a) for a in gens):
        raise ValidationError("table is not associative")
    # each row of a Latin square holds e exactly once, at g^-1
    return e, np.argmax(table == e, axis=1)


def _right_closure(table: np.ndarray, reached: np.ndarray, gens: list[int]) -> np.ndarray:
    """The set `reached` (a mask) closed under right multiplication by gens.

    x -> x g is a permutation p (column g of a Latin square). The sets
    S, S | S p, S | S p | S p^2 | S p^3, ... come from squaring p, so
    the orbit of S under p's powers takes log2 of the cycle length
    passes; the passes over gens repeat until none adds an element.
    """
    reached = reached.copy()
    while True:
        size = np.count_nonzero(reached)
        for g in gens:
            step = table[:, g]
            while True:
                before = np.count_nonzero(reached)
                reached[step[reached]] = True
                if np.count_nonzero(reached) == before:
                    break
                step = step[step]
        if np.count_nonzero(reached) == size:
            return reached


def _associates_through(table: np.ndarray, a: int) -> bool:
    """Light's condition for one element: (x a) y = x (a y) for all x, y."""
    return np.array_equal(table[table[:, a]], table[:, table[a]])


def _conjugacy_classes(table: np.ndarray, inv: np.ndarray) -> list[list[int]]:
    """Classes in order of their least element; the class of g is table[h g, h^-1] over all h."""
    least = table[table, inv[:, None]].min(axis=0)
    _, sizes = np.unique(least, return_counts=True)
    return [c.tolist() for c in np.split(np.argsort(least, kind="stable"), np.cumsum(sizes)[:-1])]


@dataclass(frozen=True, eq=False)
class FiniteGroupAlgebra:
    """Convolution algebra of a finite group under mass-one Haar.

    wedderburn() attaches the numerical isomorphism onto its matrix
    blocks: per block, an orthonormal basis (|G| x d) of one irreducible
    copy in the regular representation. irrep() compresses the left
    action to that copy, a unitary irreducible representation, for the
    one block a caller reads. Blocks are sorted by (dimension, rounded
    character vector) so the layout is reproducible for a fixed seed.
    """

    table: np.ndarray
    order: int
    identity: int
    inverses: np.ndarray
    classes: tuple[tuple[int, ...], ...]
    algebra: FDAlgebra
    bases: tuple[np.ndarray, ...]
    seed: int

    @property
    def haar_weight(self) -> float:
        return 1.0 / self.order

    def irrep(self, block: int) -> np.ndarray:
        """The |G| x d x d matrices B^H L(g) B of one block, for its basis
        B; the left translate L(g) B is the row gather B[g^-1 x]."""
        basis = self.bases[block]
        return basis.conj().T @ basis[self.table[self.inverses]]


def wedderburn(
    group: Union[str, np.ndarray, Sequence], seed: int = 0, *, block: Optional[int] = None
) -> FiniteGroupAlgebra:
    """Numerical Wedderburn decomposition of a finite group algebra.

    Two seeded stages: a random Hermitian central element splits the
    regular representation into isotypic components, and a random
    Hermitian commutant element splits each isotypic into irreducible
    copies, the first of which carries the block.

    Both stages are index arithmetic on the table, with shift[g, x] =
    g^-1 x: left convolution by a group function w is the matrix
    w(x y^-1), and the left translate of a basis B is the row gather
    B[shift[g]]. No |G|^3 array is formed. Stage 2 compresses the
    commutant to all isotypics of one size in one stacked product and
    one stacked eigh, then checks the isotypics in stage-1 order. An
    isotypic of size 1 is its own copy and skips the compression.

    The blocks are ordered by the rows of one k x k character matrix at
    the class representatives, rounded once. The characters come from
    the centre, not from the representations (Dixon, Numer. Math. 10,
    1967): the stage-1 projector P = V V^H onto an isotypic of degree d
    is left convolution by the central idempotent (d/|G|) conj(chi), so
    chi(g) = (|G|/d) P[g^-1, e], at k d^2 products per block. No irrep
    is built here; FiniteGroupAlgebra.irrep builds one block's.

    block, when given, is the one block the caller will read: an index
    outside 0..k-1 is refused once the classes are known, before any eigh.
    """
    table = resolve_group_table(group)
    e, inv = validate_group_table(table)
    n = table.shape[0]
    classes = _conjugacy_classes(table, inv)
    if block is not None and not 0 <= block < len(classes):
        raise ValidationError("block index out of range")
    shift = table[inv]
    rng = np.random.default_rng(seed)

    # Stage 1: isotypic decomposition from the center (w is a Hermitian
    # class function, so its convolution operator is central). Element g
    # takes its class's draw plus the conjugate draw of the class of g^-1.
    draws = rng.normal(size=(len(classes), 2))
    z = draws[:, 0] + 1j * draws[:, 1]
    class_of = np.empty(n, dtype=int)
    class_of[np.concatenate(classes)] = np.repeat(np.arange(len(classes)), [len(c) for c in classes])
    w = z[class_of] + np.conj(z[class_of[inv]])
    evals, evecs = np.linalg.eigh(w[table[:, inv]])
    groups = _group_eigenvalues(evals)
    if len(groups) != len(classes):
        raise NumericalAmbiguityError(
            f"isotypic split found {len(groups)} components for {len(classes)} classes"
        )

    # Stage 2: one irreducible copy per isotypic via the commutant, the
    # Hermitian part of a random combination of right translations.
    coeff = rng.normal(size=n) + 1j * rng.normal(size=n)
    split = _commutant_split(evecs, groups, coeff, shift)
    bases = []
    for idx, part in zip(groups, split):
        if part is None:
            raise NumericalAmbiguityError(f"isotypic dimension {len(idx)} is not a perfect square")
        xev, basis = part
        dim = basis.shape[1]
        first = _group_eigenvalues(xev)[0]
        if len(first) != dim:
            raise NumericalAmbiguityError(
                f"commutant eigenspace has dimension {len(first)}, expected {dim}"
            )
        bases.append(basis)

    dims = np.array([basis.shape[1] for basis in bases])
    chars = _isotypic_characters(evecs, groups, dims, e, inv[[cls[0] for cls in classes]])
    order = np.lexsort(_block_keys(dims, chars).T[::-1])
    return FiniteGroupAlgebra(
        table=table,
        order=n,
        identity=e,
        inverses=inv,
        classes=tuple(tuple(c) for c in classes),
        algebra=FDAlgebra(tuple(dims[order].tolist())),
        bases=tuple(bases[i] for i in order),
        seed=seed,
    )


def _commutant_split(evecs: np.ndarray, groups: list[list[int]], coeff: np.ndarray, shift: np.ndarray) -> list:
    """Stage 2 of wedderburn, before any check: for each stage-1 group,
    the eigenvalues of the commutant compressed to it and the basis of
    its dim lowest eigenvectors, or None when its size is not a square.
    The commutant is coeff[shift.T] + conj(coeff[shift]), built only if
    some group has more than one index.

    The groups of one size m2 share one stacked q^H C q and one eigh.
    A size that is not a square is never stacked, so that wedderburn
    can check the groups in stage-1 order and report the first failure.
    """
    sizes = np.array([len(idx) for idx in groups])
    starts = np.array([idx[0] for idx in groups])
    split = [None] * len(groups)
    commutant = None
    for m2 in sorted(set(sizes.tolist())):
        dim = math.isqrt(m2)
        if dim * dim != m2:
            continue
        members = np.flatnonzero(sizes == m2)
        # eigenvalue groups are runs of consecutive indices
        q = evecs.T[starts[members, None] + np.arange(m2)].transpose(0, 2, 1)
        if m2 == 1:
            # the eigenvector of a 1 x 1 compression is 1, so the copy is q;
            # its one eigenvalue is a single group whatever its value
            xev, basis = np.zeros((len(members), 1)), q
        else:
            if commutant is None:
                commutant = coeff[shift.T] + np.conj(coeff[shift])
            xev, xvec = np.linalg.eigh(q.conj().transpose(0, 2, 1) @ commutant @ q)
            # eigh sorts the eigenvalues, so the first group starts at index 0
            basis = q @ xvec[..., :dim]
        for j, i in enumerate(members.tolist()):
            split[i] = (xev[j], basis[j])
    return split


def _isotypic_characters(
    evecs: np.ndarray, groups: list[list[int]], dims: np.ndarray, e: int, rows: np.ndarray
) -> np.ndarray:
    """The character of each stage-1 isotypic's irreducible at the class
    representatives g, one row per isotypic: (|G|/d) P[g^-1, e] for the
    projector P = V V^H on its eigenvectors V. rows holds the g^-1."""
    starts = [idx[0] for idx in groups]
    products = np.add.reduceat(evecs[rows] * evecs[e].conj(), starts, axis=1)
    return products.T * (evecs.shape[0] / dims)[:, None]


def _block_keys(dims: np.ndarray, chars: np.ndarray) -> np.ndarray:
    """One row per block: its dimension, then the real and imaginary parts
    of its characters at the class representatives, rounded to 6 places.
    wedderburn orders the blocks by these rows, lexicographically."""
    return np.column_stack([dims, np.round(chars.real, 6), np.round(chars.imag, 6)])


def _group_eigenvalues(evals: np.ndarray) -> list[list[int]]:
    scale = max(1.0, float(np.max(np.abs(evals))) if evals.size else 1.0)
    tol = 1e-7 * scale
    groups: list[list[int]] = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def convolve(f: np.ndarray, g: np.ndarray, group: FiniteGroupAlgebra) -> np.ndarray:
    """(f * g)(x) = haar * sum_h f(h) g(h^{-1} x)."""
    table = group.table
    shifted = np.asarray(g, dtype=complex)[table[group.inverses, :]]
    return group.haar_weight * (np.asarray(f, dtype=complex) @ shifted)


def wedderburn_image(f: np.ndarray, group: FiniteGroupAlgebra) -> AlgebraElement:
    """Image of a group function under the block isomorphism.

    sum_g f(g) L(g) is left convolution by f, the matrix F = f(x y^-1),
    so block i is haar * B_i^H (F B_i), with one product F B against
    all the bases side by side.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (group.order,):
        raise ValidationError("group function has the wrong length")
    moved = f[group.table[:, group.inverses]] @ np.hstack(group.bases)
    parts = np.split(moved, np.cumsum(group.algebra.blocks)[:-1], axis=1)
    mats = [group.haar_weight * (basis.conj().T @ part) for basis, part in zip(group.bases, parts)]
    return AlgebraElement.from_blocks(group.algebra, mats)


def ds_idempotent(group: FiniteGroupAlgebra, block: int, x: Optional[np.ndarray] = None) -> np.ndarray:
    """The idempotent d * conj(matrix coefficient) of one block.

    x is a unit vector in the block's representation space (first
    basis vector by default). The result convolution-squares to itself
    and its block image is a rank-one projector in the chosen block.
    """
    if not 0 <= block < group.algebra.k:
        raise ValidationError("block index out of range")
    rep = group.irrep(block)
    d = group.algebra.blocks[block]
    if x is None:
        x = np.zeros(d, dtype=complex)
        x[0] = 1.0
    x = np.asarray(x, dtype=complex)
    if x.shape != (d,):
        raise ValidationError(f"vector must live in C^{d}")
    if abs(np.linalg.norm(x) - 1.0) > 1e-12:
        raise ValidationError("x must be a unit vector")
    coeff = np.einsum("i,gij,j->g", x.conj(), rep, x)
    return d * np.conj(coeff)


def trace_pairing(x: Union[K0Class, np.ndarray], group: FiniteGroupAlgebra) -> float:
    """The trace f -> f(identity), extended linearly to K0.

    On the class of an idempotent the value is sum rank_i * dim_i; a
    class with a negative component has no idempotent representative
    and is flagged with FormalDifferenceWarning while still computed.
    """
    if isinstance(x, K0Class):
        if len(x.ranks) != group.algebra.k:
            raise ValidationError("class does not match the algebra")
        if any(r < 0 for r in x.ranks):
            warnings.warn(
                "trace of a formal difference (no idempotent representative)",
                FormalDifferenceWarning,
            )
        return float(sum(r * d for r, d in zip(x.ranks, group.algebra.blocks)))
    f = np.asarray(x, dtype=complex)
    if f.shape != (group.order,):
        raise ValidationError("group function has the wrong length")
    val = f[group.identity]
    return float(val.real) if abs(val.imag) < 1e-12 else complex(val)


def spectral_pairing(block: int, x: K0Class) -> int:
    """Component of a K0 class at one block."""
    if not 0 <= block < len(x.ranks):
        raise ValidationError("block index out of range")
    return x.ranks[block]


def group_function_class(f: np.ndarray, group: FiniteGroupAlgebra) -> K0Class:
    """K0 class of an idempotent group function via its block image."""
    return k0_class(wedderburn_image(f, group), group.algebra)
