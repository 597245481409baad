"""Exact root systems, weight lattices and Weyl groups.

Weights are given and returned as tuples of Fractions in the
simple-root-dual basis: the i-th coordinate of a weight x is the coroot
pairing 2(x, a_i)/(a_i, a_i) against the i-th simple root of the
ambient system. In that basis the i-th simple root is the i-th row of
the Cartan matrix, rho is (1,...,1), dominance is coordinate-wise
nonnegativity, and the integral weight lattice is Z^n. Half-integral
coordinates (denominator 2) are the normal currency for spin shifts;
arithmetic is closed under all rational scalars.

Normalization: long roots have squared length 2 in each simple factor,
so formal-degree style ratios (x, a)/(rho, a) are scale-free. The
bilinear form is the Gram matrix of the coordinate basis.

Integer scaling: every quantity here lies on a lattice with a small
known denominator, so the exact core runs on integers. A root is the
integer row k C of the Cartan matrix C; the form and fw_to_simple_coords
are Bareiss solves, subsystems are found on integer rows. A RootSystem
holds its CartanType and an IntegralForm only: the scaled form, the
positive roots and the simple coroots as integer arrays, which
build_root_system, subsystem and rescale_form make through one
constructor. Its Fraction simple_roots, positive_roots, form and rho
are views derived from those on first use. A weight enters
as integer numerators over one denominator, after the one length check
(check_dim); inner, coroot_pairing, is_dominant, make_dominant,
weyl_orbit, regularity, Weyl-group materialization and chamber lookup
are integer computations. make_dominant and the orbit search pair a
weight with the simple coroots once and then reflect on those pairings
(IntegralForm.cartan_rows); make_dominant is cached, bounded like
weyl_orbit. Weyl group and orbit orders are closed-form
in the root heights (Macdonald): |W x| for a dominant x is the product
of (ht a + 1)/ht a over the positive roots a with (x, a) != 0.
weyl_elements is a ranked order (WeylOrder): an element's breadth-first
index is closed form too, from parabolic cosets and Poincare
polynomials, and only reading elements builds the group, refused over
WEYL_MATERIALIZE_CAP from its order. Fractions are made only for
returned values, at the public API and JSON boundary.

Everything here is immutable after construction and safe to share;
all operations are pure functions.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from ._linalg import bareiss_solve
from .errors import DeskScaleError, ValidationError
from .jsonutil import fr_str, mat_str, vec_str

Weight = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# Materializing the Weyl group stops at this order; orbit operations
# stream and stay available beyond it.
WEYL_MATERIALIZE_CAP = 100_000
# Largest lattice box (candidate count) that ds enumeration scans. It
# admits compact_f4 at bound 120 (about 2.7M points) and keeps every
# int64 pairing of a box point far below overflow.
LATTICE_BOX_CAP = 5_000_000
# Largest total rank parse_cartan admits. Cold `rootsys info` of a rank-22
# type (B22, C22, D22) takes about 1.9 s on a 2-vCPU VM; A40 takes 8.7 s
# and A60 35 s, and a catalog cartan that size stalls spin and ds too.
RANK_CAP = 22
# Orbits kept by weyl_orbit's cache, and dominant representatives kept
# by make_dominant's. A stream of about a hundred rep requests asks for
# under 200 distinct orbits and about 800-1 100 distinct weights to make
# dominant; this keeps every one of them and still bounds a long-lived
# process.
ORBIT_CACHE_SIZE = 4096


def weight(coords: Iterable) -> Weight:
    return tuple(Fraction(c) for c in coords)


def wadd(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def wsub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def wneg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def wscale(c, a: Weight) -> Weight:
    f = Fraction(c)
    return tuple(f * x for x in a)


def grlex_key(w: Weight):
    """Graded-lexicographic sort key: total coordinate sum, then lex."""
    return (sum(w), w)


@dataclass(frozen=True)
class CartanType:
    """A product of simple factors, e.g. (("A", 2), ("G", 2)).

    The empty factor list is a legal value (torus-only degenerate case)
    but build_root_system rejects it.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        for fam, rank in self.factors:
            if fam not in FAMILIES:
                raise ValidationError(f"unknown family {fam!r}")
            if not isinstance(rank, int) or rank < 1:
                raise ValidationError(f"rank must be a positive integer, got {rank!r}")
            if fam == "B" and rank < 2:
                raise ValidationError("B requires rank >= 2")
            if fam == "C" and rank < 2:
                raise ValidationError("C requires rank >= 2")
            if fam == "D" and rank < 3:
                raise ValidationError("D requires rank >= 3 (use A1 factors below that)")
            if fam == "E" and rank not in (6, 7, 8):
                raise ValidationError("E requires rank in {6, 7, 8}")
            if fam == "F" and rank != 4:
                raise ValidationError("F requires rank 4")
            if fam == "G" and rank != 2:
                raise ValidationError("G requires rank 2")

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.factors)

    def __str__(self) -> str:
        return "x".join(f"{fam}{rank}" for fam, rank in self.factors) or "0"


def parse_cartan(text: str) -> CartanType:
    """Parse "A2", "A1xA1", "B2 x G2" into a CartanType."""
    toks = [t for t in str(text).replace("+", "x").replace(" ", "x").split("x") if t]
    factors = []
    for tok in toks:
        fam = tok[0].upper()
        try:
            rank = int(tok[1:])
        except ValueError as exc:
            raise ValidationError(f"cannot parse factor {tok!r}") from exc
        factors.append((fam, rank))
    if not factors:
        raise ValidationError(f"cannot parse Cartan type {text!r}")
    total = sum(rank for _, rank in factors)
    if total > RANK_CAP:
        raise DeskScaleError(f"total rank {total} of {text!r} exceeds the cap {RANK_CAP}")
    return CartanType(tuple(factors))


def _cartan_matrix_simple(fam: str, n: int) -> list[list[int]]:
    """Cartan matrix with the convention C[i][j] = 2(a_i,a_j)/(a_j,a_j)."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j):
        c[i][j] = -1
        c[j][i] = -1

    if fam == "A":
        for i in range(n - 1):
            edge(i, i + 1)
    elif fam == "B":
        # a_n short: (a_{n-1}, a_n) = -1, short length^2 = 1.
        for i in range(n - 2):
            edge(i, i + 1)
        c[n - 2][n - 1] = -2
        c[n - 1][n - 2] = -1
    elif fam == "C":
        # a_n long, the rest short.
        for i in range(n - 2):
            edge(i, i + 1)
        c[n - 2][n - 1] = -1
        c[n - 1][n - 2] = -2
    elif fam == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif fam == "E":
        # Bourbaki numbering: node 2 hangs off node 4.
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(chain, chain[1:]):
            edge(a - 1, b - 1)
        edge(2 - 1, 4 - 1)
    elif fam == "F":
        edge(0, 1)
        c[1][2] = -2
        c[2][1] = -1
        edge(2, 3)
    elif fam == "G":
        # a_1 short (length^2 = 2/3), a_2 long.
        c[0][1] = -1
        c[1][0] = -3
    return c


def _symmetrizer(fam: str, n: int) -> list[Fraction]:
    """d_i = (a_i, a_i)/2 with long roots normalized to length^2 = 2."""
    if fam in ("A", "D", "E"):
        return [Fraction(1)] * n
    if fam == "B":
        return [Fraction(1)] * (n - 1) + [Fraction(1, 2)]
    if fam == "C":
        return [Fraction(1, 2)] * (n - 1) + [Fraction(1)]
    if fam == "F":
        return [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)]
    if fam == "G":
        return [Fraction(1, 3), Fraction(1)]
    raise AssertionError(fam)


def positive_roots_from_cartan(cartan_matrix) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates, graded-lex order.

    Standard inductive closure: a candidate b + a_i at the next height
    is a root iff the a_i-string through b allows it, i.e.
    q - <b, a_i_coroot> > 0 where q counts how far the string extends
    downwards.
    """
    n = len(cartan_matrix)
    if n == 0:
        return []

    def pairing(k: tuple[int, ...], i: int) -> int:
        return sum(k[j] * cartan_matrix[j][i] for j in range(n))

    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots: set[tuple[int, ...]] = set(simple)
    level = list(simple)
    out = list(simple)
    while level:
        nxt: set[tuple[int, ...]] = set()
        for beta in level:
            for i in range(n):
                q = 0
                probe = list(beta)
                probe[i] -= 1
                while tuple(probe) in roots:
                    q += 1
                    probe[i] -= 1
                if q - pairing(beta, i) > 0:
                    cand = list(beta)
                    cand[i] += 1
                    nxt.add(tuple(cand))
        level = sorted(nxt)
        roots.update(nxt)
        out.extend(level)
    return sorted(out, key=lambda k: (sum(k), k))


def integer_coords(x: Weight) -> tuple[tuple[int, ...], int]:
    """(nums, den) with x = nums / den and den the LCD of x's coordinates."""
    if all(type(c) is int for c in x):
        return tuple(x), 1
    x = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in x)
    den = math.lcm(*(c.denominator for c in x))
    return tuple(c.numerator * (den // c.denominator) for c in x), den


def check_dim(x: Weight, rank: int) -> None:
    """The one length check: a weight has one coordinate per rank."""
    if len(x) != rank:
        raise ValidationError(f"dimension mismatch: weight has {len(x)} coords, system rank {rank}")


def _dots(nums: tuple[int, ...], columns: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(nums, col)) for col in columns)


def _bilinear(x: tuple[int, ...], y: tuple[int, ...], rows: tuple[tuple[int, ...], ...]) -> int:
    """x G y for integer vectors x, y and the rows of an integer matrix G."""
    return sum(a * sum(g * b for g, b in zip(row, y)) for a, row in zip(x, rows) if a)


@dataclass(frozen=True, eq=False)
class IntegralForm:
    """The integer data of one RootSystem: its form, positive roots and simple coroots.

    scale is the least common denominator L of the form's entries and
    gram = L * form. roots holds the positive roots as integer rows, in
    positive_roots order, and fr = gram @ roots.T, so that for an
    integer row vector x the product x @ fr is L * (x, a) for every
    positive root a at once. simple_index locates the simple roots
    among the positive ones, simple holds them as rows, and x @ coroots
    is the vector of coroot pairings <x, a_i^vee> = 2 (x, a_i) / (a_i, a_i)
    over the simple roots a_i. _integral_form builds all of them from
    gram, scale, roots and simple_index. The kernels compute in Python
    integers, so they are exact for any input size; fr_columns,
    coroot_columns, simple_rows and gram_rows hold the same matrices as
    tuples of Python ints for them. cartan_rows is simple @ coroots,
    whose row i holds <a_i, a_j^vee>: the simple reflection s_i
    subtracts c times simple_rows[i] from a weight x and c times
    cartan_rows[i] from its coroot pairings, with c = <x, a_i^vee>. On a
    standalone type the two row sets are equal; on a subsystem they are
    not (ambient coordinates against the subsystem's own pairings).
    """

    scale: int
    gram: np.ndarray
    roots: np.ndarray
    fr: np.ndarray
    simple_index: tuple[int, ...]
    simple: np.ndarray
    coroots: np.ndarray

    @functools.cached_property
    def fr_columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.fr.T.tolist()))

    @functools.cached_property
    def coroot_columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.coroots.T.tolist()))

    @functools.cached_property
    def root_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.roots.tolist()))

    @functools.cached_property
    def simple_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.simple.tolist()))

    @functools.cached_property
    def cartan_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, (self.simple @ self.coroots).tolist()))

    @functools.cached_property
    def gram_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.gram.tolist()))

    @functools.cached_property
    def rho_coords(self) -> tuple[tuple[int, ...], int]:
        """rho as integer_coords gives it: half the sum of the root rows, in lowest terms."""
        total = self.roots.sum(axis=0).tolist()
        if any(c % 2 for c in total):
            return tuple(total), 2
        return tuple(c // 2 for c in total), 1

    @functools.cached_property
    def rho_pairings(self) -> tuple[tuple[int, ...], int]:
        """pairings(rho), read from rho_coords."""
        nums, den = self.rho_coords
        return _dots(nums, self.fr_columns), den * self.scale

    @functools.cached_property
    def heights(self) -> tuple[int, ...]:
        """Height over the simple roots of each positive root a, in roots order.

        Half the sum of the positive coroots pairs to 1 with every simple
        root, so ht a = (1/2) sum over the positive roots b of <a, b^vee>.
        """
        m = self.roots @ self.fr  # L (a, b) over the positive roots a, b
        return tuple(((2 * m // np.diag(m)).sum(axis=1) // 2).tolist())

    def coords(self, x: Weight) -> tuple[tuple[int, ...], int]:
        """integer_coords of x, after the length check."""
        check_dim(x, len(self.gram))
        return integer_coords(x)

    def pairings(self, x: Weight) -> tuple[tuple[int, ...], int]:
        """(p, d) with p[j] / d = (x, a_j) for each positive root a_j."""
        nums, den = self.coords(x)
        return _dots(nums, self.fr_columns), den * self.scale

    def coroot_pairings(self, x: Weight) -> tuple[tuple[int, ...], int]:
        """(p, d) with p[i] / d = <x, a_i^vee> for each simple root a_i."""
        nums, den = self.coords(x)
        return _dots(nums, self.coroot_columns), den


def _integral_form(gram, scale: int, roots, simple_index: tuple[int, ...]) -> IntegralForm:
    """The IntegralForm of the form gram / scale, reduced to lowest terms,
    and of the positive roots given as integer rows.

    gram holds Python ints, so an entry past int64 is refused here
    rather than wrapped. The coroots are exact: 2 (x, a) / (a, a) is an
    integer for every root a and every x in the weight lattice.
    """
    d = math.gcd(scale, *(c for row in gram for c in row))
    gram = np.array([[c // d for c in row] for row in gram], dtype=np.int64)
    roots = np.asarray(roots, dtype=np.int64).reshape(-1, len(gram))
    simple = roots[np.array(simple_index, dtype=np.intp)]
    simple_fr = gram @ simple.T
    return IntegralForm(
        scale=scale // d,
        gram=gram,
        roots=roots,
        fr=gram @ roots.T,
        simple_index=simple_index,
        simple=simple,
        coroots=2 * simple_fr // np.einsum("ij,ji->i", simple, simple_fr),
    )


def _fraction_rows(rows, den: int = 1) -> tuple[Weight, ...]:
    """Integer rows over den as Fraction weights, one Fraction per distinct entry."""
    fr = {c: Fraction(c, den) for c in {c for row in rows for c in row}}
    return tuple(tuple(map(fr.__getitem__, row)) for row in rows)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """A Cartan type and its integer data; roots, form and rho are views.

    Standalone systems built from a CartanType use their own
    fundamental-weight coordinates. Subsystems (see `subsystem`) reuse
    the coordinates and form of the ambient system, so their weights
    mix freely with ambient ones. The Fraction views (simple_roots,
    positive_roots, form, rho) are derived from integral on first use;
    rho is half the sum of the positive root rows.

    Instances compare and hash by identity; build_root_system caches,
    so the same CartanType yields the same object.
    """

    cartan: CartanType
    integral: IntegralForm

    @functools.cached_property
    def rank(self) -> int:
        return len(self.integral.gram)

    @functools.cached_property
    def simple_roots(self) -> tuple[Weight, ...]:
        return _fraction_rows(self.integral.simple_rows)

    @functools.cached_property
    def positive_roots(self) -> tuple[Weight, ...]:
        return _fraction_rows(self.integral.root_rows)

    @functools.cached_property
    def form(self) -> Matrix:
        return _fraction_rows(self.integral.gram_rows, self.integral.scale)

    @functools.cached_property
    def rho(self) -> Weight:
        nums, den = self.integral.rho_coords
        return tuple(Fraction(c, den) for c in nums)

    @functools.cached_property
    def root_index(self) -> dict[tuple[int, ...], int]:
        """Position of each positive root in positive_roots, keyed by its
        integer row; a Fraction weight with integral entries hashes and
        compares equal to that row, so it finds the same entry."""
        return {r: j for j, r in enumerate(self.integral.root_rows)}

    def coroot_pairing(self, x: Weight, i: int) -> Fraction:
        """<x, a_i^vee> = 2 (x, a_i) / (a_i, a_i) for the i-th simple root a_i."""
        p, den = self.integral.coroot_pairings(x)
        return Fraction(p[i], den)


@functools.lru_cache(maxsize=None)
def build_root_system(cartan: CartanType) -> RootSystem:
    """Build the standalone root system of a CartanType.

    Positive roots are complete under the Cartan-matrix closure and
    come in graded-lex order of their simple-root coordinates. The
    construction runs on integers: the root with simple-root
    coordinates k is the row k C of the integer Cartan matrix C, and
    the form is C^-1 (integer numerators over |det C|, one Bareiss
    solve) times the symmetrizer. The empty type is rejected.
    """
    if not cartan.factors:
        raise ValidationError("empty Cartan type has no root system")
    n = cartan.rank
    cm = [[0] * n for _ in range(n)]
    sym: list[Fraction] = []
    offset = 0
    simple_coords: list[tuple[int, ...]] = []
    for fam, rank in cartan.factors:
        block = _cartan_matrix_simple(fam, rank)
        for i, row in enumerate(block):
            cm[offset + i][offset : offset + rank] = row
        sym.extend(_symmetrizer(fam, rank))
        for k in positive_roots_from_cartan(block):
            simple_coords.append((0,) * offset + k + (0,) * (n - offset - rank))
        offset += rank
    simple_coords.sort(key=lambda k: (sum(k), k))
    roots = np.array(simple_coords, dtype=np.int64) @ np.array(cm, dtype=np.int64)
    if (roots.sum(axis=0) != 2).any():
        raise AssertionError("rho is not the sum of the fundamental weights")
    inv, det = bareiss_solve(cm, np.eye(n, dtype=np.int64).tolist())
    # form[i][j] = inv[i][j] d_j / det, over the common denominator D of the d_j
    sym_den = math.lcm(*(s.denominator for s in sym))
    sym_nums = [s.numerator * (sym_den // s.denominator) for s in sym]
    gram = [[c * s for c, s in zip(row, sym_nums)] for row in inv]
    # the n unit rows lead the graded-lex order, e_n first, so a_i sits at n - 1 - i
    return RootSystem(cartan=cartan, integral=_integral_form(gram, det * sym_den, roots, tuple(range(n - 1, -1, -1))))


def rescale_form(rs: RootSystem, factor) -> RootSystem:
    """Same combinatorial data with the bilinear form scaled by factor,
    a positive int, Fraction or float.

    Classification ratios like (x, a)/(rho, a) are invariant under
    this; norms and norm bounds scale.
    """
    p, q = factor.as_integer_ratio()
    if p <= 0:
        raise ValidationError("form scale factor must be positive")
    form = rs.integral
    gram = [[p * c for c in row] for row in form.gram_rows]
    return RootSystem(cartan=rs.cartan, integral=_integral_form(gram, q * form.scale, form.roots, form.simple_index))


def subsystem(ambient: RootSystem, roots: Iterable[Weight]) -> RootSystem:
    """Root system on a closed set of positive roots of the ambient one.

    The coordinate space and form are inherited. Simple roots are the
    indecomposable elements; the closure they generate must reproduce
    the given set exactly, otherwise the set is not a subsystem. The
    checks run on the roots' integer rows and the ambient Gram matrix.
    """
    located = [(ambient.root_index.get(r), r) for r in set(roots)]
    outside = [r for j, r in located if j is None]
    if outside:
        raise ValidationError(f"{vec_str(min(outside, key=grlex_key))} is not a positive root of the ambient system")
    form = ambient.integral
    ints = sorted((form.root_rows[j] for j, _ in located), key=grlex_key)
    pos_set = set(ints)
    simple_index = tuple(s for s, a in enumerate(ints) if not any(tuple(map(operator.sub, a, b)) in pos_set for b in ints))
    simple_rows = [ints[s] for s in simple_index]
    # through inner: perfbench's --trace 1 needs it reached on every stream, and catalog loads reach it here
    gram = [[inner(a, b, ambient) for b in simple_rows] for a in simple_rows]
    # exact: 2(a, b)/(b, b) is an integer for any two roots of a crystallographic system
    cm = [[2 * row[j] // gram[j][j] for j in range(len(row))] for row in gram]
    if simple_rows:
        closure = np.array(positive_roots_from_cartan(cm), dtype=np.int64) @ np.array(simple_rows, dtype=np.int64)
        if set(map(tuple, closure.tolist())) != pos_set:
            raise ValidationError("marked set is not a root subsystem (closure mismatch)")
    return RootSystem(
        cartan=identify_cartan_type(tuple(simple_rows), ambient, cm),
        integral=_integral_form(form.gram_rows, form.scale, ints, simple_index),
    )


def inner(a: Weight, b: Weight, rs: RootSystem) -> Fraction:
    """Symmetric bilinear form, exact: one integer sum over the scaled Gram matrix."""
    form = rs.integral
    a_nums, a_den = form.coords(a)
    b_nums, b_den = form.coords(b)
    return Fraction(_bilinear(a_nums, b_nums, form.gram_rows), a_den * b_den * form.scale)


def is_regular(x: Weight, rs: RootSystem) -> bool:
    """True iff (x, a) != 0 for every positive root a."""
    return 0 not in rs.integral.pairings(x)[0]


def is_dominant(x: Weight, rs: RootSystem) -> bool:
    """True iff <x, a^vee> >= 0 for every simple root a."""
    return all(p >= 0 for p in rs.integral.coroot_pairings(x)[0])


def check_dominant_integral(x: Weight, rs: RootSystem, what: str) -> None:
    """The one label check: each <x, a^vee> over the simple roots a of rs is a nonnegative integer."""
    pairs, den = rs.integral.coroot_pairings(x)
    for i, p in enumerate(pairs):
        if p < 0 or p % den:
            raise ValidationError(
                f"{what} {vec_str(x)} is not {'dominant' if p < 0 else 'integral'} for {rs.cartan}: "
                f"coroot pairing {fr_str(rs.coroot_pairing(x, i))} at simple root {i + 1}"
            )


@functools.lru_cache(maxsize=ORBIT_CACHE_SIZE)
def make_dominant(x: Weight, rs: RootSystem) -> Weight:
    """The dominant representative of the Weyl orbit of x.

    x is paired with the simple coroots once; each reflection then
    updates the numerators and the pairings together (see IntegralForm).
    Cached: Freudenthal tables ask again for the weights on their root
    strings, and repeated tensor requests for the same shifted weights
    in decompose. An integral x may come as an int tuple, which keys
    equal to its Fraction tuple; the result is Fractions either way.
    """
    form = rs.integral
    nums, den = form.coords(x)
    pairs = _dots(nums, form.coroot_columns)
    while True:
        i = next((i for i, p in enumerate(pairs) if p < 0), None)
        if i is None:
            return tuple(Fraction(c, den) for c in nums)
        c = pairs[i]
        nums = tuple(a - c * r for a, r in zip(nums, form.simple_rows[i]))
        pairs = tuple(p - c * r for p, r in zip(pairs, form.cartan_rows[i]))


def _orbit_numerators(nums: tuple[int, ...], form: IntegralForm) -> set[tuple[int, ...]]:
    """Weyl orbit of the weight with numerators nums (over any positive
    denominator), by breadth-first search under the simple reflections,
    carrying each weight's coroot pairings along."""
    seen = {nums}
    frontier = [(nums, _dots(nums, form.coroot_columns))]
    moves = tuple(zip(form.simple_rows, form.cartan_rows))
    while frontier:
        nxt = []
        for w, pairs in frontier:
            for c, (root, row) in zip(pairs, moves):
                if c == 0:
                    continue
                img = tuple(a - c * r for a, r in zip(w, root))
                if img not in seen:
                    seen.add(img)
                    nxt.append((img, tuple(p - c * r for p, r in zip(pairs, row))))
        frontier = nxt
    return seen


@functools.lru_cache(maxsize=ORBIT_CACHE_SIZE)
def weyl_orbit(x: Weight, rs: RootSystem) -> tuple[Weight, ...]:
    """Orbit of x under the simple reflections, sorted graded-lex.

    Streams by breadth-first search on the numerators of x; never
    materializes the group.
    """
    form = rs.integral
    nums, den = form.coords(x)
    # over one positive denominator, numerators sort like the weights
    orbit = sorted(_orbit_numerators(nums, form), key=grlex_key)
    return tuple(tuple(Fraction(c, den) for c in w) for w in orbit)


def apply_matrix(m: Matrix, x: Weight) -> Weight:
    n = len(x)
    return tuple(sum((x[j] * m[j][k] for j in range(n)), Fraction(0)) for k in range(n))


def _simple_reflections(rs: RootSystem) -> np.ndarray:
    """Integer matrices of the simple reflections, x -> x @ s_i.

    s_i = I - u_i^T a_i with u_i the i-th column of the coroot matrix.
    """
    form = rs.integral
    return np.eye(rs.rank, dtype=np.int64) - np.einsum("ji,ik->ijk", form.coroots, form.simple)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Integer rows as byte strings that sort like the rows (lexicographically).

    Entries are offset into unsigned bytes, so a sort or set operation
    on the keys is a fast memcmp. Weyl matrices in weight coordinates
    have entries far inside the byte range.
    """
    if rows.size and np.abs(rows).max() > 127:
        raise DeskScaleError("Weyl group matrix entries exceed the byte key range")
    return np.ascontiguousarray(rows + 128, dtype=np.uint8).view(np.dtype((np.void, rows.shape[1]))).ravel()


def _key_rows(keys: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _row_keys for flattened n x n matrices: shape (len(keys), n, n)."""
    return np.frombuffer(keys.tobytes(), dtype=np.uint8).reshape(-1, n, n).astype(np.int64) - 128


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct keys in sorted order, like np.unique, which imports
    numpy.ma on its first call."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _in_sorted(keys: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Whether each key occurs in the sorted array pool, like np.isin
    (which calls np.unique)."""
    pos = np.searchsorted(pool, keys)
    found = np.zeros(len(keys), dtype=bool)
    inside = pos < len(pool)
    found[inside] = pool[pos[inside]] == keys[inside]
    return found


def _times_q_integer(coeffs: list[int], h: int) -> list[int]:
    """The polynomial coeffs (coefficient k at index k) times 1 + q + ... + q^(h-1)."""
    padded = coeffs + [0] * (h - 1)
    out, run = [], 0
    for k, c in enumerate(padded):
        run += c - (padded[k - h] if k >= h else 0)
        out.append(run)
    return out


def _parabolic_orbit(i: int, depth: int, form: IntegralForm) -> dict[tuple[int, ...], tuple]:
    """The points v of the orbit of omega_i under s_i, ..., s_{n-1} within
    depth reflections of omega_i, in fundamental-weight coordinates.

    Each maps to (d(v), the point it was reached from, the reflection
    that reached it), d(v) its breadth-first distance. omega_i is
    dominant for these reflections, so s_j moves a point one step
    outwards exactly when its coordinate j, its coroot pairing, is > 0.
    """
    start = tuple(int(j == i) for j in range(len(form.simple_rows)))
    found = {start: (0, None, None)}
    frontier = [start]
    for d in range(1, depth + 1):
        nxt = []
        for v in frontier:
            for j in range(i, len(v)):
                c = v[j]
                if c > 0:
                    img = tuple(a - c * r for a, r in zip(v, form.simple_rows[j]))
                    if img not in found:
                        found[img] = (d, v, j)
                        nxt.append(img)
        frontier = nxt
    return found


class WeylOrder:
    """The Weyl group of rs in the order of weyl_elements, ranked without building it.

    An element is an integer matrix m acting by x -> x @ m, so row i of m
    is w(omega_i) in fundamental-weight coordinates. The order is
    breadth-first by length, each length sorted by the rows (row-major
    lexicographic): the identity is first and the longest element last.
    len is weyl_group_order and index is closed form; iteration and
    positional reads build the group (_materialize), refused over
    WEYL_MATERIALIZE_CAP each time they are asked.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._poincare: dict[int, list[int]] = {}
        self._built: Optional[tuple[Matrix, ...]] = None

    def __len__(self) -> int:
        return weyl_group_order(self.rs)

    def __iter__(self):
        return iter(self._elements())

    def __getitem__(self, position):
        return self._elements()[position]

    def _elements(self) -> tuple[Matrix, ...]:
        check_materializable(self.rs)
        if self._built is None:
            self._built = _materialize(self.rs)
        return self._built

    def _coefficient(self, j: int, k: int) -> int:
        """Coefficient of q^k in the Poincare polynomial of the subgroup
        generated by s_j, ..., s_{n-1}.

        Its positive roots are those with no simple root below j, and with
        N_h of them at height h the polynomial is the product over h >= 2 of
        (1 + q + ... + q^(h-1))^(N_{h-1} - N_h), which is the product of
        (1 - q^(ht a + 1))/(1 - q^(ht a)) over them (Macdonald).
        """
        if j not in self._poincare:
            form = self.rs.integral
            inside = ~(form.fr[:j] != 0).any(axis=0)
            count = collections.Counter(h for h, keep in zip(form.heights, inside.tolist()) if keep)
            coeffs = [1]
            for h in range(2, max(count, default=0) + 2):
                for _ in range(count[h - 1] - count[h]):
                    coeffs = _times_q_integer(coeffs, h)
            self._poincare[j] = coeffs
        poly = self._poincare[j]
        return poly[k] if k < len(poly) else 0

    def index(self, m) -> int:
        """Position of the element m (an n x n integer matrix), without building W.

        Let L = l(w) and W_i the subgroup generated by s_i, ..., s_{n-1}. The
        elements that agree with w on omega_0, ..., omega_{i-1} form the
        coset w W_i; let p be its shortest element. For v in the W_i-orbit
        of omega_i, the elements u of that coset with u(omega_i) = p(v) and
        l(u) = L number the coefficient of q^(L - l(p) - d(v)) in the
        Poincare polynomial of W_{i+1}, with d(v) the breadth-first distance
        of v from omega_i. The index is the number of elements shorter than
        w plus these counts, over each i and each v with p(v) <lex w(omega_i);
        then p becomes p x, for x the shortest element taking omega_i to the
        v with p(v) = w(omega_i) (Humphreys, Reflection Groups and Coxeter
        Groups, 1.10-1.11; Bjorner-Brenti 2.4). No point with d(v) > L - l(p)
        adds a term, so each orbit search stops at that depth, and the
        identity needs no search and no polynomial.

        This needs fundamental-weight coordinates; on a subsystem, whose
        simple coroots are not the coordinate dual basis, m is looked up
        in the built group.
        """
        form = self.rs.integral
        rows = np.asarray(m, dtype=np.int64)
        if not np.array_equal(form.coroots, np.eye(self.rs.rank, dtype=np.int64)):
            return self._elements().index(tuple(map(tuple, rows.tolist())))
        # l(w) counts the positive roots a with (w rho, a) < 0
        length = int((np.array(form.rho_coords[0]) @ rows @ form.fr < 0).sum())
        index = sum(self._coefficient(0, k) for k in range(length))
        p, p_length = np.eye(self.rs.rank, dtype=np.int64), 0
        for i, target in enumerate(rows.tolist()):
            orbit = _parabolic_orbit(i, length - p_length, form)
            hit = None
            for v, image in zip(orbit, (np.array(list(orbit)) @ p).tolist()):
                if image < target:
                    index += self._coefficient(i + 1, length - p_length - orbit[v][0])
                elif image == target:
                    hit = v
            if hit is None:
                raise ValueError("the matrix is not an element of the Weyl group")
            p_length += orbit[hit][0]
            # p <- p x: x's reflections, applied last first, each left-multiply p's matrix
            while orbit[hit][1] is not None:
                _, hit, j = orbit[hit]
                p[j] -= form.simple[j] @ p
        return index


@functools.lru_cache(maxsize=None)
def weyl_elements(rs: RootSystem) -> WeylOrder:
    """The Weyl group of rs as a WeylOrder: its length and each element's
    index in closed form, its elements built only when read."""
    return WeylOrder(rs)


def _materialize(rs: RootSystem) -> tuple[Matrix, ...]:
    """All Weyl group elements as integer coordinate matrices, in WeylOrder's order.

    Each level is one batched integer product with the simple
    reflections; since a simple reflection changes the length by
    exactly one, a level's products are the next level plus elements
    of the previous one. Entries are Python ints, equal to the exact
    rationals they stand for.
    """
    n = rs.rank
    gens = _simple_reflections(rs)
    level = _row_keys(np.eye(n, dtype=np.int64).reshape(1, n * n))
    prev = level[:0]
    levels = [level]
    while len(level):
        prods = np.einsum("fij,gjk->fgik", _key_rows(level, n), gens)
        keys = _distinct_sorted(_row_keys(prods.reshape(-1, n * n)))
        prev, level = level, keys[~_in_sorted(keys, prev)]
        levels.append(level)
    return tuple(tuple(map(tuple, m)) for m in _key_rows(np.concatenate(levels), n).tolist())


def check_materializable(rs: RootSystem) -> None:
    """Refuse a Weyl group over WEYL_MATERIALIZE_CAP from its closed-form order, before any work."""
    if weyl_group_order(rs) > WEYL_MATERIALIZE_CAP:
        raise DeskScaleError(f"Weyl group exceeds the materialization cap {WEYL_MATERIALIZE_CAP}")


def weyl_group_order(rs: RootSystem) -> int:
    """|W| = |W rho| in closed form: the product of (ht a + 1)/ht a over
    the positive roots a (Macdonald, Math. Ann. 199, 1972)."""
    heights = rs.integral.heights
    return math.prod(h + 1 for h in heights) // math.prod(heights)


def orbit_size(x: Weight, rs: RootSystem) -> int:
    """|W x| for a dominant weight x, in closed form: |W| / |W_x|.

    The stabilizer of a dominant weight is the parabolic subgroup
    generated by the simple reflections that fix it. Its positive roots
    are the positive roots orthogonal to x, each with the same height as
    in rs, so |W x| is the product of (ht a + 1)/ht a over the positive
    roots a with (x, a) != 0.
    """
    form = rs.integral
    pairs = _dots(form.coords(x)[0], form.fr_columns)
    if any(pairs[j] < 0 for j in form.simple_index):
        raise ValidationError(f"orbit_size needs a dominant weight, got {vec_str(x)}")
    heights = [h for h, p in zip(form.heights, pairs) if p]
    return math.prod(h + 1 for h in heights) // math.prod(heights)


def _arm_length(nbrs: list[list[int]], branch: int, start: int) -> int:
    """Nodes on the arm of a Dynkin tree that leaves branch through start."""
    length, prev, cur = 1, branch, start
    while len(nbrs[cur]) == 2:
        prev, cur = cur, next(k for k in nbrs[cur] if k != prev)
        length += 1
    return length


def _component_type(c: list[list[int]]) -> tuple[str, int]:
    """(family, rank) of a connected Cartan matrix, read off its Dynkin diagram.

    A triple bond is G2. A double bond is F4 when neither end is a leaf,
    else B (the short end a leaf) or C; B2 for rank 2. With single bonds
    only, a branch node with two arms of one node is D, another branch
    node E, and a chain A (so D3 reads as A3).
    """
    r = len(c)
    nbrs = [[j for j in range(r) if j != i and c[i][j]] for i in range(r)]
    # c[i][j] = -2 or -3: a_j is the short end of a multiple bond
    multiple = [(i, j) for i in range(r) for j in nbrs[i] if c[i][j] < -1]
    if multiple:
        i, j = multiple[0]
        if c[i][j] == -3:
            return ("G", 2)
        if r == 2:
            return ("B", 2)
        if len(nbrs[i]) == 2 and len(nbrs[j]) == 2:
            return ("F", 4)
        return ("B", r) if len(nbrs[j]) == 1 else ("C", r)
    branch = next((i for i in range(r) if len(nbrs[i]) == 3), None)
    if branch is None:
        return ("A", r)
    arms = sorted(_arm_length(nbrs, branch, k) for k in nbrs[branch])
    return ("D", r) if arms[1] == 1 else ("E", r)


def _cartan_type(pairing) -> CartanType:
    """CartanType of an integer Cartan pairing matrix: its orthogonality
    components, each classified by its Dynkin diagram, sorted.

    The pairing of linearly independent vectors is of finite type once
    its off-diagonal entries are <= 0; a positive one (two roots at an
    acute angle) is refused.
    """
    m = len(pairing)
    if any(pairing[i][j] > 0 for i in range(m) for j in range(m) if i != j):
        raise ValidationError("could not identify the Cartan type of the subsystem")
    unvisited = set(range(m))
    factors = []
    while unvisited:
        start = min(unvisited)
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in range(m):
                if w != v and pairing[v][w] and w not in comp:
                    comp.add(w)
                    stack.append(w)
        unvisited -= comp
        comp = sorted(comp)
        factors.append(_component_type([[int(pairing[i][j]) for j in comp] for i in comp]))
    return CartanType(tuple(sorted(factors)))


def identify_cartan_type(simples: tuple[Weight, ...], ambient: RootSystem, pairing=None) -> CartanType:
    """Recognize the Cartan type of an independent set of simple roots.

    pairing is the Cartan pairing matrix 2(a, b)/(b, b) over the
    simples, when the caller has it already.
    """
    if pairing is None:
        pairing = [[2 * inner(a, b, ambient) / inner(b, b, ambient) for b in simples] for a in simples]
    return _cartan_type(pairing)


def rootsys_to_json(rs: RootSystem) -> dict:
    return {
        "cartan": [[fam, rank] for fam, rank in rs.cartan.factors],
        "simple_roots": [vec_str(r) for r in rs.simple_roots],
        "positive_roots": [vec_str(r) for r in rs.positive_roots],
        "form": mat_str(rs.form),
        "rho": vec_str(rs.rho),
    }


def fw_to_simple_coords(x: Weight, rs: RootSystem) -> Optional[Weight]:
    """Coordinates of x in the simple-root basis of rs, or None.

    For subsystems the simple roots need not span the ambient space;
    None means x is outside their rational span. One Bareiss solve on
    the integer simple roots and x's numerators.
    """
    check_dim(x, rs.rank)
    nums, den = integer_coords(x)
    (coeffs,), d = bareiss_solve(rs.integral.simple_rows, [nums])
    return None if coeffs is None else tuple(Fraction(c, d * den) for c in coeffs)
