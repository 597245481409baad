"""Norms on group algebras of discrete groups, at truncation scale.

Two marked group kinds, each with its word length: free groups on k
letters with word reduction, and integer lattices Z^d. Property (RD)
is a statement about such infinite groups; finite group algebras live
in ktheory. Group functions are finite-support dicts element -> complex.

The reduced norm is never reported as a point value: compressing the
left convolution operator to a ball gives a certified lower bound
(nondecreasing in the radius), and the L1 norm is the upper bound.
The ball is numbered once as integer index arrays, so the compressed
operator is built by gathers. Its top singular value comes from one
dense eigh of M^H M when it has at most DENSE_COLS columns, and from
a restarted Lanczos iteration on M^H M in plain numpy otherwise. For
Z^d the sup of the symbol over the torus, bracketed by a dense grid
with a Lipschitz correction, serves as ground truth in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

import numpy as np

from .errors import ConvergenceError, DeskScaleError, ValidationError
from .jsonutil import finite_number

BALL_CAP = 1_000_000
# Trials of the unconditionality probe and samples of the rapid-decay probe.
PROBE_COUNT_CAP = 10_000
POWER_TOL = 1e-6
POWER_MAX_ITER = 200_000
# Krylov vectors kept by the Lanczos solver, so its memory is this many
# complex vectors of the ball's length.
LANCZOS_BASIS = 16
# Step of the equidistributed sequence that perturbs the Lanczos start.
START_STEP = (math.sqrt(5) - 1) / 2
# Compressions with at most DENSE_COLS columns and DENSE_ENTRIES matrix
# entries (16 bytes each, so 4 MB) are solved by one dense eigh of M^H M:
# below about a hundred columns that costs less than the fixed overhead
# of a few dozen Lanczos steps. Fixed by a sweep on the labs benchmark.
DENSE_COLS = 96
DENSE_ENTRIES = 1 << 18
# Translates are stacked into index arrays of at most this many entries
# (512 KB), so a ball this large is moved one element at a time. This
# already amortizes numpy's per-call cost on small balls; stacks of up
# to BALL_CAP entries built no faster and raised the labs benchmark's
# peak RSS.
STACK_ENTRIES = 1 << 16

FreeWord = tuple[int, ...]
LatticePoint = tuple[int, ...]
Element = Union[FreeWord, LatticePoint]
GroupFunction = dict


def reduce_word(letters: Iterable[int]) -> FreeWord:
    """Reduce a word in letters +-1..+-k by cancelling adjacent inverses."""
    out: list[int] = []
    for letter in letters:
        if letter == 0:
            raise ValidationError("0 is not a letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class MarkedGroup:
    """A free group F_k or a lattice Z^d with its word length: the
    number of letters of a reduced word, or the l1 norm of a point.
    Both satisfy l(g^-1) = l(g), l(gh) <= l(g) + l(h) and
    l(identity) = 0, and every sphere of radius r >= 1 is nonempty.
    """

    kind: str
    rank: int = 0
    # radius -> _BallIndex, filled on first use; it lives as long as the group
    _indices: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def free_group(cls, k: int) -> "MarkedGroup":
        if k < 1:
            raise ValidationError("free group needs at least one generator")
        return cls(kind="free", rank=k)

    @classmethod
    def integer_lattice(cls, d: int) -> "MarkedGroup":
        if d < 1:
            raise ValidationError("lattice dimension must be positive")
        return cls(kind="lattice", rank=d)

    # -- group operations ---------------------------------------------------

    def length(self, a: Element) -> int:
        return len(a) if self.kind == "free" else sum(abs(x) for x in a)

    def check_element(self, a: Element) -> Element:
        if self.kind == "free":
            word = tuple(int(x) for x in a)
            if any(x == 0 or abs(x) > self.rank for x in word):
                raise ValidationError(f"letters must be +-1..+-{self.rank}")
            if reduce_word(word) != word:
                raise ValidationError(f"word {word} is not reduced")
            return word
        v = tuple(int(x) for x in a)
        if len(v) != self.rank:
            raise ValidationError(f"lattice point must have {self.rank} coordinates")
        return v

    # -- ball enumeration ---------------------------------------------------

    def ball_size(self, radius) -> int:
        """Number of elements of length <= radius, in closed form, summed
        sphere by sphere: exact up to BALL_CAP, and past it the first
        partial sum over the cap.

        F_k, k >= 2: the sphere of radius j holds 2k(2k-1)^(j-1) reduced
        words, so |B_r| = 1 + k((2k-1)^r - 1)/(k-1). Z^d, and F_1 = Z:
        the points with i nonzero coordinates number 2^i C(d,i) C(r,i),
        so |B_r| = 2r + 1 for d = 1.
        """
        r, k = math.floor(radius), self.rank
        if self.kind == "free" and k > 1:
            spheres = (2 * k * (2 * k - 1) ** (j - 1) for j in range(1, r + 1))
        else:
            spheres = (2**i * math.comb(k, i) * math.comb(r, i) for i in range(1, min(k, r) + 1))
        total = 1
        for part in spheres:
            total += part
            if total > BALL_CAP:
                break
        return total

    def check_ball(self, radius) -> None:
        """Refuse a ball over BALL_CAP before any work.

        A point of Z^d is d integers, so there the cap also bounds the
        number of points times d.
        """
        if not 0 <= radius < math.inf:
            raise ValidationError(f"radius must be a nonnegative finite number, got {radius}")
        size = self.ball_size(radius)
        if size > BALL_CAP:
            raise DeskScaleError(f"ball of radius {radius} would exceed {BALL_CAP} elements")
        if self.kind == "lattice" and size * self.rank > BALL_CAP:
            raise DeskScaleError(
                f"ball of radius {radius} holds {size} points of {self.rank} coordinates, over the cap {BALL_CAP}"
            )

    def ball(self, radius) -> list[Element]:
        """Elements of length <= radius, numbered as in _BallIndex: lattice
        points in lexicographic order, reduced words by length. Refused
        past BALL_CAP first."""
        return _ball_index(self, radius).elements()

    def sphere(self, radius: int) -> list[Element]:
        return [g for g in self.ball(radius) if self.length(g) == radius]


def _l1_ball(d: int, r: int) -> list[LatticePoint]:
    """The points of Z^d with l1 norm <= r, in lexicographic order.

    An odometer: the successor raises the last coordinate that can
    still grow within its budget and resets the tail to its smallest
    completion (-rest, 0, ..., 0). O(d) per point.
    """
    pt = [-r] + [0] * (d - 1)
    left = [r] + [0] * (d - 1)  # left[j]: the l1 budget of coordinates j..d-1
    out = [tuple(pt)]
    while True:
        j = d - 1
        while j >= 0 and pt[j] == left[j]:
            j -= 1
        if j < 0:
            return out
        pt[j] += 1
        if j + 1 < d:
            rest = left[j] - abs(pt[j])
            pt[j + 1], left[j + 1] = -rest, rest
            pt[j + 2 :] = left[j + 2 :] = [0] * (d - j - 2)
        out.append(tuple(pt))


def parse_group(name: str) -> MarkedGroup:
    """Parse group names like "z", "z3", "f2"."""
    n = name.strip().lower()
    if n == "z":
        return MarkedGroup.integer_lattice(1)
    if n.startswith("z") and n[1:].isdigit():
        return MarkedGroup.integer_lattice(int(n[1:]))
    if n.startswith("f") and n[1:].isdigit():
        return MarkedGroup.free_group(int(n[1:]))
    raise ValidationError(f"unknown group name {name!r} (use z, z<d>, f<k>)")


def normalize_function(f: GroupFunction, group: MarkedGroup) -> GroupFunction:
    out = {}
    for g, c in f.items():
        cc = complex(c)
        if cc != 0:
            out[group.check_element(g)] = cc
    return out


def l1_norm(f: GroupFunction) -> float:
    total = float(sum(abs(c) for c in f.values()))
    if math.isinf(total):
        raise ValidationError("the l1 norm overflows a float")
    return total


def hs_norm(f: GroupFunction, s, group: MarkedGroup) -> float:
    """Weighted l2 norm with weight (1 + length)^s.

    The weighted coefficients are scaled by 2^-e, e the exponent of the
    largest, before they are squared (exactly, as e is an integer), so
    only a norm past the float range is refused.
    """
    if s < 0:
        raise ValidationError("s must be nonnegative")
    try:
        weighted = [(1.0 + group.length(g)) ** s * abs(c) for g, c in f.items()]
        e = math.frexp(max(weighted, default=0.0))[1]
        total = 0.0
        for a in weighted:  # a plain loop: sum() rounds floats differently from Python 3.12
            total += math.ldexp(a, -e) ** 2
        hs = math.ldexp(math.sqrt(total), e)
    except OverflowError:
        hs = math.inf
    if math.isinf(hs):
        raise ValidationError(f"the Sobolev norm at s = {s} overflows a float")
    return hs


def support_radius(f: GroupFunction, group: MarkedGroup):
    return max((group.length(g) for g in f), default=0)


def _letter_code(letter: int) -> int:
    """Letters 1, -1, 2, -2, ... as codes 0, 1, 2, 3, ...: the order in
    which a word's children are numbered. code ^ 1 is the inverse letter."""
    return 2 * (abs(letter) - 1) + (letter < 0)


class _FreeBall:
    """The ball B_r(F_k) as arrays: reduced words by length, each the
    word at parent[i] followed by the letter of code last[i].

    The children w.a of a word w are contiguous, in code order without
    the inverse of w's last letter, so the right action w -> w.a is
    closed-form arithmetic on (level, position, last letter). The left
    action of a letter x is a row left(x)[i] = index of x.w_i, or -1
    outside the ball, built level by level from x.(w.a) = (x.w).a on
    first use: x.w for w below the top level never leaves the ball.
    Rows are built only for the letters a support uses: all 2k rows of
    the ball of F_k at radius 1 would take O(k^2) memory.
    """

    def __init__(self, k: int, r: int):
        two_k, q = 2 * k, 2 * k - 1
        sizes = [1] + [two_k * q ** (level - 1) for level in range(1, r + 1)]
        self.start = np.cumsum([0] + sizes)
        self.r, self.q, self.size = r, q, int(self.start[-1])
        self.level = np.repeat(np.arange(r + 1), sizes)
        self.last = np.full(self.size, -1, dtype=np.intp)  # code of the last letter
        self.parent = np.zeros(self.size, dtype=np.intp)
        if r >= 1:
            self.last[1 : 1 + two_k] = np.arange(two_k)
        for level in range(1, r):
            lo, hi, end = self.start[level], self.start[level + 1], self.start[level + 2]
            kids = np.arange(end - hi)
            up, rank = kids // q, kids % q
            self.parent[hi:end] = lo + up
            self.last[hi:end] = rank + (rank >= (self.last[lo:hi] ^ 1)[up])
        self.rows: dict[int, np.ndarray] = {}

    def words(self) -> list[FreeWord]:
        """The reduced words in index order, decoding the codes of _letter_code."""
        letters = [(c // 2 + 1) * (-1) ** c for c in range(self.q + 1)]
        out: list[FreeWord] = [()]
        for p, c in zip(self.parent[1:].tolist(), self.last[1:].tolist()):
            out.append(out[p] + (letters[c],))
        return out

    def right(self, j: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Index of w_j.a for letter codes a, or -1 outside the ball."""
        level = self.level[j]
        back = self.last[j] ^ 1  # the code that cancels
        down = self.start[level + 1] + (j - self.start[level]) * self.q + a - (a > back)
        down = np.where(level == 0, 1 + a, np.where(level == self.r, -1, down))
        return np.where((a == back) & (level > 0), self.parent[j], down)

    def left(self, x: int) -> np.ndarray:
        """left(x)[i] for the letter of code x, with a last entry -1, so a
        gather at -1 stays at -1."""
        if x not in self.rows:
            row = np.full(self.size + 1, -1, dtype=np.intp)
            row[0] = 1 + x if self.r >= 1 else -1
            for level in range(1, self.r + 1):
                lo, hi = self.start[level], self.start[level + 1]
                row[lo:hi] = self.right(row[self.parent[lo:hi]], self.last[lo:hi])
            self.rows[x] = row
        return self.rows[x]


def _lattice_keys(points: np.ndarray, r: int) -> np.ndarray:
    """Points with coordinates in [-r, r] as byte strings that sort like
    the points (lexicographically): big-endian unsigned offsets, which
    np.searchsorted compares with memcmp."""
    shifted = np.ascontiguousarray(points + r, dtype=">u4")
    return shifted.view(np.dtype((np.void, 4 * points.shape[1]))).ravel()


class _BallIndex:
    """The ball of radius r, numbered once; elements() is MarkedGroup.ball.

    translates(gs) is the left action of each g in gs as the rows of one
    index array: entry [i, j] is the index of gs[i].w_j, or -1 when the
    product leaves the ball.
    """

    def __init__(self, group: MarkedGroup, r: int):
        self.kind, self.radius = group.kind, r
        if group.kind == "free":
            self.free = _FreeBall(group.rank, r)
            self.size = self.free.size
            width = 1
        else:
            self.points = np.array(_l1_ball(group.rank, r), dtype=np.int64).reshape(-1, group.rank)
            self.keys = _lattice_keys(self.points, r)
            self.size = len(self.points)
            width = group.rank  # a lattice point moves as d integers
        # the number of translates that _Compression stacks per call
        self.chunk = max(1, STACK_ENTRIES // (self.size * width))

    def elements(self) -> list[Element]:
        if self.kind == "lattice":
            return list(map(tuple, self.points.tolist()))
        return self.free.words()

    def translates(self, gs: list) -> np.ndarray:
        if self.kind == "lattice":
            moved = self.points + np.array(gs, dtype=np.int64).reshape(len(gs), 1, -1)
            inside = np.abs(moved).sum(axis=2) <= self.radius
            out = np.full((len(gs), self.size), -1, dtype=np.intp)
            out[inside] = np.searchsorted(self.keys, _lattice_keys(moved[inside], self.radius))
            return out
        # Composing the letters of a reduced word right to left is exact:
        # along a_j...a_m.h the length first falls, then rises, so no
        # partial product leaves the ball unless the whole product does.
        start = np.arange(self.size + 1)
        start[-1] = -1
        out = np.empty((len(gs), self.size), dtype=np.intp)
        for i, g in enumerate(gs):
            idx = start
            for letter in reversed(g):
                idx = self.free.left(_letter_code(letter))[idx]
            out[i] = idx[:-1]
        return out


def _ball_index(group: MarkedGroup, radius) -> _BallIndex:
    """The index of the ball of this radius, built on first use and kept
    on the group, so a probe builds one per radius it uses."""
    group.check_ball(radius)
    r = math.floor(radius)
    if r not in group._indices:
        group._indices[r] = _BallIndex(group, r)
    return group._indices[r]


def _compact(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Renumber the indices that occur in idx as 0..m-1, in order; also
    return the m indices kept."""
    used = np.zeros(n, dtype=bool)
    used[idx] = True
    return (np.cumsum(used) - 1)[idx], np.flatnonzero(used)


class _Compression:
    """Left convolution by functions on one support, compressed to a ball.

    M[i, j] is the sum of f(s) over the support elements s with
    w_i = s.w_j. The pattern (row, column, support index) is built once,
    from the support's translates stacked index.chunk at a time; only the
    values move with f.
    Rows and columns without entries are dropped, which changes no
    singular value.
    """

    def __init__(self, index: _BallIndex, support: list):
        rows, cols, which = [], [], []
        for lo in range(0, len(support), index.chunk):
            t = index.translates(support[lo : lo + index.chunk])
            flat = np.flatnonzero(t >= 0)
            rows.append(t.ravel()[flat])
            k, j = np.divmod(flat, index.size)
            k += lo
            cols.append(j)
            which.append(k)
        self.rows, self.row_ids = _compact(np.concatenate(rows), index.size)
        self.cols, self.col_ids = _compact(np.concatenate(cols), index.size)
        self.which = np.concatenate(which)
        # A complex vector viewed as floats interleaves (re, im), so one
        # bincount over these indices sums complex products.
        self.rows2 = (2 * self.rows[:, None] + np.arange(2)).ravel()
        self.cols2 = (2 * self.cols[:, None] + np.arange(2)).ravel()

    def norm(self, coeffs: np.ndarray, tol: float, max_iter: int) -> tuple[float, int, float]:
        """(lower bound, operator applications, relative residual) for
        the coefficients of the support elements, in support order.

        f is scaled by 2^-e, with e the binary exponent of max |f(s)|,
        before the solve; a power-of-two scale is exact, and the squares
        in M^H M then neither overflow nor underflow. A compression of at
        most DENSE_COLS columns and DENSE_ENTRIES entries is solved
        directly (_dense_top), one of more by Lanczos, which is given
        tol; max_iter bounds the applications of either.
        """
        peak = float(np.abs(coeffs).max())
        if peak == 0.0:
            return 0.0, 0, 0.0
        e = math.frexp(peak)[1]
        vals = (np.ldexp(coeffs.real, -e) + 1j * np.ldexp(coeffs.imag, -e))[self.which]
        m, n = len(self.row_ids), len(self.col_ids)
        if n <= min(DENSE_COLS, max_iter) and m * n <= DENSE_ENTRIES:
            sigma, applications, residual = _dense_top(self.rows, self.cols, vals, m, n)
            return math.ldexp(sigma, e), applications, residual
        conj = vals.conj()

        def forward(x):
            p = np.take(x, self.cols)
            p *= vals
            return np.bincount(self.rows2, p.view(float), 2 * m).view(complex)

        def gram(x):
            p = np.take(forward(x), self.rows)
            p *= conj
            return np.bincount(self.cols2, p.view(float), 2 * n).view(complex)

        sigma, applications, residual = _lanczos_top(gram, forward, n, tol, max_iter)
        return math.ldexp(sigma, e), applications, residual


def _dense_top(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, m: int, n: int) -> tuple[float, int, float]:
    """Top singular value of the m x n matrix M with entries vals at
    (rows, cols), from one eigh of G = M^H M.

    Each (row, column) pair occurs once, as s -> s.w_j is injective, so
    M is filled by assignment. Returns ||M x|| for the top eigenvector
    x of G scaled to unit length, which never exceeds ||M||, the n
    columns of G as its operator applications, and ||G x - theta x||
    divided by theta. The column of the identity holds every scaled
    coefficient, so theta >= 1/4.
    """
    mat = np.zeros((m, n), dtype=complex)
    mat[rows, cols] = vals
    g = mat.conj().T @ mat
    thetas, vecs = np.linalg.eigh(g)
    theta, x = float(thetas[-1]), vecs[:, -1]
    x = x / np.linalg.norm(x)
    residual = float(np.linalg.norm(g @ x - theta * x)) / theta
    return float(np.linalg.norm(mat @ x)), n, residual


def _lanczos_top(gram, forward, n: int, tol: float, max_iter: int) -> tuple[float, int, float]:
    """Top singular value of M by thick-restarted Lanczos on M^H M.

    gram(x) = M^H M x, forward(x) = M x. The basis holds at most
    LANCZOS_BASIS vectors; a restart keeps the top half of the Ritz
    vectors. Every step runs classical Gram-Schmidt against the whole
    basis twice, which keeps the basis orthonormal to working precision
    (Giraud, Langou, Rozloznik and van den Eshof, 2005). The projected
    matrix is real: M^H M is Hermitian, so its Lanczos coefficients and
    the restart couplings beta * u are real, and the imaginary parts of
    the computed ones are rounding, which is dropped. The start vector
    is positive like ones/sqrt(n) but has no symmetry: ones lies in the
    subspace fixed by the ball's symmetries, the Krylov space of a
    symmetric f never leaves it, and with full reorthogonalization no
    rounding error brings back a top singular vector outside it (on f2
    at radius 2, (1.5+1.5i) a - (1+i) a^-1 stopped at 2.5495 against
    3.0822).
    Stops once ||M^H M x - theta x|| <= tol * max(1, theta) for the top
    Ritz pair (theta, x); by the Lanczos relation that residual is
    beta * |last entry of the Ritz coefficients|. Returns ||M x|| for
    the unit Ritz vector x, which never exceeds ||M||, the number of
    gram applications, and the residual divided by theta.
    """
    size = min(LANCZOS_BASIS, n)
    keep = max(1, size // 2)
    basis = np.zeros((size, n), dtype=complex)
    proj = np.zeros((size, size))
    start = 0.5 + np.arange(1, n + 1) * START_STEP % 1.0
    basis[0] = start / np.linalg.norm(start)
    k = 1
    for applications in range(1, max_iter + 1):
        j = k - 1
        w = gram(basis[j])
        for _ in range(2):
            h = (basis[:k] @ w.conj()).conj()
            w -= h @ basis[:k]
            proj[:k, j] += h.real
        beta = float(np.linalg.norm(w))
        proj[j, :k] = proj[:k, j]
        thetas, vecs = np.linalg.eigh(proj[:k, :k])
        theta, u = float(thetas[-1]), vecs[:, -1]
        residual = beta * abs(u[-1])
        if residual <= tol * max(1.0, theta):
            x = u @ basis[:k]
            x /= np.linalg.norm(x)
            return float(np.linalg.norm(forward(x))), applications, residual / theta if theta > 0 else 0.0
        if k == size:
            basis[:keep] = vecs[:, -keep:].T @ basis[:k]
            proj[:] = 0.0
            proj[:keep, :keep] = np.diag(thetas[-keep:])
            k = keep
        basis[k] = w / beta
        k += 1
    raise ConvergenceError("Lanczos iteration did not converge", max_iter)


def _covered(f: GroupFunction, group: MarkedGroup, radius) -> GroupFunction:
    """f normalized, once the ball of this radius is allowed and covers its support."""
    group.check_ball(radius)
    f = normalize_function(f, group)
    if radius < support_radius(f, group):
        raise ValidationError("radius must cover the support of f")
    return f


def _reduced_norm(f: GroupFunction, group: MarkedGroup, radius, tol: float, max_iter: int) -> tuple[float, int, float]:
    """reduced_norm_truncated with the solver's applications and relative residual."""
    f = _covered(f, group, radius)
    if not f:
        return 0.0, 0, 0.0
    support = list(f)
    return _Compression(_ball_index(group, radius), support).norm(
        np.array([f[g] for g in support], dtype=complex), tol, max_iter
    )


def reduced_norm_truncated(
    f: GroupFunction,
    group: MarkedGroup,
    radius,
    tol: float = POWER_TOL,
    max_iter: int = POWER_MAX_ITER,
) -> float:
    """Certified lower bound for the reduced norm of f.

    Compresses the left convolution operator to the ball of the given
    radius and finds the top eigenvector x of the normal matrix: by one
    dense eigh when the compression has at most DENSE_COLS columns (and
    at most max_iter; tol is not used there), else by restarted Lanczos
    stopped at tol. The returned ||Mx|| for the unit vector x never
    exceeds the norm of the compression, which never exceeds the
    reduced norm and grows with the radius. max_iter bounds the
    operator applications; past it ConvergenceError carries the count.
    Requires the radius to cover the support of f.
    """
    return _reduced_norm(f, group, radius, tol, max_iter)[0]


@dataclass(frozen=True)
class OracleBracket:
    lower: float
    upper: float


def fourier_sup_oracle(f: GroupFunction, group: MarkedGroup, grid: int = 1 << 15) -> OracleBracket:
    """Bracket for sup |sum f(n) z^n| over the torus, Z^d only.

    Dense grid maximum plus a Lipschitz correction gives a certified
    upper bound; one refinement pass around the best cell tightens the
    lower bound.
    """
    if group.kind != "lattice":
        raise ValidationError("the Fourier oracle needs Z^d")
    f = normalize_function(f, group)
    if not f:
        return OracleBracket(0.0, 0.0)
    d = group.rank
    if d > 3:
        raise DeskScaleError("Fourier oracle supports d <= 3")
    exps = np.array([g for g in f], dtype=float)
    coeffs = np.array([f[g] for g in f], dtype=complex)
    lip = float(np.sum(np.abs(coeffs) * np.sum(np.abs(exps), axis=1)))

    def values(thetas: np.ndarray) -> np.ndarray:
        # thetas: (m, d) -> |symbol| at each point
        return np.abs(np.exp(1j * thetas @ exps.T) @ coeffs)

    per_dim = max(8, int(round(grid ** (1.0 / d))))
    h = 2 * math.pi / per_dim
    axes = [np.arange(per_dim) * h for _ in range(d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    vals = values(mesh)
    top = int(np.argmax(vals))
    best = float(vals[top])
    upper = best + lip * (h / 2) * d
    # Refinement: re-grid the winning cell a few times.
    width = h
    center = mesh[top]
    for _ in range(8):
        local = np.linspace(-width / 2, width / 2, 9)
        offsets = np.stack(np.meshgrid(*([local] * d), indexing="ij"), axis=-1).reshape(-1, d)
        cand = center[None, :] + offsets
        cvals = values(cand)
        ci = int(np.argmax(cvals))
        if float(cvals[ci]) > best:
            best = float(cvals[ci])
            center = cand[ci]
        width /= 4
    return OracleBracket(lower=best, upper=upper)


@dataclass(frozen=True)
class NormSpec:
    """Which norm a probe exercises: l1, hs (needs s), or
    reduced_truncated (needs radius)."""

    name: str
    s: Optional[float] = None
    radius: Optional[float] = None

    def evaluate(self, f: GroupFunction, group: MarkedGroup) -> float:
        if self.name == "l1":
            return l1_norm(f)
        if self.name == "hs":
            if self.s is None:
                raise ValidationError("hs norm needs s")
            return hs_norm(f, self.s, group)
        if self.name == "reduced_truncated":
            return reduced_norm_truncated(f, group, self.ball_radius())
        raise ValidationError(f"unknown norm {self.name!r}")

    def ball_radius(self) -> float:
        if self.radius is None:
            raise ValidationError("truncated reduced norm needs a radius")
        return self.radius


@dataclass(frozen=True)
class UnconditionalityReport:
    norm: NormSpec
    base_value: float
    max_deviation: float
    witness: Optional[GroupFunction]
    trials: int
    seed: int


def unconditionality_probe(
    norm: NormSpec,
    f: GroupFunction,
    group: MarkedGroup,
    trials: int,
    seed: int,
) -> UnconditionalityReport:
    """Random unimodular phase flips against a norm.

    Norms that only see |f| (l1, hs) must show zero deviation to
    machine precision; the truncated reduced norm generally moves, and
    the report carries the worst witness found.
    """
    if trials < 1:
        raise ValidationError("at least one trial required")
    if trials > PROBE_COUNT_CAP:
        raise DeskScaleError(f"{trials} trials exceed the desk-scale cap {PROBE_COUNT_CAP}")
    f = normalize_function(f, group)
    elems = sorted(f, key=repr)
    pattern = None
    if norm.name == "reduced_truncated" and _covered(f, group, norm.ball_radius()):
        # one compression for the base value and every trial: only the values move
        pattern = _Compression(_ball_index(group, norm.radius), elems)
        base = pattern.norm(np.array([f[g] for g in elems]), POWER_TOL, POWER_MAX_ITER)[0]
    else:
        base = norm.evaluate(f, group)
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = None
    for _ in range(trials):
        phases = np.exp(2j * math.pi * rng.random(len(elems)))
        flipped = {g: f[g] * phases[i] for i, g in enumerate(elems)}
        if pattern is None:
            value = norm.evaluate(flipped, group)
        else:
            value = pattern.norm(np.array([flipped[g] for g in elems]), POWER_TOL, POWER_MAX_ITER)[0]
        dev = abs(value - base)
        if dev > worst:
            worst = dev
            witness = flipped
    return UnconditionalityReport(
        norm=norm,
        base_value=base,
        max_deviation=worst,
        witness=witness,
        trials=trials,
        seed=seed,
    )


@dataclass(frozen=True)
class RapidDecayReport:
    """Empirical reduced-vs-Sobolev ratios; evidence, never a proof."""

    group_kind: str
    s: float
    ratios: tuple[float, ...]
    max_ratio: float
    samples: int
    seed: int
    note: str = "empirical probe only; boundedness here proves nothing"


def rd_inequality_probe(
    group: MarkedGroup,
    s: float,
    samples: int,
    seed: int,
    max_support_radius: int = 6,
    radius_margin: int = 4,
    sphere_supported: bool = False,
) -> RapidDecayReport:
    """Max of reduced_norm_truncated(f, R) / hs_norm(f, s) on random f.

    Supports grow with the sample index up to max_support_radius;
    coefficients are seeded complex Gaussians. sphere_supported
    restricts supports to spheres (the natural regime on free groups).
    """
    if samples < 1:
        raise ValidationError("at least one sample required")
    if samples > PROBE_COUNT_CAP:
        raise DeskScaleError(f"{samples} samples exceed the desk-scale cap {PROBE_COUNT_CAP}")
    group.check_ball(min(samples, max_support_radius) + radius_margin)
    rng = np.random.default_rng(seed)
    ratios = []
    for i in range(samples):
        r = 1 + (i % max_support_radius)
        pool = group.sphere(r) if sphere_supported else group.ball(r)
        size = min(len(pool), int(rng.integers(1, max(2, min(len(pool), 100)))))
        chosen = [pool[j] for j in rng.choice(len(pool), size=size, replace=False)]
        f = {
            g: complex(a, b)
            for g, a, b in zip(chosen, rng.normal(size=size), rng.normal(size=size))
        }
        num = reduced_norm_truncated(f, group, r + radius_margin)
        den = hs_norm(f, s, group)
        ratios.append(num / den)
    return RapidDecayReport(
        group_kind=group.kind,
        s=float(s),
        ratios=tuple(ratios),
        max_ratio=max(ratios),
        samples=samples,
        seed=seed,
    )


@dataclass(frozen=True)
class NormReport:
    """The norms of one function: exact l1, Sobolev at one s, and the
    truncated reduced-norm bracket [red_lower, red_upper = l1], with the
    operator applications behind red_lower (the n columns of M^H M for
    the dense solve) and the final residual relative to the top
    eigenvalue."""

    l1: float
    s: float
    hs: float
    radius: float
    red_lower: float
    red_upper: float
    iterations: int = 0
    residual: float = 0.0


def compute_norm_report(
    f: GroupFunction, group: MarkedGroup, s, radius, tol: float = POWER_TOL
) -> NormReport:
    f = normalize_function(f, group)
    l1 = l1_norm(f)
    hs = hs_norm(f, s, group)
    red_lower, iterations, residual = _reduced_norm(f, group, radius, tol, POWER_MAX_ITER)
    return NormReport(
        l1=l1,
        s=float(s),
        hs=hs,
        radius=float(radius),
        red_lower=min(red_lower, l1),  # ||f||_red <= ||f||_1 clamps the rounding of ||Mx||
        red_upper=l1,
        iterations=iterations,
        residual=residual,
    )


def function_from_json(items, group: MarkedGroup) -> GroupFunction:
    """Parse [{"g": ..., "re": ..., "im": ...}] into a group function.

    g is a list of integers (a reduced word, or lattice coordinates);
    re and im are finite numbers and default to 0.
    """
    if not isinstance(items, list):
        raise ValidationError("a group function is a JSON list of {g, re, im} entries")
    out: GroupFunction = {}
    for item in items:
        if not isinstance(item, dict) or "g" not in item:
            raise ValidationError("each entry needs a 'g' key")
        g = item["g"]
        if not (isinstance(g, list) and all(type(x) is int for x in g)):
            raise ValidationError(f"element {g!r} is not a list of integers")
        c = complex(finite_number(item.get("re", 0), "re"), finite_number(item.get("im", 0), "im"))
        if c != 0:
            key = group.check_element(g)
            out[key] = out.get(key, 0j) + c
    return out


def function_to_json(f: GroupFunction) -> list[dict]:
    return [{"g": list(g), "re": c.real, "im": c.imag} for g, c in sorted(f.items(), key=lambda t: repr(t[0]))]
