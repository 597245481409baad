"""Norms on group algebras of discrete groups, at truncation scale.

Three marked group kinds: free groups on k letters with word
reduction, integer lattices Z^d, and finite groups given by a table.
Group functions are finite-support dicts element -> complex.

The reduced norm is never reported as a point value: compressing the
left convolution operator to a ball gives a certified lower bound
(nondecreasing in the radius), and the L1 norm is the upper bound.
For Z^d the sup of the symbol over the torus, bracketed by a dense
grid with a Lipschitz correction, serves as ground truth in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, DeskScaleError, ValidationError
from .jsonutil import finite_number
from .ktheory import resolve_group_table, validate_group_table

BALL_CAP = 1_000_000
POWER_TOL = 1e-6
POWER_MAX_ITER = 200_000
# The stopping rule compares estimates this many iterations apart, so
# slow spectral tails cannot stall the iteration into a false stop.
POWER_CHECK_WINDOW = 64

FreeWord = tuple[int, ...]
LatticePoint = tuple[int, ...]
Element = Union[FreeWord, LatticePoint, int]
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
    """A group with a length function satisfying l(g^-1) = l(g) and
    l(gh) <= l(g) + l(h), with l(identity) = 0.

    Each kind carries its natural word length (free: letters, lattice:
    l1, finite: discrete); with_length swaps in a custom one. Custom
    lengths are the caller's responsibility; validate_length
    property-tests the axioms on random triples.
    """

    kind: str
    rank: int = 0
    table: Optional[np.ndarray] = None
    inverses: Optional[np.ndarray] = None
    identity_index: int = 0
    length_fn: Optional[Callable] = None

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

    @classmethod
    def from_table(cls, table) -> "MarkedGroup":
        t = resolve_group_table(table)
        e, inv = validate_group_table(t)
        return cls(kind="finite", rank=t.shape[0], table=t, inverses=inv, identity_index=e)

    # -- group operations ---------------------------------------------------

    def identity(self) -> Element:
        if self.kind == "free":
            return ()
        if self.kind == "lattice":
            return (0,) * self.rank
        return self.identity_index

    def mul(self, a: Element, b: Element) -> Element:
        if self.kind == "free":
            return reduce_word(tuple(a) + tuple(b))
        if self.kind == "lattice":
            return tuple(x + y for x, y in zip(a, b))
        return int(self.table[a, b])

    def inv(self, a: Element) -> Element:
        if self.kind == "free":
            return tuple(-x for x in reversed(a))
        if self.kind == "lattice":
            return tuple(-x for x in a)
        return int(self.inverses[a])

    def length(self, a: Element):
        if self.length_fn is not None:
            return self.length_fn(a)
        if self.kind == "free":
            return len(a)
        if self.kind == "lattice":
            return sum(abs(x) for x in a)
        return 0 if a == self.identity_index else 1

    def with_length(self, fn: Callable) -> "MarkedGroup":
        import dataclasses

        return dataclasses.replace(self, length_fn=fn)

    def check_element(self, a: Element) -> Element:
        if self.kind == "free":
            word = tuple(int(x) for x in a)
            if any(x == 0 or abs(x) > self.rank for x in word):
                raise ValidationError(f"letters must be +-1..+-{self.rank}")
            if reduce_word(word) != word:
                raise ValidationError(f"word {word} is not reduced")
            return word
        if self.kind == "lattice":
            v = tuple(int(x) for x in a)
            if len(v) != self.rank:
                raise ValidationError(f"lattice point must have {self.rank} coordinates")
            return v
        idx = int(a)
        if not 0 <= idx < self.rank:
            raise ValidationError("element index out of range")
        return idx

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
        if self.kind == "finite":
            return self.rank
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
        """Elements of length <= radius: lattice points in lexicographic
        order, reduced words by length. Refused past BALL_CAP first."""
        self.check_ball(radius)
        if self.kind == "finite":
            return list(range(self.rank))
        r = math.floor(radius)
        if self.kind == "lattice":
            return _l1_ball(self.rank, r)
        out: list[Element] = [()]
        frontier: list[FreeWord] = [()]
        for _ in range(r):
            nxt = []
            for w in frontier:
                for letter in range(1, self.rank + 1):
                    for signed in (letter, -letter):
                        if w and w[-1] == -signed:
                            continue
                        nxt.append(w + (signed,))
            out.extend(nxt)
            frontier = nxt
        return out

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


def validate_length(group: MarkedGroup, trials: int = 200, seed: int = 0, radius: int = 3) -> None:
    """Property-test the length axioms on random triples; raises on
    the first violation."""
    rng = np.random.default_rng(seed)
    if group.length(group.identity()) != 0:
        raise ValidationError("length of the identity must be 0")
    pool = group.ball(radius)
    for _ in range(trials):
        a = pool[int(rng.integers(len(pool)))]
        b = pool[int(rng.integers(len(pool)))]
        if group.length(group.inv(a)) != group.length(a):
            raise ValidationError(f"length is not symmetric at {a!r}")
        if group.length(group.mul(a, b)) > group.length(a) + group.length(b):
            raise ValidationError(f"length is not subadditive at {a!r}, {b!r}")


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


def delta(g: Element) -> GroupFunction:
    return {g: 1.0 + 0j}


def convolve(f: GroupFunction, g: GroupFunction, group: MarkedGroup) -> GroupFunction:
    """Convolution for the counting measure: sum_h f(h) g(h^-1 x)."""
    out: GroupFunction = {}
    for a, ca in f.items():
        for b, cb in g.items():
            x = group.mul(a, b)
            val = out.get(x, 0j) + ca * cb
            if val == 0:
                out.pop(x, None)
            else:
                out[x] = val
    return out


def l1_norm(f: GroupFunction) -> float:
    return float(sum(abs(c) for c in f.values()))


def hs_norm(f: GroupFunction, s, group: MarkedGroup) -> float:
    """Weighted l2 norm with weight (1 + length)^s."""
    if s < 0:
        raise ValidationError("s must be nonnegative")
    total = 0.0
    try:
        for g, c in f.items():
            w = (1.0 + group.length(g)) ** s
            total += (w * abs(c)) ** 2
    except OverflowError as exc:
        raise ValidationError(f"the Sobolev norm at s = {s} overflows a float") from exc
    return math.sqrt(total)


def support_radius(f: GroupFunction, group: MarkedGroup):
    return max((group.length(g) for g in f), default=0)


def _compressed_operator(f: GroupFunction, group: MarkedGroup, radius) -> sp.csr_matrix:
    ball = group.ball(radius)
    index = {g: i for i, g in enumerate(ball)}
    rows, cols, vals = [], [], []
    for s_elem, coeff in f.items():
        for h, j in index.items():
            t = group.mul(s_elem, h)
            i = index.get(t)
            if i is not None:
                rows.append(i)
                cols.append(j)
                vals.append(coeff)
    n = len(ball)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=complex)


def reduced_norm_truncated(
    f: GroupFunction,
    group: MarkedGroup,
    radius,
    tol: float = POWER_TOL,
    max_iter: int = POWER_MAX_ITER,
) -> float:
    """Certified lower bound for the reduced norm of f.

    Compresses the left convolution operator to the ball of the given
    radius and runs power iteration on the normal matrix; the returned
    Rayleigh estimate never exceeds the true operator norm, and grows
    with the radius. Requires the radius to cover the support of f.
    """
    f = normalize_function(f, group)
    if not f:
        return 0.0
    if radius < support_radius(f, group):
        raise ValidationError("radius must cover the support of f")
    m = _compressed_operator(f, group, radius)
    mh = m.conj().T.tocsr()
    n = m.shape[1]
    x = np.ones(n) / math.sqrt(n)
    sigma = 0.0
    checkpoint = 0.0
    for it in range(1, max_iter + 1):
        y = m @ x
        sigma = float(np.linalg.norm(y))
        if sigma == 0.0:
            return 0.0
        x = mh @ y
        x /= np.linalg.norm(x)
        if it % POWER_CHECK_WINDOW == 0:
            if abs(sigma - checkpoint) <= tol * max(1.0, sigma):
                return sigma
            checkpoint = sigma
    raise ConvergenceError("power iteration did not converge", max_iter)


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


def schur_multiply(c: Callable[[Element], complex], f: GroupFunction) -> GroupFunction:
    """Pointwise product g -> c(g) f(g)."""
    out = {}
    for g, coeff in f.items():
        val = complex(c(g)) * coeff
        if val != 0:
            out[g] = val
    return out


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
            if self.radius is None:
                raise ValidationError("truncated reduced norm needs a radius")
            return reduced_norm_truncated(f, group, self.radius)
        raise ValidationError(f"unknown norm {self.name!r}")


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
    f = normalize_function(f, group)
    base = norm.evaluate(f, group)
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = None
    elems = sorted(f, key=repr)
    for _ in range(trials):
        phases = np.exp(2j * math.pi * rng.random(len(elems)))
        flipped = {g: f[g] * phases[i] for i, g in enumerate(elems)}
        dev = abs(norm.evaluate(flipped, group) - base)
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
    if group.kind not in ("free", "lattice"):
        raise ValidationError("the rapid-decay probe runs on free groups and lattices")
    if samples < 1:
        raise ValidationError("at least one sample required")
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
class SchurRatioReport:
    """Empirical bound witness for a Schur multiplier.

    The operator norm of Schur multiplication is not computed; only
    the ratio of truncated reduced norms, maximized over seeded
    samples, is reported.
    """

    max_ratio: float
    ratios: tuple[float, ...]
    samples: int
    seed: int


def schur_ratio_probe(
    c: Callable[[Element], complex],
    group: MarkedGroup,
    samples: int,
    seed: int,
    max_support_radius: int = 5,
    radius_margin: int = 4,
) -> SchurRatioReport:
    """Max over samples of red_trunc(c . f) / red_trunc(f)."""
    if samples < 1:
        raise ValidationError("at least one sample required")
    group.check_ball(min(samples, max_support_radius) + radius_margin)
    rng = np.random.default_rng(seed)
    ratios = []
    for i in range(samples):
        r = 1 + (i % max_support_radius)
        pool = group.ball(r)
        size = int(rng.integers(1, min(len(pool), 24) + 1))
        chosen = [pool[j] for j in rng.choice(len(pool), size=size, replace=False)]
        f = {
            g: complex(a, b)
            for g, a, b in zip(chosen, rng.normal(size=size), rng.normal(size=size))
        }
        f = normalize_function(f, group)
        if not f:
            continue
        base = reduced_norm_truncated(f, group, r + radius_margin)
        mult = schur_multiply(c, f)
        if not mult or base == 0:
            ratios.append(0.0)
            continue
        ratios.append(reduced_norm_truncated(mult, group, r + radius_margin) / base)
    return SchurRatioReport(
        max_ratio=max(ratios) if ratios else 0.0,
        ratios=tuple(ratios),
        samples=samples,
        seed=seed,
    )


@dataclass(frozen=True)
class NormReport:
    """The norms of one function: exact l1, Sobolev at one s, and the
    truncated reduced-norm bracket [red_lower, red_upper = l1]."""

    l1: float
    s: float
    hs: float
    radius: float
    red_lower: float
    red_upper: float


def compute_norm_report(
    f: GroupFunction, group: MarkedGroup, s, radius, tol: float = POWER_TOL
) -> NormReport:
    f = normalize_function(f, group)
    l1 = l1_norm(f)
    return NormReport(
        l1=l1,
        s=float(s),
        hs=hs_norm(f, s, group),
        radius=float(radius),
        red_lower=reduced_norm_truncated(f, group, radius, tol=tol),
        red_upper=l1,
    )


def function_from_json(items, group: MarkedGroup) -> GroupFunction:
    """Parse [{"g": ..., "re": ..., "im": ...}] into a group function.

    g is a list of integers (a reduced word, or lattice coordinates),
    or for a finite group an integer index; re and im are finite
    numbers and default to 0.
    """
    if not isinstance(items, list):
        raise ValidationError("a group function is a JSON list of {g, re, im} entries")
    out: GroupFunction = {}
    for item in items:
        if not isinstance(item, dict) or "g" not in item:
            raise ValidationError("each entry needs a 'g' key")
        g = item["g"]
        if isinstance(g, list) and all(type(x) is int for x in g):
            g = tuple(g)
        elif not (group.kind == "finite" and type(g) is int):
            raise ValidationError(f"element {g!r} is not a list of integers")
        c = complex(finite_number(item.get("re", 0), "re"), finite_number(item.get("im", 0), "im"))
        if c != 0:
            key = group.check_element(g)
            out[key] = out.get(key, 0j) + c
    return out


def function_to_json(f: GroupFunction) -> list[dict]:
    out = []
    for g, c in sorted(f.items(), key=lambda t: repr(t[0])):
        entry = {"g": list(g) if isinstance(g, tuple) else g, "re": c.real, "im": c.imag}
        out.append(entry)
    return out
