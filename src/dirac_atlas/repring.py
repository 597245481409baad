"""Representation ring of a compact group at character level.

A virtual character is a finite weight -> integer multiplicity map over
a fixed ambient root system (the system of K, possibly a subsystem of a
larger one sharing its coordinates). It keys its weights by integer
numerator tuples over one denominator (1 on standalone types, 2 for the
half-integral weights of spin modules), so sums, products, the
Weyl-invariance check and the decomposition run on integers. The
rootsys kernels make_dominant and weyl_orbit take and return the same
numerator tuples over the caller's denominator (W acts linearly), so
they are called with no conversion; Fraction weights are made only
where a caller reads them: terms, dominant_multiplicities, decompose's
labels and error messages. Irreducible characters
come from highest weights via the Freudenthal multiplicity recursion, run on
integer numerators over one denominator: the dominant weights are found
by descent from the highest weight, each multiplicity is computed once
per dominant weight, the dominance moves of the root strings are shared
across tables through make_dominant's bounded cache, and the Weyl
orbits are expanded only at the end, after the support has been checked
against SUPPORT_CAP with closed-form orbit sizes. Decomposition into
irreducibles is Brauer-Klimyk (Racah-Speiser): each weight of the
character, shifted by rho and by the highest weight of an optional
tensor factor, is paired with the positive roots and made dominant
once, with a sign; no Freudenthal table is read and no product support
is built. The Weyl dimension formula is kept as an independent second
code path so the two can cross-validate.

Negative multiplicities are first class; nothing clamps.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import DeskScaleError, ValidationError
from .jsonutil import vec_str
from .rootsys import (
    RootSystem,
    Weight,
    _bilinear,
    _dots,
    check_dim,
    check_dominant_integral,
    grlex_key,
    integer_coords,
    make_dominant,
    orbit_size,
    weight,
    weyl_orbit,
)

# Character supports beyond this are outside the desk scale contract.
SUPPORT_CAP = 100_000
# Dominant tables kept by _dominant_multiplicities' cache, well above
# the distinct highest weights (under 250) of a stream of about a
# hundred rep requests.
TABLE_CACHE_SIZE = 1024


class IrrLabel(NamedTuple):
    """Label of an irreducible: its dominant highest weight."""

    highest_weight: Weight


@dataclass(frozen=True)
class VirtualCharacter:
    """Finite-support weight -> multiplicity map; element of R(K).

    A weight w is stored as the integer numerators of w over one
    positive denominator den, the LCD of the whole support (1 for the
    empty character), so equal characters have equal fields. nums never
    stores zero multiplicities. terms is the same map keyed by Fraction
    weights, built on first access. Instances are treated as immutable;
    ambient systems compare by identity.
    """

    ambient: RootSystem
    nums: dict
    den: int

    def __post_init__(self):
        if 0 in self.nums.values():
            raise AssertionError("zero multiplicities must be dropped on construction")

    @functools.cached_property
    def terms(self) -> Mapping[Weight, int]:
        """Read-only weight -> multiplicity map with Fraction weights."""
        fr = {c: Fraction(c, self.den) for c in {c for w in self.nums for c in w}}
        return MappingProxyType({tuple(map(fr.__getitem__, w)): m for w, m in self.nums.items()})

    def _rescaled(self, den: int) -> dict:
        """nums over den, a multiple of self.den."""
        f = den // self.den
        if f == 1:
            return self.nums
        return {tuple(f * c for c in w): m for w, m in self.nums.items()}

    def __add__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        _same_ambient(self, other)
        den = math.lcm(self.den, other.den)
        out = dict(self._rescaled(den))
        for w, m in other._rescaled(den).items():
            nm = out.get(w, 0) + m
            if nm == 0:
                out.pop(w, None)
            else:
                out[w] = nm
        return _character(self.ambient, out, den)

    def __neg__(self) -> "VirtualCharacter":
        return VirtualCharacter(self.ambient, {w: -m for w, m in self.nums.items()}, self.den)

    def __sub__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        return self + (-other)

    def __mul__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        return product(self, other)

    def scaled(self, c: int) -> "VirtualCharacter":
        if c == 0:
            return zero_character(self.ambient)
        return VirtualCharacter(self.ambient, {w: c * m for w, m in self.nums.items()}, self.den)


def _character(ambient: RootSystem, nums: dict, den: int) -> VirtualCharacter:
    """The character nums / den, with den reduced to the LCD of the support."""
    g = den
    for w in nums:
        if g == 1:
            break
        g = math.gcd(g, *w)
    if g > 1:
        nums = {tuple(c // g for c in w): m for w, m in nums.items()}
    return VirtualCharacter(ambient, nums, den // g)


def _same_ambient(a: VirtualCharacter, b: VirtualCharacter) -> None:
    if a.ambient is not b.ambient:
        raise ValidationError("characters live over different ambient systems")


def _fractions(nums: tuple[int, ...], den: int) -> Weight:
    return tuple(Fraction(c, den) for c in nums)


def char_from_terms(ambient: RootSystem, terms) -> VirtualCharacter:
    clean = {}
    for w, m in dict(terms).items():
        if len(w) != ambient.rank:
            raise ValidationError("weight dimension does not match the ambient system")
        if m != 0:
            clean[tuple(Fraction(c) for c in w)] = int(m)
    den = math.lcm(*(c.denominator for w in clean for c in w))
    return VirtualCharacter(ambient, {_numerators(w, den): m for w, m in clean.items()}, den)


def zero_character(rs: RootSystem) -> VirtualCharacter:
    return VirtualCharacter(rs, {}, 1)


def trivial_character(rs: RootSystem) -> VirtualCharacter:
    return VirtualCharacter(rs, {(0,) * rs.rank: 1}, 1)


def label_weight(v, rs: RootSystem) -> Weight:
    """The highest weight of an IrrLabel, or a coordinate sequence, as a
    Weight with one coordinate per rank of rs."""
    hw = weight(v.highest_weight if isinstance(v, IrrLabel) else v)
    check_dim(hw, rs.rank)
    return hw


def highest_weight(mu, rs: RootSystem) -> Weight:
    """label_weight of mu, checked to be dominant and integral for rs."""
    hw = label_weight(mu, rs)
    check_dominant_integral(hw, rs, "highest weight")
    return hw


def _numerators(x: Weight, den: int) -> tuple[int, ...]:
    """Numerators of x over den; den is a multiple of every denominator of x."""
    return tuple(c.numerator * (den // c.denominator) for c in x)


def _shifted_norm(x: tuple[int, ...], rho: tuple[int, ...], gram_rows) -> int:
    """(x + rho) G (x + rho) for numerators x, rho over one denominator."""
    y = tuple(map(operator.add, x, rho))
    return _bilinear(y, y, gram_rows)


def _check_support(size: int, what: str) -> None:
    if size > SUPPORT_CAP:
        raise DeskScaleError(f"{what} has {size} weights, over the character support cap {SUPPORT_CAP}")


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _dominant_multiplicities(mu: Weight, rs: RootSystem) -> tuple[int, dict]:
    """Freudenthal recursion over the dominant weights below mu, on integers.

    The dominant weights of V(mu) are found by descent: every one of
    them is reached from mu through dominant weights, each a positive
    root below the one before (Stembridge 1998), so one search over
    lambda - alpha finds them all. They are processed by level (the
    height of mu - lambda), then graded-lex, so every multiplicity the
    right-hand side needs is already known when a weight is processed.

    Weights are integer numerators over one denominator D, the LCD of mu
    and rho. With L the scale of rs.integral, x @ fr is L D (lambda, a)
    for every positive root a at once, and each step of a root string
    adds D L (a, a). The dominant representative of each lambda + t a
    comes from make_dominant on its numerators over D, shared across
    tables, bounded: dom_of asks it once per distinct weight of this
    table (and is freed on return, so one large table cannot thrash
    make_dominant's cache), and the cache answers the weights that
    other tables asked for. The
    final division of the recursion is checked to be exact and positive.
    Returns (d, table): d is the LCD of mu, and table maps the
    numerators over d of each dominant weight to its multiplicity
    (every weight differs from mu by integral roots, so d divides it).
    """
    mu_den = integer_coords(mu)[1]
    form = rs.integral
    if not form.simple_index:
        return mu_den, {_numerators(mu, mu_den): 1}
    rho_nums, rho_den = form.rho_coords
    den = math.lcm(mu_den, rho_den)
    top = _numerators(mu, den)
    rho = tuple(c * (den // rho_den) for c in rho_nums)
    steps = [tuple(den * c for c in r) for r in form.roots.tolist()]
    step_pairings = [_dots(r, form.coroot_columns) for r in steps]
    # descent from mu through dominant weights
    level = {top: 0}
    pending = [(top, _dots(top, form.coroot_columns))]
    while pending:
        lam, pairs = pending.pop()
        for step, sp, h in zip(steps, step_pairings, form.heights):
            below = tuple(p - q for p, q in zip(pairs, sp))
            if min(below) < 0:
                continue
            nu = tuple(a - b for a, b in zip(lam, step))
            if nu not in level:
                level[nu] = level[lam] + h
                if len(level) > SUPPORT_CAP:
                    raise DeskScaleError(f"dominant weights below {vec_str(mu)} exceed the character support cap {SUPPORT_CAP}")
                pending.append((nu, below))
    order = sorted(level, key=lambda x: (level[x], grlex_key(x)))

    def norm(x):  # L D^2 (x + rho, x + rho)
        return _shifted_norm(x, rho, form.gram_rows)

    # D L (a, a) for each positive root a
    string_steps = [sum(a * b for a, b in zip(step, col)) for step, col in zip(steps, form.fr_columns)]
    top_norm = norm(top)
    mult = {top: 1}
    dom_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    for lam in order[1:]:
        acc = 0
        for p, inc, step in zip(_dots(lam, form.fr_columns), string_steps, steps):
            nu = lam
            while True:
                nu = tuple(a + b for a, b in zip(nu, step))
                p += inc
                dom = dom_of.get(nu)
                if dom is None:
                    dom = dom_of[nu] = make_dominant(nu, rs)
                m = mult.get(dom)
                if m is None:
                    break
                acc += m * p
        num, gap = 2 * den * acc, top_norm - norm(lam)
        if gap <= 0 or num <= 0 or num % gap:
            raise AssertionError(f"Freudenthal recursion broke at {vec_str(_fractions(lam, den))}")
        mult[lam] = num // gap
    f = den // mu_den
    return mu_den, {tuple(c // f for c in lam): m for lam, m in mult.items()}


def dominant_multiplicities(mu, rs: RootSystem) -> dict:
    """Map of dominant weights to multiplicities for the irreducible
    with highest weight mu."""
    hw = highest_weight(mu, rs)
    den, table = _dominant_multiplicities(hw, rs)
    return {_fractions(lam, den): m for lam, m in table.items()}


def irr_character(mu, kk: RootSystem) -> VirtualCharacter:
    """Character of the irreducible with highest weight mu.

    mu must be dominant and integral for kk (half-integral ambient
    coordinates are fine as long as the coroot pairings with kk's
    simple roots are nonnegative integers). The support is refused
    past SUPPORT_CAP before it is built: first the orbit of mu alone,
    before any work, then the orbits of all the dominant weights.
    """
    hw = highest_weight(mu, kk)
    _check_support(orbit_size(hw, kk), f"the Weyl orbit of {vec_str(hw)}")
    den, table = _dominant_multiplicities(hw, kk)
    _check_support(sum(orbit_size(lam, kk) for lam in table), f"the character of {vec_str(hw)}")
    # den is the LCD of hw, which lies in the support
    return VirtualCharacter(kk, {w: m for lam, m in table.items() for w in weyl_orbit(lam, kk)}, den)


def dimension(chi: VirtualCharacter) -> int:
    """Sum of multiplicities; negative for genuinely virtual classes."""
    return sum(chi.nums.values())


def weyl_dimension(mu, rs: RootSystem) -> Fraction:
    """Weyl dimension formula: prod (mu+rho, a) / (rho, a) over a > 0.

    Independent of the Freudenthal path; exact rational (integral on
    dominant integral weights). With the integer pairings (mu, a) = p_a/d
    and (rho, a) = q_a/e it is prod (e p_a + d q_a) / (d^N prod q_a).
    """
    form = rs.integral
    p, d = form.pairings(label_weight(mu, rs))
    q, e = form.rho_pairings
    return Fraction(math.prod(e * a + d * b for a, b in zip(p, q)), d ** len(q) * math.prod(q))


def product(a: VirtualCharacter, b: VirtualCharacter) -> VirtualCharacter:
    """Tensor product at character level: convolution of the supports,
    as numerators over the lcm of the two denominators."""
    _same_ambient(a, b)
    den = math.lcm(a.den, b.den)
    right = list(b._rescaled(den).items())
    out: dict[tuple[int, ...], int] = {}
    for w1, m1 in a._rescaled(den).items():
        for w2, m2 in right:
            w = tuple(map(operator.add, w1, w2))
            nm = out.get(w, 0) + m1 * m2
            if nm == 0:
                del out[w]
            else:
                out[w] = nm
        if len(out) > SUPPORT_CAP:
            raise DeskScaleError(f"character support exceeds the cap {SUPPORT_CAP}")
    return _character(a.ambient, out, den)


def is_weyl_invariant(chi: VirtualCharacter) -> bool:
    """True iff every Weyl orbit meets the support with one multiplicity.

    Each orbit is read from its dominant weight, so on a character that
    irr_character has built the orbits come from weyl_orbit's cache.
    """
    rs = chi.ambient
    nums = chi.nums
    seen: set[tuple[int, ...]] = set()
    for w, m in nums.items():
        if w in seen:
            continue
        orbit = weyl_orbit(make_dominant(w, rs), rs)
        if any(nums.get(o) != m for o in orbit):
            return False
        seen.update(orbit)
    return True


def decompose(chi: VirtualCharacter, tensor_with=None) -> list[tuple[IrrLabel, int]]:
    """Write V(tensor_with) (x) chi, or chi alone when tensor_with is
    None, as an integer combination of irreducibles.

    Brauer-Klimyk (Racah-Speiser): for a Weyl-invariant chi and a
    dominant integral lambda, chi * A_{lambda+rho} is the sum over the
    weights nu of chi of mult(nu) A_{lambda+nu+rho} (Humphreys, Lie
    algebras, 24 Ex. 9; Klimyk 1968). So each weight nu adds its
    multiplicity at make_dominant(x) - rho, x = lambda + nu + rho, with
    the sign (-1)^l(w) of the w that makes x dominant: l(w) counts the
    positive roots that pair negatively with x. A singular x (some
    pairing 0) adds nothing. The pairings of all the x are one integer
    product x @ fr, over numerators on the lcm of the denominators of
    chi, lambda and rho. No product support is built and nothing is
    subtracted.

    Raises on non-Weyl-invariant input. A dominant weight of chi that is
    not integral never cancels, so the input is refused at the one with
    the largest (norm of mu + rho, graded-lex) key, with the message of
    the highest-weight check. Output is sorted by graded-lex highest
    weight, with zero coefficients dropped.
    """
    rs = chi.ambient
    if not is_weyl_invariant(chi):
        raise ValidationError("character is not Weyl-invariant")
    _check_integral(chi)
    form = rs.integral
    lam = (0,) * rs.rank if tensor_with is None else highest_weight(tensor_with, rs)
    lam_nums, lam_den = integer_coords(lam)
    rho_nums, rho_den = form.rho_coords
    den = math.lcm(chi.den, lam_den, rho_den)
    rho = tuple(r * (den // rho_den) for r in rho_nums)
    shift = tuple(a * (den // lam_den) + r for a, r in zip(lam_nums, rho))
    f = den // chi.den
    nums = list(chi.nums)
    # int64 is exact while no pairing can reach 2^63; Python ints past that
    top = f * max((abs(c) for w in nums for c in w), default=0) + max(map(abs, shift), default=0)
    exact = top * int(np.abs(form.fr).sum(axis=0).max(initial=0)) < 2**63
    xs = np.array(nums, dtype=np.int64 if exact else object).reshape(len(nums), rs.rank) * f + shift
    pairs = xs @ form.fr
    regular = ~(pairs == 0).any(axis=1)
    odd = (pairs < 0).sum(axis=1) % 2 == 1
    found: dict[tuple[int, ...], int] = {}
    for x, m, keep, neg in zip(xs.tolist(), chi.nums.values(), regular.tolist(), odd.tolist()):
        if keep:
            dom = make_dominant(tuple(x), rs)
            found[dom] = found.get(dom, 0) + (-m if neg else m)
    parts = [(tuple(map(operator.sub, dom, rho)), c) for dom, c in found.items() if c]
    parts.sort(key=lambda t: grlex_key(t[0]))
    return [(IrrLabel(_fractions(mu, den)), c) for mu, c in parts]


def _check_integral(chi: VirtualCharacter) -> None:
    """Refuse chi at its non-integral dominant weight of largest key
    (norm of mu + rho, then graded-lex), as a highest weight."""
    rs = chi.ambient
    form = rs.integral
    den = chi.den
    if den == 1:
        return
    odd = []
    for w in chi.nums:
        pairs = _dots(w, form.coroot_columns)
        if all(p >= 0 for p in pairs) and any(p % den for p in pairs):
            odd.append(w)
    if not odd:
        return
    rho_nums, rho_den = form.rho_coords
    wide = math.lcm(den, rho_den)
    rho = tuple(c * (wide // rho_den) for c in rho_nums)

    def key(w):
        return (_shifted_norm(tuple(wide // den * c for c in w), rho, form.gram_rows), grlex_key(w))

    check_dominant_integral(_fractions(max(odd, key=key), den), rs, "highest weight")


def resum(rs: RootSystem, parts: Iterable[tuple[IrrLabel, int]]) -> VirtualCharacter:
    """Inverse of decompose: sum of c * irr_character(label)."""
    total = zero_character(rs)
    for label, c in parts:
        if c:
            total = total + irr_character(label, rs).scaled(c)
    return total
