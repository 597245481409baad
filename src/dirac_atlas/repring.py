"""Representation ring of a compact group at character level.

A virtual character is a finite weight -> integer multiplicity map over
a fixed ambient root system (the system of K, possibly a subsystem of a
larger one sharing its coordinates). Irreducible characters come from
highest weights via the Freudenthal multiplicity recursion; the Weyl
dimension formula is kept as an independent second code path so the two
can cross-validate.

Negative multiplicities are first class; nothing clamps.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import DeskScaleError, ValidationError
from .jsonutil import vec_str
from .rootsys import (
    RootSystem,
    Weight,
    check_dim,
    check_dominant_integral,
    fw_to_simple_coords,
    grlex_key,
    inner,
    is_dominant,
    make_antidominant,
    make_dominant,
    rootsys_to_json,
    wadd,
    weight,
    weyl_orbit,
    wneg,
    wscale,
    wsub,
    wzero,
)

# Character supports beyond this are outside the desk scale contract.
SUPPORT_CAP = 100_000


class IrrLabel(NamedTuple):
    """Label of an irreducible: its dominant highest weight."""

    highest_weight: Weight


@dataclass(frozen=True)
class VirtualCharacter:
    """Finite-support weight -> multiplicity map; element of R(K).

    terms never stores zero multiplicities. Instances are treated as
    immutable; ambient systems compare by identity.
    """

    ambient: RootSystem
    terms: dict

    def __post_init__(self):
        if any(m == 0 for m in self.terms.values()):
            raise AssertionError("zero multiplicities must be dropped on construction")

    def __add__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        _same_ambient(self, other)
        out = dict(self.terms)
        for w, m in other.terms.items():
            nm = out.get(w, 0) + m
            if nm == 0:
                out.pop(w, None)
            else:
                out[w] = nm
        return VirtualCharacter(self.ambient, out)

    def __neg__(self) -> "VirtualCharacter":
        return VirtualCharacter(self.ambient, {w: -m for w, m in self.terms.items()})

    def __sub__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        return self + (-other)

    def __mul__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        return product(self, other)

    def scaled(self, c: int) -> "VirtualCharacter":
        if c == 0:
            return zero_character(self.ambient)
        return VirtualCharacter(self.ambient, {w: c * m for w, m in self.terms.items()})


def _same_ambient(a: VirtualCharacter, b: VirtualCharacter) -> None:
    if a.ambient is not b.ambient:
        raise ValidationError("characters live over different ambient systems")


def char_from_terms(ambient: RootSystem, terms) -> VirtualCharacter:
    clean = {}
    for w, m in dict(terms).items():
        if len(w) != ambient.rank:
            raise ValidationError("weight dimension does not match the ambient system")
        if m != 0:
            clean[tuple(Fraction(c) for c in w)] = int(m)
    return VirtualCharacter(ambient, clean)


def zero_character(rs: RootSystem) -> VirtualCharacter:
    return VirtualCharacter(rs, {})


def trivial_character(rs: RootSystem) -> VirtualCharacter:
    return VirtualCharacter(rs, {wzero(rs.rank): 1})


def label_weight(v, rs: RootSystem) -> Weight:
    """The highest weight of an IrrLabel, or a coordinate sequence, as a
    Weight with one coordinate per rank of rs."""
    hw = weight(v.highest_weight if isinstance(v, IrrLabel) else v)
    check_dim(hw, rs.rank)
    return hw


@functools.lru_cache(maxsize=None)
def _dominant_multiplicities(mu: Weight, rs: RootSystem) -> dict:
    """Freudenthal recursion over the dominant weights below mu.

    Candidates are enumerated in the exact box between mu and the
    antidominant extreme, level by level, so every multiplicity needed
    on the right-hand side is already known when a weight is processed.
    """
    simples = rs.simple_roots
    if not simples:
        return {mu: 1}
    kmax = fw_to_simple_coords(wsub(mu, make_antidominant(mu, rs)), rs)
    assert kmax is not None and all(k.denominator == 1 and k >= 0 for k in kmax)
    candidates = []
    for ks in itertools.product(*(range(int(k) + 1) for k in kmax)):
        lam = mu
        for i, k in enumerate(ks):
            if k:
                lam = wsub(lam, wscale(k, simples[i]))
        if is_dominant(lam, rs):
            candidates.append((sum(ks), lam))
    candidates.sort(key=lambda t: (t[0], grlex_key(t[1])))
    rho = rs.rho
    top = inner(wadd(mu, rho), wadd(mu, rho), rs)
    mult: dict[Weight, int] = {}
    dom_cache: dict[Weight, Weight] = {}
    for level, lam in candidates:
        if level == 0:
            mult[lam] = 1
            continue
        acc = Fraction(0)
        for alpha in rs.positive_roots:
            t = 1
            while True:
                nu = wadd(lam, wscale(t, alpha))
                dom = dom_cache.get(nu)
                if dom is None:
                    dom = make_dominant(nu, rs)
                    dom_cache[nu] = dom
                m = mult.get(dom)
                if m is None:
                    break
                acc += m * inner(nu, alpha, rs)
                t += 1
        den = top - inner(wadd(lam, rho), wadd(lam, rho), rs)
        val = 2 * acc / den
        assert val.denominator == 1 and val > 0, "Freudenthal recursion broke"
        mult[lam] = int(val)
    return mult


def dominant_multiplicities(mu, rs: RootSystem) -> dict:
    """Map of dominant weights to multiplicities for the irreducible
    with highest weight mu."""
    hw = label_weight(mu, rs)
    check_dominant_integral(hw, rs, "highest weight")
    return dict(_dominant_multiplicities(hw, rs))


def irr_character(mu, kk: RootSystem) -> VirtualCharacter:
    """Character of the irreducible with highest weight mu.

    mu must be dominant and integral for kk (half-integral ambient
    coordinates are fine as long as the coroot pairings with kk's
    simple roots are nonnegative integers).
    """
    terms: dict[Weight, int] = {}
    for lam, m in dominant_multiplicities(mu, kk).items():
        for w in weyl_orbit(lam, kk):
            terms[w] = m
    return VirtualCharacter(kk, terms)


def dimension(chi: VirtualCharacter) -> int:
    """Sum of multiplicities; negative for genuinely virtual classes."""
    return sum(chi.terms.values())


def weyl_dimension(mu, rs: RootSystem) -> Fraction:
    """Weyl dimension formula: prod (mu+rho, a) / (rho, a) over a > 0.

    Independent of the Freudenthal path; exact rational (integral on
    dominant integral weights).
    """
    shifted = wadd(label_weight(mu, rs), rs.rho)
    out = Fraction(1)
    for a in rs.positive_roots:
        out *= inner(shifted, a, rs) / inner(rs.rho, a, rs)
    return out


def product(a: VirtualCharacter, b: VirtualCharacter) -> VirtualCharacter:
    """Tensor product at character level: convolution of supports."""
    _same_ambient(a, b)
    out: dict[Weight, int] = {}
    for w1, m1 in a.terms.items():
        for w2, m2 in b.terms.items():
            w = wadd(w1, w2)
            nm = out.get(w, 0) + m1 * m2
            if nm == 0:
                out.pop(w, None)
            else:
                out[w] = nm
        if len(out) > SUPPORT_CAP:
            raise DeskScaleError(f"character support exceeds the cap {SUPPORT_CAP}")
    return VirtualCharacter(a.ambient, out)


def dual(chi: VirtualCharacter) -> VirtualCharacter:
    """Contragredient: negate every weight in the support."""
    return VirtualCharacter(chi.ambient, {wneg(w): m for w, m in chi.terms.items()})


def is_weyl_invariant(chi: VirtualCharacter) -> bool:
    rs = chi.ambient
    seen: set[Weight] = set()
    for w, m in chi.terms.items():
        if w in seen:
            continue
        orbit = weyl_orbit(w, rs)
        if any(chi.terms.get(o, 0) != m for o in orbit):
            return False
        seen.update(orbit)
    return True


def decompose(chi: VirtualCharacter) -> list[tuple[IrrLabel, int]]:
    """Write chi as an integer combination of irreducibles.

    Iterated extraction at the maximal dominant weight of the support;
    the reconstruction identity holds exactly. Output is sorted by
    graded-lex highest weight. Raises on non-Weyl-invariant input.
    """
    rs = chi.ambient
    if not is_weyl_invariant(chi):
        raise ValidationError("character is not Weyl-invariant")
    rho = rs.rho
    rest = dict(chi.terms)
    out: list[tuple[IrrLabel, int]] = []
    while rest:
        dominants = [w for w in rest if is_dominant(w, rs)]
        if not dominants:
            raise ValidationError("character is not Weyl-invariant")
        mu = max(
            dominants,
            key=lambda w: (inner(wadd(w, rho), wadd(w, rho), rs), grlex_key(w)),
        )
        c = rest[mu]
        for w, m in irr_character(IrrLabel(mu), rs).terms.items():
            nm = rest.get(w, 0) - c * m
            if nm == 0:
                rest.pop(w, None)
            else:
                rest[w] = nm
        out.append((IrrLabel(mu), c))
    out.sort(key=lambda t: grlex_key(t[0].highest_weight))
    return out


def resum(rs: RootSystem, parts: Iterable[tuple[IrrLabel, int]]) -> VirtualCharacter:
    """Inverse of decompose: sum of c * irr_character(label)."""
    total = zero_character(rs)
    for label, c in parts:
        if c:
            total = total + irr_character(label, rs).scaled(c)
    return total


def invariant_multiplicity(chi: VirtualCharacter) -> int:
    """Coefficient of the trivial representation in chi."""
    zero = wzero(chi.ambient.rank)
    for label, c in decompose(chi):
        if label.highest_weight == zero:
            return c
    return 0


def char_to_json(chi: VirtualCharacter) -> dict:
    return {
        "ambient": rootsys_to_json(chi.ambient),
        "terms": [
            {"weight": vec_str(w), "mult": m}
            for w, m in sorted(chi.terms.items(), key=lambda t: grlex_key(t[0]))
        ],
    }
