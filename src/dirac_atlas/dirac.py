"""Discrete-series classification data for equal-rank pairs.

A K-type with highest weight mu induces the shifted parameter
lambda = mu + rho_K. The pair admits no parameters at all when the
ranks differ or dim(g/k) is odd; otherwise lambda either lands on a
wall of g (singular, excluded) or is a genuine parameter whose formal
degree is the absolute value of the product of (lambda, a)/(rho, a).

The product runs over all positive roots of g by default, which makes
the fully compact case reduce exactly to the Weyl dimension formula;
a switch restores the product over simple roots only (see README for
the discrepancy the switch preserves).

Regularity, formal degrees and chamber ids come from the integer root
pairings of the g system (rootsys.IntegralForm). Enumeration walks the
integral weights mu in an int64 box whose half-widths come from the
simple root lengths: weights are scaled by the denominator of rho_K, and
the ball, K-dominance and regularity tests and the sort are integer
operations. Fractions appear only where parameters are built and
rendered, by the one constructor dirac_induct also uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import DeskScaleError, ValidationError
from .jsonutil import fr_str, vec_str
from .repring import (
    IrrLabel,
    dual,
    invariant_multiplicity,
    irr_character,
    label_weight,
    product,
)
from .rootsys import (
    LATTICE_BOX_CAP,
    RootSystem,
    Weight,
    check_dominant_integral,
    integer_coords,
    is_regular,
    wadd,
    wsub,
)
from .spinmod import RealPair, spin_characters

DEGREE_ROOT_CHOICES = ("positive", "simple")

EXCLUSION_SINGULAR = "singular"
EXCLUSION_UNEQUAL_RANK = "unequal_rank"
EXCLUSION_ODD_PARITY = "odd_parity"

# Most parameters ds enumeration builds; refused before building any.
ENUMERATION_OUTPUT_CAP = 50_000
# Box points per int64 slab of the enumeration; bounds its working memory.
_SLAB_POINTS = 1 << 16


@dataclass(frozen=True)
class DiscreteSeriesParameter:
    lam: Weight
    min_k_type: IrrLabel
    formal_degree: Fraction
    signed_trace: Fraction
    pair: RealPair
    chamber_id: int

    def __post_init__(self):
        if self.formal_degree <= 0:
            raise AssertionError("formal degree must be positive")
        if wadd(self.min_k_type.highest_weight, self.pair.k.rho) != self.lam:
            raise AssertionError("parameter does not match its minimal K-type")


@dataclass(frozen=True)
class InductionResult:
    """Either a parameter or one exclusion reason, never both."""

    parameter: Optional[DiscreteSeriesParameter] = None
    exclusion: Optional[str] = None

    def __post_init__(self):
        if (self.parameter is None) == (self.exclusion is None):
            raise AssertionError("exactly one of parameter/exclusion must be set")

    @property
    def ok(self) -> bool:
        return self.parameter is not None


def _degree_root_index(pair: RealPair, degree_roots: str) -> tuple[int, ...]:
    """Positions of the configured degree roots among g's positive roots."""
    if degree_roots not in DEGREE_ROOT_CHOICES:
        raise ValidationError(f"degree_roots must be one of {DEGREE_ROOT_CHOICES}")
    if degree_roots == "positive":
        return tuple(range(len(pair.g.positive_roots)))
    return pair.g.integral.simple_index


def trace_product(lam: Weight, pair: RealPair, degree_roots: str = "positive") -> Fraction:
    """Signed product of (lambda, a)/(rho, a) over the configured roots.

    Requires lambda regular for g; the absolute value is the formal
    degree. Exact rational, invariant under rescaling the form.
    """
    g = pair.g
    lam_p, lam_d = g.integral.pairings(lam)
    if 0 in lam_p:
        raise ValidationError("parameter is singular for g")
    rho_p, rho_d = g.integral.pairings(g.rho)
    num = den = 1
    for j in _degree_root_index(pair, degree_roots):
        num *= lam_p[j] * rho_d
        den *= rho_p[j] * lam_d
    return Fraction(num, den)


def formal_degree(lam: Weight, pair: RealPair, degree_roots: str = "positive") -> Fraction:
    return abs(trace_product(lam, pair, degree_roots))


def chamber_of(lam: Weight, rs: RootSystem) -> int:
    """Index of the Weyl chamber containing the regular weight lam.

    Chambers are numbered by the breadth-first enumeration of the Weyl
    group: 0 is the dominant chamber, the last index is the chamber of
    the longest element. Looked up by the sign pattern of lam against
    the positive roots (see RootSystem.chambers).
    """
    p, _ = rs.integral.pairings(lam)
    if 0 in p:
        raise ValidationError("singular weight lies on a chamber wall")
    return rs.chambers[bytes(x > 0 for x in p)]


def _parameter(lam: Weight, pair: RealPair, degree_roots: str) -> DiscreteSeriesParameter:
    """The parameter at a regular lambda whose minimal K-type is lambda - rho_K."""
    signed = trace_product(lam, pair, degree_roots)
    return DiscreteSeriesParameter(
        lam=lam,
        min_k_type=IrrLabel(wsub(lam, pair.k.rho)),
        formal_degree=abs(signed),
        signed_trace=signed,
        pair=pair,
        chamber_id=chamber_of(lam, pair.g),
    )


def dirac_induct(v, pair: RealPair, degree_roots: str = "positive") -> InductionResult:
    """Map a K-type to its discrete-series parameter or an exclusion.

    Exclusions, in order: unequal rank, odd parity, singular shifted
    parameter. Successful results carry the exact formal degree and
    the chamber id of lambda.
    """
    hw = label_weight(v, pair.g)
    check_dominant_integral(hw, pair.k, "K-type")
    if not pair.equal_rank:
        return InductionResult(exclusion=EXCLUSION_UNEQUAL_RANK)
    if pair.parity == 1:
        return InductionResult(exclusion=EXCLUSION_ODD_PARITY)
    lam = wadd(hw, pair.k.rho)
    if not is_regular(lam, pair.g):
        return InductionResult(exclusion=EXCLUSION_SINGULAR)
    return InductionResult(parameter=_parameter(lam, pair, degree_roots))


def _box_ranges(pair: RealPair, bound: Fraction) -> list[range]:
    """Coordinate ranges of a box around the bound ellipsoid.

    The ball (lambda, lambda) <= bound is centred at -rho_K in the
    coordinates of mu: fundamental-weight coordinates, whose dual basis
    is the simple coroots a_i^vee. So its extent along axis i is
    sqrt(bound (a_i^vee, a_i^vee)) = sqrt(4 bound / (a_i, a_i)), rounded
    outwards to whole integers, exactly.
    """
    form = pair.g.integral
    lengths = np.einsum("ij,jk,ik->i", form.simple, form.gram, form.simple).tolist()  # L (a_i, a_i)
    ranges = []
    for rho_i, length in zip(pair.k.rho, lengths):
        s = math.isqrt(math.floor(Fraction(4 * form.scale, length) * bound))
        ranges.append(range(math.floor(-rho_i) - s, math.ceil(-rho_i) + s + 1))
    return ranges


def _lattice_box(pair: RealPair, bound: Fraction) -> tuple[np.ndarray, int]:
    """The parameters lambda in the ball, as distinct integer rows D * lambda, and D.

    These are the lambda = mu + rho_K with (lambda, lambda) <= bound, for
    a nonnegative bound, mu integral and K-dominant (so K-integral: the
    coroots of K are coroots of g), and lambda regular for g. D is the
    denominator of rho_K, so one step along an axis adds D; every test
    is exact int64 arithmetic, over slabs of the first coordinate. A box
    above LATTICE_BOX_CAP points is refused before any work.
    """
    g, k = pair.g, pair.k
    n = g.rank
    ranges = _box_ranges(pair, bound)
    size = math.prod(r.stop - r.start for r in ranges)
    if size > LATTICE_BOX_CAP:
        raise DeskScaleError(
            f"enumeration box exceeds the cap of {LATTICE_BOX_CAP} lattice points; lower the bound"
        )
    rho_nums, den = integer_coords(k.rho)
    lat = den * np.eye(n, dtype=np.int64)  # D * the unit steps
    shift = np.array(rho_nums, dtype=np.int64)  # D * rho_K
    form = g.integral
    # D * mu pairs to D <mu, beta^vee> over the simple roots beta of K:
    # mu is K-dominant iff all are >= 0.
    k_coroots = k.integral.coroots

    # Every |D lambda_j| and every entry of D * the unit steps is at most
    # reach, so each int64 value below is at most 4 n^2 reach^2 times the
    # largest matrix entry.
    reach = max(abs(c) + den * max(abs(r.start), abs(r.stop - 1), 1) for c, r in zip(rho_nums, ranges))
    entry = max(int(np.abs(m).max(initial=0)) for m in (form.gram, form.fr, k_coroots))
    if n * n * reach * reach * entry >= 2**60:
        raise DeskScaleError("enumeration box coordinates are too large for exact int64 arithmetic")
    threshold = min(math.floor(bound * form.scale * den * den), 2**62)

    # D * lambda with the first coordinate of mu at 0, over all the other coordinates
    rest = shift.reshape(1, n)
    for i in range(1, n):
        steps = np.arange(ranges[i].start, ranges[i].stop, dtype=np.int64)
        rest = (rest[:, None, :] + steps[None, :, None] * lat[i]).reshape(-1, n)
    rest_gram = rest @ form.gram
    rest_norm = np.einsum("ij,ij->i", rest_gram, rest)
    cross = 2 * (rest_gram @ lat[0])
    first_norm = lat[0] @ form.gram @ lat[0]
    first = np.arange(ranges[0].start, ranges[0].stop, dtype=np.int64)
    per_slab = max(1, _SLAB_POINTS // len(rest))
    kept = [np.zeros((0, n), dtype=np.int64)]
    for start in range(0, len(first), per_slab):
        c0 = first[start : start + per_slab, None]
        # the norm test comes first, so only points in the ball are paired
        slab, row = np.nonzero(rest_norm + c0 * cross + c0 * c0 * first_norm <= threshold)
        if not slab.size:
            continue
        lam = rest[row] + c0[slab] * lat[0]
        dominant = ((lam - shift) @ k_coroots >= 0).all(axis=1)
        regular = (lam @ form.fr != 0).all(axis=1)
        kept.append(lam[dominant & regular])
        if sum(map(len, kept)) > ENUMERATION_OUTPUT_CAP:
            raise DeskScaleError(
                f"enumeration would exceed the cap of {ENUMERATION_OUTPUT_CAP} parameters; lower the bound"
            )
    return np.concatenate(kept), den


def enumerate_discrete_series(
    pair: RealPair, bound, degree_roots: str = "positive"
) -> list[DiscreteSeriesParameter]:
    """All parameters with (lambda, lambda) <= bound, sorted.

    K-types run over the integer-coordinate weight lattice (the
    double-cover lattice where the catalog K-lattice is coarser),
    restricted to the K-dominant cone. Sorted by (norm, graded-lex) on
    the integer rows D * lambda, then built like dirac_induct's.
    """
    bound = Fraction(bound)
    if bound < 0:
        raise ValidationError("bound must be nonnegative")
    if not pair.equal_rank or pair.parity == 1:
        return []
    rows, den = _lattice_box(pair, bound)
    norm = np.einsum("ij,jk,ik->i", rows, pair.g.integral.gram, rows)
    order = np.lexsort((*rows.T[::-1], rows.sum(axis=1), norm))
    return [
        _parameter(tuple(Fraction(c, den) for c in row), pair, degree_roots)
        for row in rows[order].tolist()
    ]


def pairing_compact_oracle(h_label, v, pair: RealPair) -> int:
    """Index pairing in the fully compact case via invariants.

    Computes the invariant multiplicity of dual(V) x dual(S) x H over
    K. With the trivial spin module of a compact pair this is exactly
    the Kronecker delta of the two labels.
    """
    if not pair.is_compact:
        raise ValidationError("compact oracle needs a fully compact pair")
    sc = spin_characters(pair)
    s_total = sc.s_plus + sc.s_minus
    chi = product(
        product(dual(irr_character(v, pair.k)), dual(s_total)),
        irr_character(h_label, pair.k),
    )
    return invariant_multiplicity(chi)


def parameter_to_json(p: DiscreteSeriesParameter) -> dict:
    return {
        "pair": p.pair.catalog_name or str(p.pair.g.cartan),
        "lambda": vec_str(p.lam),
        "mu": vec_str(p.min_k_type.highest_weight),
        "formal_degree": fr_str(p.formal_degree),
        "signed_trace": fr_str(p.signed_trace),
        "chamber_id": p.chamber_id,
    }
