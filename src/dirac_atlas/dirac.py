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
pairings of the g system (rootsys.IntegralForm). A chamber id is the
index of a Weyl element in rootsys.weyl_elements, whose ranked order
gives it in closed form, so no request builds the Weyl group.
Enumeration walks the integral weights mu in an int64 box whose
half-widths come from the simple root lengths: weights are scaled by the
denominator of rho_K, and the ball, K-dominance and regularity tests and
the sort are integer operations. The pairings of the regularity test give
the signed traces and chamber ids of the whole batch, through the same
kernels that trace_product and chamber_of run on one weight. Fractions
appear only where parameters are built and rendered.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import rootsys
from .errors import DeskScaleError, ValidationError
from .jsonutil import fr_str, vec_str
from .repring import IrrLabel, label_weight
from .rootsys import (
    LATTICE_BOX_CAP,
    RootSystem,
    Weight,
    check_dominant_integral,
    is_regular,
    wadd,
    wsub,
)
from .spinmod import RealPair

DEGREE_ROOT_CHOICES = ("positive", "simple")

EXCLUSION_SINGULAR = "singular"
EXCLUSION_UNEQUAL_RANK = "unequal_rank"
EXCLUSION_ODD_PARITY = "odd_parity"

# Most parameters ds enumeration builds; refused before building any.
ENUMERATION_OUTPUT_CAP = 50_000
# Box points per int64 slab of the enumeration; bounds its working memory.
_SLAB_POINTS = 1 << 16
# Chamber ids kept per (sign pattern, Weyl group), bounded like rootsys's
# ORBIT_CACHE_SIZE. The K-dominant cone of a pair meets |W_G| / |W_K|
# chambers: at most 4 on the packaged catalog (sp4r), 56 on the E7
# Hermitian pair.
CHAMBER_CACHE_SIZE = 4096


@dataclass(frozen=True)
class DiscreteSeriesParameter:
    """lam = min_k_type + rho_K, regular for g, so formal_degree > 0.

    Both constructors (dirac_induct and enumerate_discrete_series) build
    lam and the minimal K-type from one weight; tests check both facts
    on every parameter they make.
    """

    lam: Weight
    min_k_type: IrrLabel
    formal_degree: Fraction
    signed_trace: Fraction
    pair: RealPair
    chamber_id: int


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


def _trace_products(pairings: np.ndarray, den: int, pair: RealPair, degree_roots: str) -> list[Fraction]:
    """Signed traces of the regular weights whose (lambda, a) are the rows of pairings / den.

    pairings is an integer array (int64 or object) with one column per
    positive root of g. Each trace is the exact Python-int product over
    the degree-root columns, against rho's pairings computed once.
    """
    idx = list(_degree_root_index(pair, degree_roots))
    rho_p, rho_d = pair.g.integral.rho_pairings
    num_scale = rho_d ** len(idx)
    den_all = math.prod(rho_p[j] for j in idx) * den ** len(idx)
    return [Fraction(math.prod(row) * num_scale, den_all) for row in pairings[:, idx].tolist()]


@functools.lru_cache(maxsize=CHAMBER_CACHE_SIZE)
def _chamber_index(signs: bytes, order: rootsys.WeylOrder) -> int:
    """Index in order of the w whose chamber has the sign pattern signs,
    one byte per positive root, 1 when positive.

    That chamber holds w rho = rho - (the sum of the positive roots a with
    (w rho, a) < 0). The simple reflections s_i1, ..., s_ik that take w rho
    to the dominant chamber give w = s_i1 ... s_ik, so its matrix (x -> x @ m)
    is the product of theirs, and WeylOrder.index ranks it.
    """
    form = order.rs.integral
    negative = np.frombuffer(signs, dtype=np.uint8) == 0
    pairs = ((form.roots.sum(axis=0) - 2 * form.roots[negative].sum(axis=0)) @ form.coroots).tolist()  # of 2 w rho
    m = np.eye(len(form.gram), dtype=np.int64)
    while True:
        i = next((i for i, p in enumerate(pairs) if p < 0), None)
        if i is None:
            return order.index(m)
        c = pairs[i]
        pairs = [p - c * r for p, r in zip(pairs, form.cartan_rows[i])]
        m -= np.outer(form.coroots[:, i], form.simple[i] @ m)  # s_i's matrix times m


def _chamber_ids(pairings: np.ndarray, rs: RootSystem) -> list[int]:
    """Chamber ids of regular weights from their pairings with rs's positive roots.

    Each distinct sign pattern is indexed once (_chamber_index), in the
    order that rootsys.weyl_elements gives; it is read through the module,
    so a wrapper installed there sees every call.
    """
    signs = np.asarray(pairings > 0, dtype=bool)
    keys, m = signs.tobytes(), signs.shape[1]
    order = rootsys.weyl_elements(rs)
    return [_chamber_index(keys[i * m : (i + 1) * m], order) for i in range(len(signs))]


def _regular_pairings(lam: Weight, rs: RootSystem, what: str) -> tuple[np.ndarray, int]:
    """lam's pairings with rs's positive roots as a one-row object array, and their denominator."""
    p, den = rs.integral.pairings(lam)
    if 0 in p:
        raise ValidationError(what)
    return np.array([p], dtype=object), den


def trace_product(lam: Weight, pair: RealPair, degree_roots: str = "positive") -> Fraction:
    """Signed product of (lambda, a)/(rho, a) over the configured roots.

    Requires lambda regular for g; the absolute value is the formal
    degree. Exact rational, invariant under rescaling the form.
    """
    p, den = _regular_pairings(lam, pair.g, "parameter is singular for g")
    return _trace_products(p, den, pair, degree_roots)[0]


def formal_degree(lam: Weight, pair: RealPair, degree_roots: str = "positive") -> Fraction:
    return abs(trace_product(lam, pair, degree_roots))


def chamber_of(lam: Weight, rs: RootSystem) -> int:
    """Index of the Weyl chamber containing the regular weight lam.

    Chambers are numbered by the breadth-first order of the Weyl group
    (rootsys.weyl_elements): 0 is the dominant chamber, the last index is
    the chamber of the longest element. Ranked from the sign pattern of
    lam against the positive roots (see _chamber_index); W is not built.
    """
    p, _ = _regular_pairings(lam, rs, "singular weight lies on a chamber wall")
    return _chamber_ids(p, rs)[0]


def _parameter(lam: Weight, mu: Weight, signed: Fraction, chamber_id: int, pair: RealPair) -> DiscreteSeriesParameter:
    """The parameter at lambda with minimal K-type mu; its formal degree is |signed|."""
    return DiscreteSeriesParameter(
        lam=lam,
        min_k_type=IrrLabel(mu),
        formal_degree=abs(signed),
        signed_trace=signed,
        pair=pair,
        chamber_id=chamber_id,
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
    signed = trace_product(lam, pair, degree_roots)
    return InductionResult(parameter=_parameter(lam, wsub(lam, pair.k.rho), signed, chamber_of(lam, pair.g), pair))


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


def _lattice_box(pair: RealPair, bound: Fraction) -> tuple[np.ndarray, np.ndarray, int]:
    """The parameters lambda in the ball: distinct integer rows D * lambda, their pairings, and D.

    These are the lambda = mu + rho_K with (lambda, lambda) <= bound, for
    a nonnegative bound, mu integral and K-dominant (so K-integral: the
    coroots of K are coroots of g), and lambda regular for g. D is the
    denominator of rho_K, so one step along an axis adds D; every test
    is exact int64 arithmetic, over slabs of the first coordinate. The
    pairings D L (lambda, a) with the positive roots a of g, computed for
    the regularity test, are kept row by row. A box above LATTICE_BOX_CAP
    points is refused before any work.
    """
    g, k = pair.g, pair.k
    n = g.rank
    ranges = _box_ranges(pair, bound)
    size = math.prod(r.stop - r.start for r in ranges)
    if size > LATTICE_BOX_CAP:
        raise DeskScaleError(
            f"enumeration box exceeds the cap of {LATTICE_BOX_CAP} lattice points; lower the bound"
        )
    rho_nums, den = k.integral.rho_coords
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
    kept_pairings = [np.zeros((0, form.fr.shape[1]), dtype=np.int64)]
    for start in range(0, len(first), per_slab):
        c0 = first[start : start + per_slab, None]
        # the norm test comes first, so only points in the ball are paired
        slab, row = np.nonzero(rest_norm + c0 * cross + c0 * c0 * first_norm <= threshold)
        if not slab.size:
            continue
        lam = rest[row] + c0[slab] * lat[0]
        pairings = lam @ form.fr
        keep = ((lam - shift) @ k_coroots >= 0).all(axis=1) & (pairings != 0).all(axis=1)
        kept.append(lam[keep])
        kept_pairings.append(pairings[keep])
        if sum(map(len, kept)) > ENUMERATION_OUTPUT_CAP:
            raise DeskScaleError(
                f"enumeration would exceed the cap of {ENUMERATION_OUTPUT_CAP} parameters; lower the bound"
            )
    return np.concatenate(kept), np.concatenate(kept_pairings), den


def enumerate_discrete_series(
    pair: RealPair, bound, degree_roots: str = "positive"
) -> list[DiscreteSeriesParameter]:
    """All parameters with (lambda, lambda) <= bound, sorted.

    K-types run over the integer-coordinate weight lattice (the
    double-cover lattice where the catalog K-lattice is coarser),
    restricted to the K-dominant cone. Sorted by (norm, graded-lex) on
    the integer rows D * lambda. Signed traces and chamber ids come from
    the box's pairings by the kernels of trace_product and chamber_of,
    and each distinct coordinate numerator becomes one Fraction.
    """
    bound = Fraction(bound)
    if bound < 0:
        raise ValidationError("bound must be nonnegative")
    if not pair.equal_rank or pair.parity == 1:
        return []
    rows, pairings, den = _lattice_box(pair, bound)
    form = pair.g.integral
    norm = np.einsum("ij,jk,ik->i", rows, form.gram, rows)
    order = np.lexsort((*rows.T[::-1], rows.sum(axis=1), norm))
    rows, pairings = rows[order], pairings[order]
    mus = rows - np.array(pair.k.integral.rho_coords[0], dtype=np.int64)
    coord = {c: Fraction(c, den) for c in set(np.concatenate((rows, mus), axis=None).tolist())}
    signed = _trace_products(pairings, den * form.scale, pair, degree_roots)
    chambers = _chamber_ids(pairings, pair.g)
    return [
        _parameter(tuple(map(coord.__getitem__, lam)), tuple(map(coord.__getitem__, mu)), s, c, pair)
        for lam, mu, s, c in zip(rows.tolist(), mus.tolist(), signed, chambers)
    ]


def parameter_to_json(p: DiscreteSeriesParameter) -> dict:
    return {
        "pair": p.pair.catalog_name or str(p.pair.g.cartan),
        "lambda": vec_str(p.lam),
        "mu": vec_str(p.min_k_type.highest_weight),
        "formal_degree": fr_str(p.formal_degree),
        "signed_trace": fr_str(p.signed_trace),
        "chamber_id": p.chamber_id,
    }
