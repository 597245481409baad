"""Spin modules of equal-rank real pairs, and the shipped pair catalog.

A real pair (g, k) is specified combinatorially: an ambient root
system together with a compact/noncompact marking of its positive
roots. The marking must extend additively to a Z/2 grading of all
roots, and the compact part must close into a root subsystem. The
spin module S = S+ (+) S- of the noncompact part is built purely from
weights, as the graded product of (e^{b/2} + e^{-b/2}) over the
noncompact positive roots b, on integer numerators; the character
support cap bounds it.

Unequal-rank pairs (for the no-discrete-series corollaries) are
representable through catalog metadata, but the spin construction
refuses them; the spin difference degenerates to the zero class
instead.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Iterable, Optional, Union

import numpy as np

from ._linalg import bareiss_solve
from .errors import ValidationError
from .jsonutil import load_json_file, parse_vec, vec_str
from .repring import VirtualCharacter, _character, char_from_terms, product, trivial_character, zero_character
from .rootsys import (
    CartanType,
    RootSystem,
    Weight,
    build_root_system,
    integer_coords,
    parse_cartan,
    rescale_form,
    subsystem,
    wneg,
    wscale,
)

CATALOG_ENV_VAR = "DIRAC_ATLAS_CATALOG"


@dataclass(frozen=True, eq=False)
class RealPair:
    """Equal-rank-aware descriptor of (g, k) by root grading.

    parity is dim(g/k) mod 2; for grading-defined pairs dim(g/k) is
    2 * |noncompact positive| and the parity is 0. Catalog entries
    whose geometry the grading cannot express (complexified groups)
    carry explicit overrides.
    """

    g: RootSystem
    k: RootSystem
    compact_positive: tuple[Weight, ...]
    noncompact_positive: tuple[Weight, ...]
    equal_rank: bool
    dim_g_mod_k: int
    parity: int
    k_lattice: tuple[Weight, ...]
    catalog_name: Optional[str] = None

    @property
    def n_plus(self) -> int:
        return len(self.noncompact_positive)


@dataclass(frozen=True)
class SpinCharacter:
    s_plus: VirtualCharacter
    s_minus: VirtualCharacter


@dataclass(frozen=True)
class SpinStructure:
    lifts_on_G: bool
    lifts_on_double_cover: bool


def _validate_grading(rs: RootSystem, compact: set[int]) -> None:
    """The marking, extended by e(-a) = e(a), must be additive: the
    restriction of a homomorphism from the root lattice to Z/2. By
    induction on height, as every non-simple positive root b is
    (b - a) + a with a simple and b - a positive, that holds iff
    e(b) = e(b - a) + e(a) mod 2 for all such pairs, on integer rows;
    compact holds the positions of the compact positive roots."""
    rows = rs.integral.root_rows
    eps = [0 if j in compact else 1 for j in range(len(rows))]
    for b, row in enumerate(rows):
        for a, i in zip(rs.simple_roots, rs.integral.simple_index):
            rest = rs.root_index.get(tuple(map(operator.sub, row, rows[i])))
            if rest is not None and (eps[rest] + eps[i]) % 2 != eps[b]:
                raise ValidationError(
                    "compact marking is not an additive Z/2 grading "
                    f"(fails at {vec_str(rs.positive_roots[rest])} + {vec_str(a)})"
                )


def build_pair(
    cartan: Union[CartanType, str],
    compact_marking: Union[str, Iterable[Weight]],
    *,
    equal_rank: Optional[bool] = None,
    dim_g_mod_k: Optional[int] = None,
    k_lattice: Optional[Iterable[Weight]] = None,
    name: Optional[str] = None,
) -> RealPair:
    """Validate a compact/noncompact marking and assemble the pair.

    compact_marking is "all" or an iterable of positive-root coordinate
    vectors. The K weight lattice defaults to the fundamental-weight
    lattice (the integer coordinate lattice); catalog entries may
    override it.
    """
    ct = parse_cartan(cartan) if isinstance(cartan, str) else cartan
    g = build_root_system(ct)
    if compact_marking == "all":
        marked = set(range(len(g.positive_roots)))
    else:
        marked = set()
        for w in compact_marking:
            ww = tuple(Fraction(c) for c in w)
            j = g.root_index.get(ww)
            if j is None:
                raise ValidationError(f"{vec_str(ww)} is not a positive root of {ct}")
            marked.add(j)
    _validate_grading(g, marked)
    k = subsystem(g, [g.integral.root_rows[j] for j in marked])
    noncompact = tuple(r for j, r in enumerate(g.positive_roots) if j not in marked)
    if dim_g_mod_k is None:
        dim_g_mod_k = 2 * len(noncompact)
    if equal_rank is None:
        equal_rank = True
    if k_lattice is None:
        basis = tuple(tuple(Fraction(int(i == j)) for j in range(g.rank)) for i in range(g.rank))
    else:
        basis = tuple(tuple(Fraction(c) for c in b) for b in k_lattice)
        if len(basis) != g.rank or any(len(b) != g.rank for b in basis):
            raise ValidationError(f"K lattice basis must be {g.rank} vectors of {g.rank} coordinates")
        # the roots are weights of the torus, so they lie in the K weight lattice
        try:
            contains = all(lattice_contains(basis, a) for a in g.simple_roots)
        except ValueError as exc:
            raise ValidationError("K lattice basis must have full rank") from exc
        if not contains:
            raise ValidationError("K lattice must contain the roots of g")
    return RealPair(
        g=g,
        k=k,
        compact_positive=k.positive_roots,
        noncompact_positive=noncompact,
        equal_rank=equal_rank,
        dim_g_mod_k=dim_g_mod_k,
        parity=dim_g_mod_k % 2,
        k_lattice=basis,
        catalog_name=name,
    )


def rescale_pair(pair: RealPair, factor) -> RealPair:
    """The same pair with the ambient bilinear form scaled by factor.

    Classification data (regularity, degrees, chambers) must not move;
    only norms and norm bounds scale.
    """
    return dataclasses.replace(pair, g=rescale_form(pair.g, factor), k=rescale_form(pair.k, factor))


def _noncompact_rows(pair: RealPair) -> np.ndarray:
    """The noncompact positive roots as integer rows of g, one per row."""
    return pair.g.integral.roots[[pair.g.root_index[b] for b in pair.noncompact_positive]]


def rho_noncompact(pair: RealPair) -> Weight:
    """Half sum of the noncompact positive roots."""
    return tuple(Fraction(c, 2) for c in _noncompact_rows(pair).sum(axis=0).tolist())


def lattice_contains(basis: tuple[Weight, ...], w: Weight) -> bool:
    """Whether w is an integer combination of the basis rows, by one Bareiss
    solve on the rows scaled to integers; ValueError for a dependent basis."""
    nums, _ = integer_coords(tuple(itertools.chain(*basis, w)))
    rows = [nums[i * len(w) : (i + 1) * len(w)] for i in range(len(basis) + 1)]
    (coeffs,), d = bareiss_solve(rows[:-1], rows[-1:])
    return coeffs is not None and not any(c % d for c in coeffs)


def spin_characters(pair: RealPair) -> SpinCharacter:
    """S+ and S- as the graded product of (e^{b/2} + e^{-b/2}) over the
    noncompact positive roots b.

    The weights of S are (1/2) sum eps_b * b over all sign vectors,
    graded by the parity of the number of minus signs; multiplying in
    one root at a time keeps that parity: e^{b/2} keeps it, e^{-b/2}
    flips it. Each factor is the integer row of b over 2. Every
    coefficient is positive, so nothing cancels and
    product's support cap refuses a module too large to expand.
    Refuses unequal-rank pairs (no shared torus to carry the weights).
    """
    if not pair.equal_rank:
        raise ValidationError("spin characters need an equal-rank pair")
    even, odd = trivial_character(pair.k), zero_character(pair.k)
    for b in _noncompact_rows(pair).tolist():
        up, down = _character(pair.k, {tuple(b): 1}, 2), _character(pair.k, {tuple(-c for c in b): 1}, 2)
        even, odd = product(even, up) + product(odd, down), product(odd, up) + product(even, down)
    return SpinCharacter(s_plus=even, s_minus=odd)


def spin_difference_character(pair: RealPair) -> VirtualCharacter:
    """S+ - S- as the expanded product of (e^{b/2} - e^{-b/2}).

    This is an independent second code path from spin_characters; the
    two must agree term by term on equal-rank pairs. Unequal-rank
    pairs get the zero class (the spin difference symmetrizes away).
    """
    if not pair.equal_rank:
        return zero_character(pair.k)
    out = trivial_character(pair.k)
    for b in pair.noncompact_positive:
        h = wscale(Fraction(1, 2), b)
        out = product(out, char_from_terms(pair.k, {h: 1, wneg(h): -1}))
    return out


def check_spin_structure(pair: RealPair) -> SpinStructure:
    """Liftability of the isotropy action to the spin group.

    Lifts on G itself iff the half sum of the noncompact positive
    roots lies in the pair's K weight lattice. On the two-fold cover
    the needed character always exists, as build_pair admits only K
    lattices that hold the roots; that flag is constantly true.
    """
    if not pair.equal_rank:
        raise ValidationError("spin structure check needs an equal-rank pair")
    rn = rho_noncompact(pair)
    on_g = lattice_contains(pair.k_lattice, rn)
    return SpinStructure(lifts_on_G=on_g, lifts_on_double_cover=True)


_ALLOWED_CATALOG_KEYS = {
    "cartan",
    "compact",
    "equal_rank",
    "dim_g_mod_k",
    "k_lattice",
    "description",
}


def default_catalog_path() -> str:
    """DIRAC_ATLAS_CATALOG, read on every call, else the packaged file."""
    return os.environ.get(CATALOG_ENV_VAR) or _packaged_catalog_path()


@functools.cache
def _packaged_catalog_path() -> str:
    return str(resources.files("dirac_atlas").joinpath("catalog.json"))


def load_catalog(path: Optional[str] = None) -> dict[str, RealPair]:
    """Load and validate the named pair catalog.

    Resolution order: explicit path, the DIRAC_ATLAS_CATALOG
    environment variable, then the packaged file. Loaded catalogs are
    cached per resolved path, so pair objects are shared.
    """
    return _load_catalog_cached(path or default_catalog_path())


@functools.lru_cache(maxsize=None)
def _load_catalog_cached(actual: str) -> dict[str, RealPair]:
    data = load_json_file(actual, "catalog")
    if not isinstance(data, dict) or "pairs" not in data or "version" not in data:
        raise ValidationError(f"catalog {actual} lacks version/pairs")
    if not isinstance(data["pairs"], dict):
        raise ValidationError(f"catalog {actual}: pairs must be an object")
    return {pname: _pair_from_entry(pname, entry) for pname, entry in data["pairs"].items()}


def _pair_from_entry(pname: str, entry) -> RealPair:
    """One catalog entry: cartan and compact are required, the rest optional."""
    if not isinstance(entry, dict):
        raise ValidationError(f"catalog entry {pname}: must be an object")
    unknown = set(entry) - _ALLOWED_CATALOG_KEYS
    if unknown:
        raise ValidationError(f"catalog entry {pname}: unknown keys {sorted(unknown)}")
    missing = {"cartan", "compact"} - set(entry)
    if missing:
        raise ValidationError(f"catalog entry {pname}: missing keys {sorted(missing)}")

    def vectors(key: str) -> list:
        val = entry[key]
        if not isinstance(val, list) or not all(isinstance(v, list) for v in val):
            raise ValidationError(f"catalog entry {pname}: {key} must be a list of coordinate lists")
        return [parse_vec(v) for v in val]

    if not isinstance(entry["cartan"], str):
        raise ValidationError(f"catalog entry {pname}: cartan must be a string")
    equal_rank, dim = entry.get("equal_rank"), entry.get("dim_g_mod_k")
    if equal_rank is not None and not isinstance(equal_rank, bool):
        raise ValidationError(f"catalog entry {pname}: equal_rank must be true or false")
    if dim is not None and (type(dim) is not int or dim < 0):
        raise ValidationError(f"catalog entry {pname}: dim_g_mod_k must be a nonnegative integer")
    return build_pair(
        entry["cartan"],
        "all" if entry["compact"] == "all" else vectors("compact"),
        equal_rank=equal_rank,
        dim_g_mod_k=dim,
        k_lattice=None if entry.get("k_lattice") is None else vectors("k_lattice"),
        name=pname,
    )


def get_pair(name: str, path: Optional[str] = None) -> RealPair:
    cat = load_catalog(path)
    if name not in cat:
        raise ValidationError(
            f"unknown pair {name!r}; catalog has {', '.join(sorted(cat))}"
        )
    return cat[name]


def catalog_names(path: Optional[str] = None) -> list[str]:
    return sorted(load_catalog(path))
