"""Classification tests: induction, exclusions, degrees, enumeration.

Oracles: the rank-one degree is the exact pairing ratio computed
directly in the test; the fully compact degree must reproduce the
character dimension from the independent Freudenthal path.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from dirac_atlas.dirac import (
    DEGREE_ROOT_CHOICES,
    EXCLUSION_ODD_PARITY,
    EXCLUSION_SINGULAR,
    EXCLUSION_UNEQUAL_RANK,
    _box_ranges,
    chamber_of,
    dirac_induct,
    enumerate_discrete_series,
    formal_degree,
    parameter_to_json,
    trace_product,
)
from dirac_atlas.errors import DeskScaleError, ValidationError
from dirac_atlas.repring import dimension, dominant_multiplicities, irr_character, weyl_dimension
from dirac_atlas.rootsys import (
    LATTICE_BOX_CAP,
    apply_matrix,
    build_root_system,
    inner,
    is_dominant,
    is_regular,
    make_dominant,
    parse_cartan,
    wadd,
    weight,
    weyl_elements,
    weyl_group_order,
    weyl_orbit,
    wneg,
    wsub,
)
from dirac_atlas.spinmod import build_pair, catalog_names, get_pair, rescale_pair
from fraction_oracles import (
    box_ranges_gram_inverse,
    chamber_scan,
    enumerate_by_induction,
    enumerate_scan,
    is_compact,
    pairing_compact_oracle,
    weyl_elements_bfs,
    wzero,
)

SL2R = get_pair("sl2r")
SU21 = get_pair("su21")
SL2C = get_pair("sl2c")
CA1 = get_pair("compact_a1")
CA2 = get_pair("compact_a2")


def test_sl2r_zero_is_singular():
    res = dirac_induct((0,), SL2R)
    assert not res.ok and res.exclusion == EXCLUSION_SINGULAR


@pytest.mark.parametrize("n", [1, 2, 3, 5, -1, -4])
def test_sl2r_degree_is_ratio_oracle(n):
    res = dirac_induct((n,), SL2R)
    assert res.ok
    g = SL2R.g
    alpha = g.positive_roots[0]
    lam = weight([n])
    oracle = inner(lam, alpha, g) / inner(g.rho, alpha, g)
    assert res.parameter.signed_trace == oracle == F(n)
    assert res.parameter.formal_degree == abs(oracle)
    assert res.parameter.lam == lam
    assert res.parameter.min_k_type.highest_weight == lam  # rho_K = 0


@pytest.mark.parametrize("m", range(6))
def test_compact_a1_degree_equals_dimension(m):
    res = dirac_induct((m,), CA1)
    assert res.ok
    dim = dimension(irr_character((m,), CA1.k))
    assert res.parameter.formal_degree == F(dim)


def test_formal_degree_at_rho_is_one():
    for pair in (SL2R, SU21, CA1, CA2):
        assert trace_product(pair.g.rho, pair) == 1
        assert formal_degree(pair.g.rho, pair) == 1


def test_sl2r_antidominant_signed_value():
    assert trace_product(wneg(SL2R.g.rho), SL2R) == -1
    assert formal_degree(wneg(SL2R.g.rho), SL2R) == 1


def test_formal_degree_rejects_singular():
    with pytest.raises(ValidationError):
        formal_degree(wzero(2), SU21)


def test_chamber_ids():
    g = SU21.g
    assert chamber_of(g.rho, g) == 0
    assert chamber_of(wneg(g.rho), g) == weyl_group_order(g) - 1
    assert chamber_of(weight([2]), SL2R.g) == 0
    with pytest.raises(ValidationError):
        chamber_of(wzero(2), g)


def test_enumerate_sl2c_empty_for_all_bounds():
    for bound in (0, 1, 10, 100, F(999, 7)):
        assert enumerate_discrete_series(SL2C, bound) == []


def test_enumerate_sl2r_exact_set():
    params = enumerate_discrete_series(SL2R, F(9, 2))
    lams = [p.lam for p in params]
    assert lams == [
        weight([-1]),
        weight([1]),
        weight([-2]),
        weight([2]),
        weight([-3]),
        weight([3]),
    ]
    assert [p.formal_degree for p in params] == [1, 1, 2, 2, 3, 3]


def test_enumerate_su21_chambers_and_roundtrip():
    params = enumerate_discrete_series(SU21, 20)
    assert params
    chambers = {p.chamber_id for p in params}
    assert len(chambers) == 3  # |W_G| / |W_K|
    lams = set()
    for p in params:
        assert is_regular(p.lam, SU21.g)
        assert wsub(p.lam, SU21.k.rho) == p.min_k_type.highest_weight
        lams.add(p.lam)
    assert len(lams) == len(params)


def test_exclusion_soundness_grid():
    for a in range(-1, 4):
        for b in range(-1, 4):
            mu = weight([a, b])
            if SU21.k.coroot_pairing(mu, 0) < 0:
                continue  # not K-dominant: precondition violation, not exclusion
            res = dirac_induct(mu, SU21)
            lam = tuple(x + y for x, y in zip(mu, SU21.k.rho))
            if is_regular(lam, SU21.g):
                assert res.ok
            else:
                assert res.exclusion == EXCLUSION_SINGULAR


def test_odd_parity_exclusion_and_order_of_checks():
    odd = build_pair("A1", [], dim_g_mod_k=3)
    assert odd.parity == 1
    res = dirac_induct((1,), odd)
    assert res.exclusion == EXCLUSION_ODD_PARITY
    assert enumerate_discrete_series(odd, 50) == []
    # unequal rank wins over parity for sl2c
    res = dirac_induct((0, 0), SL2C)
    assert res.exclusion == EXCLUSION_UNEQUAL_RANK


def test_non_dominant_k_type_rejected():
    with pytest.raises(ValidationError):
        dirac_induct((-1, -1), SU21)
    with pytest.raises(ValidationError):
        dirac_induct((F(1, 3), F(0)), SU21)


def test_degree_roots_switch():
    res_pos = dirac_induct((1, 0), CA2, degree_roots="positive")
    res_simple = dirac_induct((1, 0), CA2, degree_roots="simple")
    assert res_pos.parameter.formal_degree == 3  # dim of the standard rep
    # simple-roots reading drops the highest-root factor 3/2
    assert res_simple.parameter.formal_degree == 2
    with pytest.raises(ValidationError):
        dirac_induct((1, 0), CA2, degree_roots="bogus")


def test_compact_pairing_oracle():
    assert pairing_compact_oracle((1,), (1,), CA1) == 1
    assert pairing_compact_oracle((2,), (0,), CA1) == 0
    assert pairing_compact_oracle((0, 0), (0, 0), CA2) == 1
    with pytest.raises(ValidationError):
        pairing_compact_oracle((0,), (0,), SL2R)


def test_compact_pairing_sum_of_squares_is_one():
    labels = [(a,) for a in range(5)]
    for h in labels:
        total = sum(pairing_compact_oracle(h, v, CA1) ** 2 for v in labels)
        assert total == 1


def test_rescaled_form_leaves_classification_alone():
    scaled = rescale_pair(SU21, 7)
    for a in range(3):
        for b in range(3):
            mu = weight([a, b])
            if SU21.k.coroot_pairing(mu, 0) < 0:
                continue
            r1 = dirac_induct(mu, SU21)
            r2 = dirac_induct(mu, scaled)
            assert r1.ok == r2.ok and r1.exclusion == r2.exclusion
            if r1.ok:
                assert r1.parameter.formal_degree == r2.parameter.formal_degree
                assert r1.parameter.chamber_id == r2.parameter.chamber_id
    base = enumerate_discrete_series(SU21, 10)
    again = enumerate_discrete_series(scaled, 70)
    assert [p.lam for p in base] == [p.lam for p in again]


def test_sp4r_chamber_count_and_degree():
    pair = get_pair("sp4r")
    params = enumerate_discrete_series(pair, F(20))
    # |W(C2)| / |W_K| = 8 / 2 chambers meet the K-dominant cone
    assert len({p.chamber_id for p in params}) == 4
    # lambda = (1, 1/2): ratios over the four positive roots are
    # 1, 1/2, 2/3, 3/4 (computed by hand from the bilinear form)
    lam = weight([1, F(1, 2)])
    assert trace_product(lam, pair) == F(1, 4)
    by_lam = {p.lam: p for p in params}
    assert by_lam[lam].formal_degree == F(1, 4)
    assert by_lam[lam].min_k_type.highest_weight == weight([0, 1])


def test_enumeration_matches_bruteforce_box_scan():
    # independent oracle: plain wide box scan with exact filters only
    bound = F(25)
    for pair in (SU21, SL2R):
        brute = []
        import itertools

        for coords in itertools.product(range(-12, 13), repeat=pair.g.rank):
            mu = weight(coords)
            if any(
                pair.k.coroot_pairing(mu, i) < 0
                for i in range(len(pair.k.simple_roots))
            ):
                continue
            lam = tuple(a + b for a, b in zip(mu, pair.k.rho))
            if inner(lam, lam, pair.g) > bound:
                continue
            res = dirac_induct(mu, pair)
            if res.ok:
                brute.append(res.parameter.lam)
        got = [p.lam for p in enumerate_discrete_series(pair, bound)]
        assert sorted(brute) == sorted(got)
        assert len(got) == len(set(got))


def test_parameter_json_shape():
    p = dirac_induct((2,), SL2R).parameter
    js = parameter_to_json(p)
    assert js == {
        "pair": "sl2r",
        "lambda": ["2"],
        "mu": ["2"],
        "formal_degree": "2",
        "signed_trace": "2",
        "chamber_id": 0,
    }


def test_enumeration_bound_validation():
    with pytest.raises(ValidationError):
        enumerate_discrete_series(SL2R, -1)
    assert enumerate_discrete_series(SL2R, 0) == []


# Small bounds per rank keep the Fraction oracle fast.
ORACLE_BOUNDS = {1: 30, 2: 20, 3: 12, 4: 8}


@pytest.mark.parametrize("degree_roots", DEGREE_ROOT_CHOICES)
@pytest.mark.parametrize("name", catalog_names())
def test_enumeration_matches_fraction_oracle(name, degree_roots):
    pair = get_pair(name)
    bound = ORACLE_BOUNDS[pair.g.rank]
    for p, b in ((pair, bound), (rescale_pair(pair, 3), 3 * bound)):
        got = [
            (q.lam, q.min_k_type.highest_weight, q.signed_trace, q.chamber_id)
            for q in enumerate_discrete_series(p, b, degree_roots)
        ]
        assert got == enumerate_scan(p, b, degree_roots)


@pytest.mark.parametrize("degree_roots", DEGREE_ROOT_CHOICES)
@pytest.mark.parametrize("name", catalog_names())
def test_enumeration_matches_induction_of_each_box_point(name, degree_roots):
    pair = get_pair(name)
    for p in (pair, rescale_pair(pair, 3)):
        for bound in (0, 1, F(9, 2), 20, 30):
            got = enumerate_discrete_series(p, bound, degree_roots)
            assert got == enumerate_by_induction(p, bound, degree_roots), (name, bound)
            assert len({q.lam for q in got}) == len(got)


def _check_parameter(q, pair):
    assert q.pair is pair
    assert wadd(q.min_k_type.highest_weight, pair.k.rho) == q.lam
    assert q.formal_degree == abs(q.signed_trace) > 0


@pytest.mark.parametrize("degree_roots", DEGREE_ROOT_CHOICES)
@pytest.mark.parametrize("name", [n for n in catalog_names() if get_pair(n).equal_rank])
def test_every_parameter_is_its_minimal_k_type_plus_rho_k(name, degree_roots):
    # the invariants DiscreteSeriesParameter documents, on every
    # parameter of `ds enumerate --bound 30` and on ds induct of its K-types
    pair = get_pair(name)
    for q in enumerate_discrete_series(pair, 30, degree_roots):
        _check_parameter(q, pair)
        res = dirac_induct(q.min_k_type, pair, degree_roots)
        assert res.parameter == q
        _check_parameter(res.parameter, pair)


def _box_size(ranges):
    return math.prod(len(r) for r in ranges)


def _last_bound_under_box_cap(pair):
    """The largest integer bound whose oracle box holds at most LATTICE_BOX_CAP points."""
    lo, hi = 0, 1
    while _box_size(box_ranges_gram_inverse(pair, hi)) <= LATTICE_BOX_CAP:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _box_size(box_ranges_gram_inverse(pair, mid)) <= LATTICE_BOX_CAP:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("factor", [1, 3, F(1, 2)])
@pytest.mark.parametrize("name", catalog_names())
def test_box_ranges_match_gram_inverse(name, factor):
    pair = rescale_pair(get_pair(name), factor)
    inside = _last_bound_under_box_cap(pair)
    for bound in (0, 1, F(9, 2), 20, F(121, 3), 60, inside, inside + 1):
        assert _box_ranges(pair, F(bound)) == box_ranges_gram_inverse(pair, bound), bound
    # the cap refuses exactly the boxes past it, before any work
    assert _box_size(_box_ranges(pair, F(inside))) <= LATTICE_BOX_CAP < _box_size(_box_ranges(pair, F(inside + 1)))
    if pair.equal_rank and pair.parity == 0:
        with pytest.raises(DeskScaleError, match="box exceeds the cap"):
            enumerate_discrete_series(pair, inside + 1)


@pytest.mark.parametrize("name", catalog_names())
def test_chamber_lookup_matches_linear_scan(name):
    pair = get_pair(name)
    scaled = rescale_pair(pair, 3)
    # Weyl matrices do not see the scale; K differs from g only off the compact pairs.
    systems = [(pair.g, pair.g), (scaled.g, pair.g)]
    if not is_compact(pair):
        systems += [(pair.k, pair.k), (scaled.k, pair.k)]
    for rs, unscaled in systems:
        elems = weyl_elements_bfs(unscaled)
        assert tuple(weyl_elements(rs)) == elems
        # a strictly dominant weight off the rho line, moved into every chamber
        dom = wadd(rs.rho, make_dominant((1,) + (0,) * (rs.rank - 1), rs))
        for idx, m in enumerate(elems):
            assert chamber_of(apply_matrix(m, dom), rs) == idx
    if pair.g.rank <= 2:
        halves = [F(k, 2) for k in range(-5, 6)]
        grid = [(a,) for a in halves] if pair.g.rank == 1 else [(a, b) for a in halves for b in halves]
        for lam in grid:
            if is_regular(lam, pair.g):
                assert chamber_of(lam, pair.g) == chamber_scan(lam, pair.g)


def sign_pattern_chambers(rs):
    """Chamber ids keyed by sign pattern, from the built group: element w
    (its position) is keyed by the signs of (w rho, a) over the positive
    roots a, one byte per root, 1 when positive."""
    elems = np.array(list(weyl_elements(rs)), dtype=np.int64).reshape(-1, rs.rank, rs.rank)
    signs = (np.array(rs.integral.rho_coords[0], dtype=np.int64) @ elems) @ rs.integral.fr > 0
    return {row.tobytes(): idx for idx, row in enumerate(signs)}


@pytest.mark.parametrize("name", catalog_names())
def test_ranked_chamber_ids_match_the_sign_pattern_lookup(name):
    pair = get_pair(name)
    for rs in (pair.g, pair.k):
        lookup = sign_pattern_chambers(rs)
        for m in weyl_elements(rs):
            lam = apply_matrix(m, rs.rho)
            assert chamber_of(lam, rs) == lookup[(np.array(rs.integral.pairings(lam)[0]) > 0).tobytes()]


A2 = build_root_system(parse_cartan("A2"))
WRONG_LENGTH_CALLS = {
    "coroot_pairing": lambda w: A2.coroot_pairing(w, 0),
    "is_dominant": lambda w: is_dominant(w, A2),
    "make_dominant": lambda w: make_dominant(w, A2),
    "weyl_orbit": lambda w: weyl_orbit(w, A2),
    "weyl_dimension": lambda w: weyl_dimension(w, A2),
    "dominant_multiplicities": lambda w: dominant_multiplicities(w, A2),
    "irr_character": lambda w: irr_character(w, A2),
    "dirac_induct": lambda w: dirac_induct(w, SU21),
}


@pytest.mark.parametrize("coords", [(1, 0, 0), (1, 0, -7), (1,)])
@pytest.mark.parametrize("name", sorted(WRONG_LENGTH_CALLS))
def test_wrong_length_weight_is_refused(name, coords):
    # A2 and the g of su21 have rank 2; zip would silently truncate
    with pytest.raises(ValidationError, match="dimension mismatch"):
        WRONG_LENGTH_CALLS[name](weight(coords))
