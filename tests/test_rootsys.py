"""Root-system engine tests.

Expected root sets come from an independent reflection-closure oracle
(reflect known roots until fixpoint) rather than the string-closure
algorithm under test.
"""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.liealgebras.cartan_type import CartanType as SympyCartanType
from sympy.liealgebras.weyl_group import WeylGroup

from dirac_atlas import rootsys
from dirac_atlas.errors import DeskScaleError, ValidationError
from dirac_atlas.rootsys import (
    ORBIT_CACHE_SIZE,
    RANK_CAP,
    CartanType,
    apply_matrix,
    build_root_system,
    fw_to_simple_coords,
    grlex_key,
    identify_cartan_type,
    inner,
    integer_coords,
    is_dominant,
    is_regular,
    make_dominant,
    orbit_size,
    parse_cartan,
    rescale_form,
    rootsys_to_json,
    subsystem,
    weight,
    weyl_elements,
    weyl_group_order,
    weyl_orbit,
    wneg,
    wscale,
)
from dirac_atlas.spinmod import build_pair, get_pair
import fraction_oracles as oracle
from fraction_oracles import reflect, weyl_elements_bfs, wzero
from test_spinmod import ONE_NODE_GRADINGS


def reflection_closure_oracle(rs):
    """Independent generation: close the simple roots under all
    reflections, then keep the positive half."""
    roots = set(rs.simple_roots)
    while True:
        new = set()
        for r in roots:
            for s in roots:
                img = reflect(r, s, rs)
                if img not in roots:
                    new.add(img)
        if not new:
            break
        roots |= new
    positives = set()
    for r in roots:
        coords = fw_to_simple_coords(r, rs)
        assert coords is not None
        if all(c >= 0 for c in coords):
            positives.add(r)
    return positives


SMALL_TYPES = ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA1", "D4", "F4"]


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_positive_roots_match_reflection_oracle(name):
    rs = build_root_system(parse_cartan(name))
    assert set(rs.positive_roots) == reflection_closure_oracle(rs)


def test_a1_single_root_and_rho():
    rs = build_root_system(parse_cartan("A1"))
    assert len(rs.positive_roots) == 1
    alpha = rs.positive_roots[0]
    assert rs.rho == wscale(F(1, 2), alpha)


def test_a2_positive_roots_frozen():
    rs = build_root_system(parse_cartan("A2"))
    a1, a2 = rs.simple_roots
    assert set(rs.positive_roots) == {a1, a2, weight([1, 1])}
    assert len(rs.positive_roots) == 3


def test_g2_root_count_and_length_ratio():
    rs = build_root_system(parse_cartan("G2"))
    assert len(rs.positive_roots) == 6
    lengths = sorted({inner(r, r, rs) for r in rs.positive_roots})
    assert len(lengths) == 2
    assert lengths[1] / lengths[0] == 3


def test_positive_roots_graded_lex_deterministic():
    rs = build_root_system(parse_cartan("B3"))
    keyed = [grlex_key(fw_to_simple_coords(r, rs)) for r in rs.positive_roots]
    assert keyed == sorted(keyed)
    again = build_root_system(parse_cartan("B3"))
    assert again is rs  # cached, byte-stable


@pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2", "F4", "A2xG2"])
def test_rho_is_half_sum_and_roots_integer_combos(name):
    rs = build_root_system(parse_cartan(name))
    total = wzero(rs.rank)
    for r in rs.positive_roots:
        total = tuple(a + b for a, b in zip(total, r))
        k = fw_to_simple_coords(r, rs)
        assert all(c.denominator == 1 and c >= 0 for c in k)
    assert wscale(F(1, 2), total) == rs.rho


def test_form_reproduces_cartan_matrix():
    g2 = build_root_system(parse_cartan("G2"))
    cm = [
        [2 * inner(a, b, g2) / inner(b, b, g2) for b in g2.simple_roots]
        for a in g2.simple_roots
    ]
    assert cm == [[2, -1], [-3, 2]]
    f4 = build_root_system(parse_cartan("F4"))
    cm4 = [
        [2 * inner(a, b, f4) / inner(b, b, f4) for b in f4.simple_roots]
        for a in f4.simple_roots
    ]
    assert cm4 == [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


def test_inner_examples():
    a1 = build_root_system(parse_cartan("A1"))
    assert inner(a1.rho, a1.rho, a1) == F(1, 2)
    a2 = build_root_system(parse_cartan("A2"))
    assert inner(a2.simple_roots[0], a2.simple_roots[1], a2) == -1
    assert inner(a2.rho, wzero(2), a2) == 0
    alpha = a1.positive_roots[0]
    assert inner(alpha, alpha, a1) == 2


@pytest.mark.parametrize(
    "x,want",
    [((3, -2, 0), ((3, -2, 0), 1)), ((), ((), 1)), ((F(1, 2), 1, F(-3, 4)), ((2, 4, -3), 4)),
     ((F(4, 2), 3), ((2, 3), 1)), ((True, 2), ((1, 2), 1))],
)
def test_integer_coords_over_the_least_common_denominator(x, want):
    nums, den = integer_coords(x)
    assert (nums, den) == want
    assert all(type(c) is int for c in nums) and type(den) is int


def test_inner_dimension_mismatch():
    a2 = build_root_system(parse_cartan("A2"))
    with pytest.raises(ValidationError):
        inner(weight([1]), a2.rho, a2)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "E6"])
def test_rho_pairs_to_one_with_simple_coroots(name):
    rs = build_root_system(parse_cartan(name))
    for a in rs.simple_roots:
        assert 2 * inner(rs.rho, a, rs) / inner(a, a, rs) == 1


def test_is_regular_examples():
    a1 = build_root_system(parse_cartan("A1"))
    a2 = build_root_system(parse_cartan("A2"))
    assert not is_regular(wzero(2), a2)
    for rs in (a1, a2):
        assert is_regular(rs.rho, rs)
    alpha = a1.positive_roots[0]
    assert is_regular(wscale(F(1, 2), alpha), a1)


def test_is_dominant_examples():
    a2 = build_root_system(parse_cartan("A2"))
    assert is_dominant(wzero(2), a2)
    assert is_dominant(a2.rho, a2)
    assert not is_dominant(wneg(a2.simple_roots[0]), a2)


def test_weyl_orbit_examples():
    a1 = build_root_system(parse_cartan("A1"))
    a2 = build_root_system(parse_cartan("A2"))
    assert weyl_orbit((0, 0), a2) == ((0, 0),)
    alpha = a1.integral.root_rows[0]
    assert set(weyl_orbit(alpha, a1)) == {alpha, wneg(alpha)}
    assert len(weyl_orbit((1, 1), a2)) == 6


WEYL_ORDERS = {
    "A1": 2,
    "A2": 6,
    "B2": 8,
    "A3": 24,
    "B3": 48,
    "G2": 12,
    "D4": 192,
    "F4": 1152,
    "A1xA1": 4,
}


@pytest.mark.parametrize("name,expected", sorted(WEYL_ORDERS.items()))
def test_weyl_group_orders(name, expected):
    rs = build_root_system(parse_cartan(name))
    assert weyl_group_order(rs) == expected


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "C3"])
def test_reflection_permutes_other_positives(name):
    rs = build_root_system(parse_cartan(name))
    for a in rs.simple_roots:
        images = {reflect(r, a, rs) for r in rs.positive_roots if r != a}
        assert images == set(rs.positive_roots) - {a}
        assert reflect(a, a, rs) == wneg(a)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["A2", "B2", "G2"]),
    coords=st.lists(st.integers(-3, 3), min_size=2, max_size=2),
)
def test_orbit_size_divides_group_order(name, coords):
    rs = build_root_system(parse_cartan(name))
    assert weyl_group_order(rs) % len(weyl_orbit(tuple(coords), rs)) == 0


def test_regular_iff_full_orbit():
    rs = build_root_system(parse_cartan("B2"))
    order = weyl_group_order(rs)
    for x in range(-2, 3):
        for y in range(-2, 3):
            assert is_regular((x, y), rs) == (len(weyl_orbit((x, y), rs)) == order)


RANK_4_TYPES = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "F4", "G2",
    "A1xA1", "A1xB3", "A2xG2", "A1xA1xA2",
]


@pytest.mark.parametrize("name", RANK_4_TYPES)
def test_weyl_elements_match_fraction_bfs(name):
    rs = build_root_system(parse_cartan(name))
    elems = tuple(weyl_elements(rs))
    assert elems == weyl_elements_bfs(rs)
    assert weyl_group_order(rs) == len(elems) == len(weyl_elements(rs))


SYMPY_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", SYMPY_TYPES + ["A1xA1", "B3xG2", "E6xA2xC3"])
def test_weyl_group_order_matches_sympy(name):
    rs = build_root_system(parse_cartan(name))
    # sympy knows simple types only; the order of a product is the product of the orders
    assert weyl_group_order(rs) == math.prod(WeylGroup(f).group_order() for f in name.split("x"))


@pytest.mark.parametrize("name", SYMPY_TYPES + ["B3xG2"] + [f"catalog:{n}" for n in ("su21", "sp4r", "compact_b3")])
def test_heights_are_simple_root_coordinate_sums(name):
    rs = get_pair(name[8:]).k if name.startswith("catalog:") else build_root_system(parse_cartan(name))
    expected = tuple(int(sum(fw_to_simple_coords(a, rs))) for a in rs.positive_roots)
    assert rs.integral.heights == expected


@pytest.mark.parametrize("name", SYMPY_TYPES)
def test_root_count_and_cartan_matrix_match_sympy(name):
    rs = build_root_system(parse_cartan(name))
    ref = SympyCartanType(name)
    assert len(rs.positive_roots) == len(ref.positive_roots())
    ours = [[2 * inner(a, b, rs) / inner(b, b, rs) for b in rs.simple_roots] for a in rs.simple_roots]
    # sympy's A1 cartan_matrix raises IndexError
    assert ours == (ref.cartan_matrix().tolist() if rs.rank > 1 else [[2]])


# Standalone types, and subsystems: the rank-one K of two catalog pairs,
# and the K of two one-node gradings, B2 in B3 and A2 in C3, where one
# reflection is not enough to reach the dominant chamber.
KERNEL_SYSTEMS = {name: build_root_system(parse_cartan(name)) for name in RANK_4_TYPES}
KERNEL_SYSTEMS.update({f"{p}.k": get_pair(p).k for p in ("su21", "sp4r")})
KERNEL_SYSTEMS.update(
    {f"{c}-node{n}.k": build_pair(c, compact).k for c, n, compact, _ in ONE_NODE_GRADINGS if (c, n) in (("B3", 1), ("C3", 3))}
)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
def test_integer_kernels_match_fraction_oracle(name, data):
    rs = KERNEL_SYSTEMS[name]
    numerators = st.lists(st.integers(-5, 5), min_size=rs.rank, max_size=rs.rank)
    # x and y are half-integral: numerators over 2
    nums = tuple(data.draw(numerators))
    x = tuple(F(c, 2) for c in nums)
    y = tuple(F(c, 2) for c in data.draw(numerators))
    assert inner(x, y, rs) == oracle.inner(x, y, rs)
    for i in range(len(rs.simple_roots)):
        assert rs.coroot_pairing(x, i) == oracle.coroot_pairing(x, i, rs)
    assert make_dominant(nums, rs) == wscale(2, oracle.make_dominant(x, rs))
    assert weyl_orbit(nums, rs) == tuple(wscale(2, w) for w in oracle.weyl_orbit(x, rs))


@settings(max_examples=10, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("doubled_first", [False, True])
@pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
def test_orbit_kernels_are_linear_on_int_numerators(name, doubled_first, data):
    # the kernels see numerators only: doubling the numerators (the same
    # weight over twice the denominator) doubles the answer, in either
    # call order from empty caches, and every answer is an int tuple
    rs = KERNEL_SYSTEMS[name]
    nums = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=rs.rank, max_size=rs.rank)))
    doubled = tuple(2 * c for c in nums)
    make_dominant.cache_clear()
    weyl_orbit.cache_clear()
    got = {x: (make_dominant(x, rs), weyl_orbit(x, rs)) for x in ((doubled, nums) if doubled_first else (nums, doubled))}
    (dom, orbit), (dom2, orbit2) = got[nums], got[doubled]
    for w in (dom, dom2, *orbit, *orbit2):
        assert all(type(c) is int for c in w)
    assert dom2 == tuple(2 * c for c in dom)
    assert orbit2 == tuple(tuple(2 * c for c in w) for w in orbit)


def test_make_dominant_cache_is_bounded():
    assert make_dominant.cache_info().maxsize == ORBIT_CACHE_SIZE


def test_cartan_rows_are_the_pairings_of_the_simple_roots():
    # equal to the simple rows on a standalone type, not on a subsystem
    for name, rs in KERNEL_SYSTEMS.items():
        form = rs.integral
        expected = tuple(tuple(int(rs.coroot_pairing(a, j)) for j in range(len(rs.simple_roots))) for a in rs.simple_roots)
        assert form.cartan_rows == expected
        assert (form.cartan_rows == form.simple_rows) != name.endswith(".k")


def test_weyl_materialization_cap_still_refuses():
    order = weyl_elements(build_root_system(parse_cartan("E7")))
    with pytest.raises(ValidationError, match="materialization cap"):
        iter(order)
    with pytest.raises(ValidationError, match="materialization cap"):
        order[0]


def _cartan_types_up_to_rank(top):
    """Every Cartan type of total rank <= top, as a product of simple factors in sorted order."""
    simple = [f"{fam}{n}" for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, top + 1)]
    simple += [name for name in ("G2", "F4") if int(name[1]) <= top]
    out = []
    for k in range(1, top + 1):
        for combo in itertools.combinations_with_replacement(sorted(simple), k):
            if sum(int(name[1:]) for name in combo) <= top:
                out.append("x".join(combo))
    return out


@pytest.mark.parametrize("name", _cartan_types_up_to_rank(4))  # F4 and A1xB2 among them
def test_ranked_index_is_the_materialized_position(name):
    rs = build_root_system(parse_cartan(name))
    order = weyl_elements(rs)
    assert [order.index(m) for m in order] == list(range(len(order)))


def test_ranked_index_on_a_seeded_e6_sample():
    order = weyl_elements(build_root_system(parse_cartan("E6")))
    elems = tuple(order)
    for position in random.Random(27).sample(range(len(elems)), 3000):
        assert order.index(elems[position]) == position


def test_ranked_index_refuses_a_matrix_outside_w():
    order = weyl_elements(build_root_system(parse_cartan("A2")))
    with pytest.raises(ValueError, match="not an element"):
        order.index([[1, 1], [0, 1]])


@pytest.mark.parametrize("name", ["A1", "G2", "F4", "E6", "E7", "E8", "B3xG2"])
def test_weyl_order_length_and_ends_without_materializing(name, monkeypatch):
    monkeypatch.setattr(rootsys, "_materialize", _never_materialize)
    rs = build_root_system(parse_cartan(name))
    order = weyl_elements(rs)
    assert len(order) == weyl_group_order(rs)
    assert order.index(np.eye(rs.rank, dtype=np.int64)) == 0
    if name != "E6":  # -1 is the longest element, unless a factor is A_n (n > 1), D_odd or E6
        assert order.index(-np.eye(rs.rank, dtype=np.int64)) == len(order) - 1


def _never_materialize(rs):
    pytest.fail(f"the Weyl group of {rs.cartan} was built")


def test_weyl_enumeration_ends_with_longest_element():
    rs = build_root_system(parse_cartan("A2"))
    elems = weyl_elements(rs)
    assert apply_matrix(elems[0], rs.rho) == rs.rho
    assert apply_matrix(elems[-1], rs.rho) == wneg(rs.rho)


def test_make_dominant_lands_in_orbit():
    rs = build_root_system(parse_cartan("G2"))
    w = (-3, 2)
    d = make_dominant(w, rs)
    assert is_dominant(d, rs)
    assert d in weyl_orbit(w, rs)


@pytest.mark.parametrize(
    "bad",
    [(("E", 5),), (("F", 3),), (("G", 4),), (("D", 2),), (("A", 0),), (("H", 2),)],
)
def test_cartan_type_rank_bounds(bad):
    with pytest.raises(ValidationError):
        CartanType(bad)


def test_parse_cartan():
    assert parse_cartan("A2xG2").factors == (("A", 2), ("G", 2))
    assert parse_cartan("b3").factors == (("B", 3),)
    with pytest.raises(ValidationError):
        parse_cartan("")
    with pytest.raises(ValidationError):
        parse_cartan("Ax")


def test_empty_cartan_rejected_by_builder():
    empty = CartanType(())
    with pytest.raises(ValidationError):
        build_root_system(empty)


def test_weight_arithmetic_closed_under_rational_scaling():
    w = weight([1, F(3, 2)])
    assert wscale(F(2, 3), w) == (F(2, 3), F(1))


def test_simple_coords_roundtrip():
    rs = build_root_system(parse_cartan("B2"))
    for r in rs.positive_roots:
        k = fw_to_simple_coords(r, rs)
        assert all(c.denominator == 1 and c >= 0 for c in k)


def test_json_serialization_shape():
    rs = build_root_system(parse_cartan("A2"))
    js = rootsys_to_json(rs)
    assert js["rho"] == ["1", "1"]
    assert js["cartan"] == [["A", 2]]
    assert len(js["positive_roots"]) == 3
    assert js["form"][0][0] == "2/3"


def test_subsystem_on_highest_root():
    a2 = build_root_system(parse_cartan("A2"))
    theta = weight([1, 1])
    sub = subsystem(a2, [theta])
    assert sub.cartan.factors == (("A", 1),)
    assert sub.positive_roots == (theta,)
    assert sub.rho == wscale(F(1, 2), theta)
    assert sub.rank == 2  # shares ambient coordinates


def test_subsystem_rejects_non_roots_and_non_closed():
    a2 = build_root_system(parse_cartan("A2"))
    with pytest.raises(ValidationError):
        subsystem(a2, [weight([5, 5])])
    # a1 and theta alone are not closed: their difference a2 is missing
    with pytest.raises(ValidationError):
        subsystem(a2, [a2.simple_roots[0], weight([1, 1])])


def test_identify_cartan_type_components():
    b2 = build_root_system(parse_cartan("B2"))
    longs = [r for r in b2.positive_roots if inner(r, r, b2) == 2]
    ct = identify_cartan_type(tuple(longs), b2)
    assert ct.factors == (("A", 1), ("A", 1))


def test_rescale_form_keeps_cartan_ratios():
    rs = build_root_system(parse_cartan("G2"))
    scaled = rescale_form(rs, 7)
    for a in rs.simple_roots:
        for b in rs.simple_roots:
            assert inner(a, b, scaled) == 7 * inner(a, b, rs)
            if inner(b, b, rs) != 0:
                assert (
                    2 * inner(a, b, scaled) / inner(b, b, scaled)
                    == 2 * inner(a, b, rs) / inner(b, b, rs)
                )
    assert is_regular(rs.rho, scaled)


@pytest.mark.parametrize("name", ["A2", "B3", "G2xC3"])
def test_rescale_form_keeps_the_form_in_lowest_terms(name):
    rs = build_root_system(parse_cartan(name))
    for factor in (7, F(1, 2), F(6, 5), 0.25):
        scaled = rescale_form(rs, factor)
        assert scaled.form == tuple(tuple(F(factor) * c for c in row) for row in rs.form)
        assert scaled.integral.scale == math.lcm(*(c.denominator for row in scaled.form for c in row))
        assert (scaled.positive_roots, scaled.rho, scaled.cartan) == (rs.positive_roots, rs.rho, rs.cartan)
    back = rescale_form(rescale_form(rs, 6), F(1, 6))
    assert back.integral.scale == rs.integral.scale and back.integral.gram_rows == rs.integral.gram_rows
    for factor in (0, -1, F(-1, 2)):
        with pytest.raises(ValidationError, match="must be positive"):
            rescale_form(rs, factor)


CLASSIFIER_TYPES = ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4", "D5", "C5", "E6", "E7", "E8", "A1xB3"]


@pytest.mark.parametrize("name", CLASSIFIER_TYPES)
def test_cartan_type_matches_permutation_oracle_on_parabolics(name):
    rs = build_root_system(parse_cartan(name))
    simples = rs.simple_roots
    for mask in range(1, 2 ** rs.rank):
        sub = tuple(a for i, a in enumerate(simples) if mask >> i & 1)
        pairing = [[2 * inner(a, b, rs) / inner(b, b, rs) for b in sub] for a in sub]
        assert identify_cartan_type(sub, rs).factors == oracle.cartan_type_by_permutation(pairing), (name, mask)


def test_catalog_k_types_match_permutation_oracle():
    from dirac_atlas.spinmod import load_catalog

    for name, pair in load_catalog().items():
        k = pair.k
        pairing = [[2 * inner(a, b, k) / inner(b, b, k) for b in k.simple_roots] for a in k.simple_roots]
        assert k.cartan.factors == oracle.cartan_type_by_permutation(pairing), name


SIMPLE_UP_TO_RANK_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "F4", "G2"]
# every simple type and every product of them with total rank at most 4
UP_TO_RANK_4 = [
    "x".join(factors)
    for m in range(1, 5)
    for factors in itertools.combinations_with_replacement(SIMPLE_UP_TO_RANK_4, m)
    if sum(int(f[1:]) for f in factors) <= 4
]


@settings(max_examples=15, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", UP_TO_RANK_4)
def test_orbit_size_matches_orbit_count(name, data):
    rs = build_root_system(parse_cartan(name))
    mu = tuple(data.draw(st.lists(st.integers(0, 2), min_size=rs.rank, max_size=rs.rank)))
    assert orbit_size(mu, rs) == len(weyl_orbit(mu, rs))


@pytest.mark.parametrize(
    "coords",
    [(0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 2, 0, 0), (2, 0, 0, 0, 0, 1),
     (0, 2, 1, 0, 0, 0), (1, 0, 0, 0, 1, 2), (1, 1, 1, 1, 1, 1)],
)
def test_orbit_size_matches_orbit_count_on_e6(coords):
    rs = build_root_system(parse_cartan("E6"))
    assert orbit_size(coords, rs) == len(weyl_orbit(coords, rs))


def test_orbit_size_needs_a_dominant_weight():
    rs = build_root_system(parse_cartan("A2"))
    with pytest.raises(ValidationError, match="dominant"):
        orbit_size(weight([1, -1]), rs)


def test_parse_cartan_caps_the_total_rank():
    for text in ("A22", "B22", "C22", "D22", "E8xE8xA3xA3", "A11xA11"):
        assert sum(rank for _, rank in parse_cartan(text).factors) == RANK_CAP
    for text in ("A23", "A12xA11", "A60", "D1000000000000"):
        with pytest.raises(DeskScaleError, match="exceeds the cap"):
            parse_cartan(text)
