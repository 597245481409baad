"""Real pairs, spin modules, liftability, and catalog validation."""

import json
import random
from fractions import Fraction as F

import pytest

from dirac_atlas.errors import ValidationError
from dirac_atlas.repring import decompose, dimension, is_weyl_invariant
from dirac_atlas.rootsys import build_root_system, fw_to_simple_coords, parse_cartan, weight, wneg, wscale
from dirac_atlas.spinmod import (
    build_pair,
    catalog_names,
    check_spin_structure,
    get_pair,
    lattice_contains,
    load_catalog,
    rescale_pair,
    rho_noncompact,
    spin_characters,
    spin_difference_character,
)
from fraction_oracles import grading_is_additive, is_compact, spin_characters_by_sign_vectors, wzero

EQUAL_RANK_NAMES = [n for n in catalog_names() if n != "sl2c"]


def test_catalog_has_expected_entries():
    names = catalog_names()
    for required in ["sl2r", "su21", "sp4r", "sl2c"]:
        assert required in names
    compact = [n for n in names if n.startswith("compact_")]
    assert {"compact_a1", "compact_a2", "compact_b2", "compact_g2", "compact_f4"} <= set(compact)


def test_sl2r_structure():
    pair = get_pair("sl2r")
    assert pair.equal_rank and pair.parity == 0
    assert pair.n_plus == 1
    assert pair.k.simple_roots == ()
    assert pair.k.rho == wzero(1)
    sc = spin_characters(pair)
    alpha = pair.g.positive_roots[0]
    half = wscale(F(1, 2), alpha)
    assert sc.s_plus.terms == {half: 1}
    assert sc.s_minus.terms == {wneg(half): 1}
    diff = spin_difference_character(pair)
    assert diff.terms == {half: 1, wneg(half): -1}


def test_su21_structure():
    pair = get_pair("su21")
    assert pair.n_plus == 2
    assert pair.k.cartan.factors == (("A", 1),)
    theta = weight([1, 1])
    assert pair.compact_positive == (theta,)
    assert pair.k.rho == wscale(F(1, 2), theta)
    assert rho_noncompact(pair) == wscale(F(1, 2), theta)
    sc = spin_characters(pair)
    assert dimension(sc.s_plus) == 2 and dimension(sc.s_minus) == 2
    half = wscale(F(1, 2), theta)
    assert set(sc.s_plus.terms) == {half, wneg(half)}
    # spin halves are genuine K-characters
    assert is_weyl_invariant(sc.s_plus)
    assert decompose(sc.s_plus)[0][1] == 1


def test_sp4r_structure():
    pair = get_pair("sp4r")
    assert pair.n_plus == 3
    assert pair.k.cartan.factors == (("A", 1),)
    sc = spin_characters(pair)
    assert dimension(sc.s_plus) == 4 and dimension(sc.s_minus) == 4


def test_compact_pair_spin_is_trivial():
    pair = get_pair("compact_a2")
    assert is_compact(pair)
    sc = spin_characters(pair)
    assert sc.s_plus.terms == {wzero(2): 1}
    assert sc.s_minus.terms == {}
    assert spin_difference_character(pair).terms == {wzero(2): 1}


@pytest.mark.parametrize("name", EQUAL_RANK_NAMES)
def test_spin_dimension_and_two_paths(name):
    pair = get_pair(name)
    sc = spin_characters(pair)
    assert dimension(sc.s_plus) + dimension(sc.s_minus) == 2 ** pair.n_plus
    if pair.n_plus:
        assert dimension(sc.s_plus) == dimension(sc.s_minus)
    assert (sc.s_plus - sc.s_minus).terms == spin_difference_character(pair).terms
    assert pair.parity == 0


SIMPLE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
ORACLE_MAX_N_PLUS = 10


def one_node_gradings():
    """(type, node, compact roots, n+) for every simple type of rank <= 8 and
    every node (1-based): a positive root is compact when its simple-root
    coefficient at the node is even (Borel-de Siebenthal)."""
    out = []
    for name in SIMPLE_TYPES:
        g = build_root_system(parse_cartan(name))
        coords = [fw_to_simple_coords(r, g) for r in g.positive_roots]
        for node in range(g.rank):
            compact = [r for r, k in zip(g.positive_roots, coords) if k[node] % 2 == 0]
            out.append((name, node + 1, compact, len(g.positive_roots) - len(compact)))
    return out


ONE_NODE_GRADINGS = one_node_gradings()
SMALL_GRADINGS = [t for t in ONE_NODE_GRADINGS if t[3] <= ORACLE_MAX_N_PLUS]


def test_one_node_gradings_under_the_oracle_size():
    assert len(ONE_NODE_GRADINGS) == 161 and len(SMALL_GRADINGS) == 60


def assert_spin_matches_sign_vectors(pair):
    sc = spin_characters(pair)
    assert sc == spin_characters_by_sign_vectors(pair)
    assert sc.s_plus - sc.s_minus == spin_difference_character(pair)


@pytest.mark.parametrize("name", EQUAL_RANK_NAMES)
def test_spin_characters_match_sign_vector_oracle_on_catalog(name):
    assert_spin_matches_sign_vectors(get_pair(name))


@pytest.mark.parametrize(
    "cartan,node,compact,n_plus", SMALL_GRADINGS, ids=[f"{c}-node{n}" for c, n, _, _ in SMALL_GRADINGS]
)
def test_spin_characters_match_sign_vector_oracle_on_one_node_gradings(cartan, node, compact, n_plus):
    pair = build_pair(cartan, compact)
    assert pair.n_plus == n_plus
    assert_spin_matches_sign_vectors(pair)


def test_sl2c_metadata_pair():
    pair = get_pair("sl2c")
    assert not pair.equal_rank
    assert pair.parity == 1
    assert spin_difference_character(pair).terms == {}
    with pytest.raises(ValidationError):
        spin_characters(pair)
    with pytest.raises(ValidationError):
        check_spin_structure(pair)


def test_spin_structure_flags():
    st = check_spin_structure(get_pair("compact_a1"))
    assert st.lifts_on_G and st.lifts_on_double_cover
    st = check_spin_structure(get_pair("sl2r"))
    # rho_n = alpha/2 is half-integral against the integer root lattice
    assert not st.lifts_on_G and st.lifts_on_double_cover
    pair = get_pair("sl2r")
    assert rho_noncompact(pair) == (F(1),)
    assert not lattice_contains(pair.k_lattice, (F(1),))
    # the lattice-membership oracle decides su21 and sp4r the same way
    st = check_spin_structure(get_pair("su21"))
    assert not st.lifts_on_G and st.lifts_on_double_cover
    st = check_spin_structure(get_pair("sp4r"))
    assert not st.lifts_on_G and st.lifts_on_double_cover


def test_additive_grading_violation_rejected():
    # marking both simple roots of A2 compact forces the highest root
    # compact too; leaving it noncompact breaks additivity
    with pytest.raises(ValidationError):
        build_pair("A2", [weight([2, -1]), weight([-1, 2])])


def test_marking_must_be_positive_roots():
    with pytest.raises(ValidationError):
        build_pair("A2", [weight([4, 4])])


def test_valid_single_compact_markings_on_a2():
    # all three single-root markings are additive gradings
    for root in build_pair("A2", "all").g.positive_roots:
        pair = build_pair("A2", [root])
        assert pair.n_plus == 2


def test_b2_grading_with_short_root_compact():
    pair = build_pair("B2", [weight([1, 0])])
    assert pair.n_plus == 3
    assert pair.k.positive_roots == (weight([1, 0]),)


GRADING_TYPES = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "F4", "G2",
    "A1xA1", "A1xB3", "A2xG2", "A1xA1xA2",
]


def _grading_accepted(cartan, compact) -> bool:
    try:
        build_pair(cartan, compact)
    except ValidationError as exc:
        if "not an additive Z/2 grading" in str(exc):
            return False
        raise
    return True


def _markings(rs, rng):
    """Every single-root marking and its complement, then seeded random
    subsets, random homomorphisms to Z/2 and those with one root flipped."""
    pos = rs.positive_roots
    for r in pos:
        yield [r]
        yield [s for s in pos if s != r]
    coords = [fw_to_simple_coords(r, rs) for r in pos]
    for _ in range(20):
        yield [r for r in pos if rng.random() < 0.5]
        signs = [rng.randrange(2) for _ in range(rs.rank)]
        hom = {r for r, k in zip(pos, coords) if sum(int(c) * e for c, e in zip(k, signs)) % 2 == 0}
        yield sorted(hom)
        yield sorted(hom ^ {rng.choice(pos)})


@pytest.mark.parametrize("name", GRADING_TYPES)
def test_grading_check_matches_pairwise_oracle(name):
    rs = build_root_system(parse_cartan(name))
    verdicts = set()
    for compact in _markings(rs, random.Random(name)):
        expected = grading_is_additive(rs, set(compact))
        assert _grading_accepted(name, compact) == expected, compact
        verdicts.add(expected)
    # without a root that is a sum of two others every marking is additive
    assert verdicts == ({True, False} if len(rs.positive_roots) > rs.rank else {True})


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_markings_pass_pairwise_oracle(name):
    pair = get_pair(name)
    assert grading_is_additive(pair.g, set(pair.compact_positive))


def test_all_equal_rank_pairs_have_even_dim():
    for name in EQUAL_RANK_NAMES:
        pair = get_pair(name)
        assert pair.dim_g_mod_k == 2 * pair.n_plus


def test_lattice_membership():
    basis = (weight([2, 0]), weight([0, 1]))
    assert lattice_contains(basis, weight([4, 3]))
    assert not lattice_contains(basis, weight([1, 0]))
    assert lattice_contains(basis, wzero(2))


def test_catalog_unknown_key_rejected(tmp_path):
    bad = {"version": 1, "pairs": {"x": {"cartan": "A1", "compact": [], "bogus": 1}}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationError):
        load_catalog(str(path))


def test_catalog_requires_version(tmp_path):
    path = tmp_path / "nover.json"
    path.write_text(json.dumps({"pairs": {}}))
    with pytest.raises(ValidationError):
        load_catalog(str(path))


def test_unknown_pair_name():
    with pytest.raises(ValidationError):
        get_pair("so_not_a_pair")


def test_custom_catalog_roundtrip(tmp_path):
    data = {
        "version": 1,
        "pairs": {"mine": {"cartan": "A1", "compact": "all", "description": "test"}},
    }
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(data))
    pair = get_pair("mine", str(path))
    assert is_compact(pair) and pair.catalog_name == "mine"


@pytest.mark.parametrize(
    "lattice,match",
    [
        ([weight([1]), weight([1])], "vectors of"),
        ([weight([1, 0])], "vectors of"),
        ([weight([0])], "full rank"),
        ([weight([4])], "contain the roots"),
        ([weight([F(3, 2)])], "contain the roots"),
    ],
)
def test_k_lattice_validated(lattice, match):
    # sl2r lives on A1, whose root has fundamental-weight coordinate 2
    with pytest.raises(ValidationError, match=match):
        build_pair("A1", [], k_lattice=lattice)


def test_k_lattice_containing_the_roots_accepted():
    for lattice in ([weight([2])], [weight([1])], [weight([F(1, 2)])]):
        check_spin_structure(build_pair("A1", [], k_lattice=lattice))
    pair = build_pair("A2", [weight([1, 1])], k_lattice=[weight([2, -1]), weight([-1, 2])])
    assert check_spin_structure(pair).lifts_on_double_cover


@pytest.mark.parametrize("name", catalog_names())
def test_rescale_pair_scales_g_and_k_alike(name):
    pair = get_pair(name)
    scaled = rescale_pair(pair, F(3, 2))
    assert scaled.g.form == scaled.k.form == tuple(tuple(F(3, 2) * c for c in row) for row in pair.g.form)
    for old, new in ((pair.g, scaled.g), (pair.k, scaled.k)):
        assert (new.cartan, new.simple_roots, new.positive_roots, new.rho) == (
            old.cartan, old.simple_roots, old.positive_roots, old.rho
        )
    assert rho_noncompact(scaled) == rho_noncompact(pair)
    if pair.equal_rank:
        assert spin_characters(scaled).s_plus.nums == spin_characters(pair).s_plus.nums
