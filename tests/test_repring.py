"""Character ring tests.

The rank-one ladder and an explicit tensor construction serve as
independent oracles for the Freudenthal path; the Weyl dimension
formula cross-checks every dimension.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_oracles as oracle
from fraction_oracles import dual, invariant_multiplicity, wzero
from dirac_atlas.errors import DeskScaleError, ValidationError
from dirac_atlas.repring import (
    IrrLabel,
    char_from_terms,
    decompose,
    dimension,
    dominant_multiplicities,
    irr_character,
    is_weyl_invariant,
    product,
    resum,
    trivial_character,
    weyl_dimension,
    zero_character,
)
from dirac_atlas.rootsys import (
    apply_matrix,
    build_root_system,
    integer_coords,
    make_dominant,
    orbit_size,
    parse_cartan,
    weight,
    weyl_elements,
    weyl_orbit,
    wneg,
)
from dirac_atlas.spinmod import get_pair, spin_characters

A1 = build_root_system(parse_cartan("A1"))
A2 = build_root_system(parse_cartan("A2"))
B2 = build_root_system(parse_cartan("B2"))
G2 = build_root_system(parse_cartan("G2"))


def sl2_ladder_oracle(n):
    """Weights of the (n+1)-dimensional sl2 module: n, n-2, ..., -n."""
    return {(F(k),): 1 for k in range(-n, n + 1, 2)}


@pytest.mark.parametrize("n", range(6))
def test_a1_characters_match_ladder(n):
    chi = irr_character((n,), A1)
    assert chi.terms == sl2_ladder_oracle(n)
    assert dimension(chi) == n + 1


def test_trivial_character():
    chi = irr_character((0, 0), A2)
    assert chi.terms == {wzero(2): 1}
    assert dimension(chi) == 1


def test_a2_adjoint_against_tensor_oracle():
    # std (x) dual(std) - trivial = adjoint, built without Freudenthal.
    std = irr_character((1, 0), A2)
    tensor = product(std, dual(std)) - trivial_character(A2)
    adjoint = irr_character((1, 1), A2)
    assert tensor.terms == adjoint.terms
    assert dimension(adjoint) == 8
    assert adjoint.terms[wzero(2)] == 2


@pytest.mark.parametrize(
    "rs,grid",
    [
        (A1, [(n,) for n in range(8)]),
        (A2, [(a, b) for a in range(4) for b in range(4)]),
        (B2, [(a, b) for a in range(4) for b in range(4)]),
        (G2, [(a, b) for a in range(3) for b in range(2)]),
    ],
)
def test_freudenthal_dimension_equals_weyl_formula(rs, grid):
    for mu in grid:
        chi = irr_character(mu, rs)
        assert F(dimension(chi)) == weyl_dimension(mu, rs)


def test_irr_characters_are_weyl_invariant():
    for mu in [(2, 0), (1, 1), (3, 1)]:
        assert is_weyl_invariant(irr_character(mu, B2))


def test_dimension_examples():
    assert dimension(trivial_character(A1)) == 1
    chi = irr_character((2,), A1)
    assert dimension(chi - chi) == 0
    assert dimension(chi) == 3


def test_product_unit_law_and_zero():
    chi = irr_character((1, 1), A2)
    assert product(chi, trivial_character(A2)).terms == chi.terms
    assert product(chi, zero_character(A2)).terms == {}


def test_clebsch_gordan_a1():
    half = irr_character((1,), A1)
    out = decompose(product(half, half))
    assert out == [(IrrLabel(weight([0])), 1), (IrrLabel(weight([2])), 1)]


def test_classical_fusion_rules():
    # spin(5): 4 (x) 4 = 1 + 5 + 10
    out = decompose(product(irr_character((0, 1), B2), irr_character((0, 1), B2)))
    assert out == [
        (IrrLabel(weight([0, 0])), 1),
        (IrrLabel(weight([1, 0])), 1),
        (IrrLabel(weight([0, 2])), 1),
    ]
    # G2: 7 (x) 7 = 1 + 7 + 14 + 27
    out = decompose(product(irr_character((1, 0), G2), irr_character((1, 0), G2)))
    assert [(l.highest_weight, c) for l, c in out] == [
        (weight([0, 0]), 1),
        (weight([0, 1]), 1),
        (weight([1, 0]), 1),
        (weight([2, 0]), 1),
    ]


def test_decompose_idempotent_and_linear():
    chi = irr_character((2, 1), A2)
    assert decompose(chi) == [(IrrLabel(weight([2, 1])), 1)]
    assert decompose(-trivial_character(A2)) == [(IrrLabel(wzero(2)), -1)]


def test_decompose_resum_roundtrip_seeded():
    import random

    rng = random.Random(11)
    for _ in range(25):
        parts = []
        for _ in range(rng.randint(1, 4)):
            mu = (rng.randint(0, 3), rng.randint(0, 3))
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            parts.append((IrrLabel(weight(mu)), c))
        merged = {}
        for lbl, c in parts:
            merged[lbl] = merged.get(lbl, 0) + c
        parts = [(l, c) for l, c in merged.items() if c != 0]
        chi = resum(A2, parts)
        back = decompose(chi)
        assert sorted(back) == sorted(parts)
        assert resum(A2, back).terms == chi.terms


def test_dual_examples():
    assert dual(trivial_character(A2)).terms == trivial_character(A2).terms
    chi = irr_character((2, 1), A2)
    assert dual(dual(chi)).terms == chi.terms
    # dual(irr(w1)) = irr(-w0 . w1), computed via the longest element
    w0 = weyl_elements(A2)[-1]
    omega1 = weight([1, 0])
    expected = wneg(apply_matrix(w0, omega1))
    got = decompose(dual(irr_character(omega1, A2)))
    assert got == [(IrrLabel(expected), 1)]
    assert expected == weight([0, 1])


def test_invariant_multiplicity_examples():
    assert invariant_multiplicity(trivial_character(A1)) == 1
    half = irr_character((1,), A1)
    assert invariant_multiplicity(product(half, dual(half))) == 1
    assert invariant_multiplicity(product(half, irr_character((2,), A1))) == 0


@pytest.mark.parametrize(
    "rs,labels",
    [
        (A1, [(n,) for n in range(4)]),
        (A2, [(a, b) for a in range(2) for b in range(2)]),
    ],
)
def test_schur_orthogonality_exhaustive(rs, labels):
    for mu in labels:
        for nu in labels:
            val = invariant_multiplicity(
                product(irr_character(mu, rs), dual(irr_character(nu, rs)))
            )
            assert val == (1 if mu == nu else 0)


@settings(max_examples=25, deadline=None)
@given(
    a=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    b=st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
def test_dimension_multiplicative(a, b):
    ca = irr_character(a, B2)
    cb = irr_character(b, B2)
    assert dimension(product(ca, cb)) == dimension(ca) * dimension(cb)


def test_non_weyl_invariant_rejected():
    lopsided = char_from_terms(A2, {A2.simple_roots[0]: 1})
    with pytest.raises(ValidationError):
        decompose(lopsided)
    with pytest.raises(ValidationError):
        invariant_multiplicity(lopsided)


def test_ambient_mismatch_rejected():
    with pytest.raises(ValidationError):
        product(trivial_character(A2), trivial_character(B2))


def test_label_validation():
    with pytest.raises(ValidationError):
        irr_character((-1,), A1)
    with pytest.raises(ValidationError):
        irr_character((F(1, 2), F(0)), A2)


def _det(m):
    n = len(m)
    rows = [list(r) for r in m]
    det = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = F(1) / rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def _kostant_partition(target, roots):
    """Number of ways to write target (simple-root coords) as a
    nonnegative integer combination of the given positive roots."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def count(vec, i):
        if all(c == 0 for c in vec):
            return 1
        if i == len(roots):
            return 0
        total = 0
        cur = vec
        while all(c >= 0 for c in cur):
            total += count(cur, i + 1)
            cur = tuple(a - b for a, b in zip(cur, roots[i]))
        return total

    return count(tuple(target), 0)


def alternating_sum_multiplicity(mu, nu, rs):
    """Independent multiplicity oracle: the alternating sum over the
    Weyl group of Kostant partition counts."""
    from dirac_atlas.rootsys import fw_to_simple_coords, wadd, wsub

    root_coords = [
        tuple(int(c) for c in fw_to_simple_coords(r, rs)) for r in rs.positive_roots
    ]
    mu_shift = wadd(weight(mu), rs.rho)
    nu_shift = wadd(weight(nu), rs.rho)
    total = 0
    for m in weyl_elements(rs):
        target = wsub(apply_matrix(m, mu_shift), nu_shift)
        k = fw_to_simple_coords(target, rs)
        if k is None or any(c.denominator != 1 or c < 0 for c in k):
            continue
        total += int(_det(m)) * _kostant_partition(tuple(int(c) for c in k), root_coords)
    return total


@pytest.mark.parametrize(
    "rs,mu",
    [
        (A2, (2, 1)),
        (A2, (1, 1)),
        (B2, (1, 1)),
        (B2, (2, 0)),
        (G2, (1, 0)),
        (G2, (0, 1)),
    ],
)
def test_freudenthal_multiplicities_match_alternating_sum(rs, mu):
    from dirac_atlas.repring import dominant_multiplicities

    table = dominant_multiplicities(mu, rs)
    assert table[weight(mu)] == 1
    for nu, m in table.items():
        assert m == alternating_sum_multiplicity(mu, nu, rs), (mu, nu)
    # a dominant weight just outside the diagram has multiplicity zero
    outside = weight(tuple(c + 2 for c in mu))
    assert alternating_sum_multiplicity(mu, outside, rs) == 0


def test_half_integral_label_on_rank_one():
    # coords are coroot pairings, so the spin weight alpha/2 has coord 1
    alpha = A1.positive_roots[0]
    half_alpha = (F(1),)
    chi = irr_character(half_alpha, A1)
    assert dimension(chi) == 2
    assert set(chi.terms) == {half_alpha, wneg(half_alpha)}
    assert half_alpha == tuple(c / 2 for c in alpha)


# Every type of rank <= 3, and the K systems (A1 in rank 2) of two
# catalog pairs, whose labels may be half-integral in ambient coordinates.
FREUDENTHAL_SYSTEMS = {
    name: build_root_system(parse_cartan(name))
    for name in ("A1", "A2", "B2", "G2", "A1xA1", "A3", "B3", "C3", "D3", "A1xA2", "A1xB2", "A1xG2", "A1xA1xA1")
}
FREUDENTHAL_SYSTEMS.update({f"{p}.k": get_pair(p).k for p in ("su21", "sp4r")})


@settings(max_examples=8, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(FREUDENTHAL_SYSTEMS))
def test_freudenthal_matches_box_oracle(name, data):
    rs = FREUDENTHAL_SYSTEMS[name]
    top = 3 if rs.rank <= 2 else 2
    if name.endswith(".k"):
        coord = st.integers(-2 * top, 2 * top).map(lambda k: F(k, 2))
    else:
        coord = st.integers(0, top).map(F)
    mu = oracle.make_dominant(tuple(data.draw(st.lists(coord, min_size=rs.rank, max_size=rs.rank))), rs)
    assume(all(oracle.coroot_pairing(mu, i, rs).denominator == 1 for i in range(len(rs.simple_roots))))
    table = dominant_multiplicities(mu, rs)
    box = oracle.dominant_multiplicities_box(mu, rs)
    assert list(table.items()) == list(box.items())


@pytest.mark.parametrize("name", ["F4", "G2", "E6", "E7", "E8"])
def test_fundamental_dimensions_from_orbit_sizes(name):
    rs = build_root_system(parse_cartan(name))
    for i in range(rs.rank):
        mu = tuple(1 if j == i else 0 for j in range(rs.rank))
        table = dominant_multiplicities(mu, rs)
        assert sum(m * orbit_size(lam, rs) for lam, m in table.items()) == weyl_dimension(mu, rs), mu


def test_descent_refused_past_the_cap():
    # two weights in the orbit, but half a million dominant weights below
    with pytest.raises(DeskScaleError, match="dominant weights"):
        irr_character((1_000_000,), A1)


def test_orbit_of_highest_weight_refused_before_work():
    e8 = build_root_system(parse_cartan("E8"))
    with pytest.raises(DeskScaleError, match="Weyl orbit"):
        irr_character((1,) * 8, e8)


def test_support_refused_after_the_recursion():
    # the orbit of the highest weight (60480) is under the cap; the
    # orbits of its dominant table add up to 117361
    e8 = build_root_system(parse_cartan("E8"))
    with pytest.raises(DeskScaleError, match="the character of"):
        irr_character((0, 0, 0, 0, 0, 1, 0, 0), e8)


def test_decompose_finds_a_dominant_weight_uncovered_by_subtraction():
    # the zero weight cancels in chi and reappears once V(2) is subtracted
    chi = irr_character((2,), A1) - trivial_character(A1)
    assert wzero(1) not in chi.terms
    assert decompose(chi) == [(IrrLabel(wzero(1)), -1), (IrrLabel(weight([2])), 1)]


# Systems of the decompose oracle test: ranks up to 3 and the K systems
# of two catalog pairs, whose labels are half-integral in ambient
# coordinates.
DECOMPOSE_SYSTEMS = {name: FREUDENTHAL_SYSTEMS[name] for name in ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA2", "su21.k", "sp4r.k")}


def _draw_label(data, rs, top, half=False):
    """A dominant weight; with half, or on a K system, from half-integral coordinates."""
    half = half or any(c.denominator != 1 for c in rs.rho)
    coord = st.integers(-2 * top, 2 * top).map(lambda k: F(k, 2)) if half else st.integers(0, top).map(F)
    return oracle.make_dominant(tuple(data.draw(st.lists(coord, min_size=rs.rank, max_size=rs.rank))), rs)


def _integral(mu, rs):
    return all(oracle.coroot_pairing(mu, i, rs).denominator == 1 for i in range(len(rs.simple_roots)))


@settings(max_examples=12, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(DECOMPOSE_SYSTEMS))
def test_decompose_matches_peel_oracle(name, data):
    # random virtual characters sum c_i chi(mu_i), c_i in -2..2, with
    # repeated labels, so whole irreducibles and single weights cancel
    rs = DECOMPOSE_SYSTEMS[name]
    top = 2 if rs.rank <= 2 else 1
    labels = [mu for mu in (_draw_label(data, rs, top) for _ in range(3)) if _integral(mu, rs)]
    assume(labels)
    chi = zero_character(rs)
    for _ in range(data.draw(st.integers(1, 5))):
        mu = data.draw(st.sampled_from(labels))
        chi = chi + irr_character(mu, rs).scaled(data.draw(st.integers(-2, 2)))
    got = decompose(chi)
    assert got == oracle.decompose_peel(chi)
    assert resum(rs, got).terms == chi.terms


def _error_text(fn, chi):
    with pytest.raises(ValidationError) as info:
        fn(chi)
    return str(info.value)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(DECOMPOSE_SYSTEMS))
def test_decompose_errors_match_peel_oracle(name, data):
    rs = DECOMPOSE_SYSTEMS[name]
    # a non-invariant character: a few weights with random multiplicities
    coord = st.integers(-4, 4).map(lambda k: F(k, 2))
    weights = data.draw(st.lists(st.tuples(*[coord] * rs.rank), min_size=1, max_size=4))
    chi = char_from_terms(rs, {w: data.draw(st.integers(1, 2)) for w in weights})
    if not is_weyl_invariant(chi):
        assert _error_text(decompose, chi) == _error_text(oracle.decompose_peel, chi)
    # an invariant character whose peel meets a non-integral weight: the
    # orbit sum of a dominant non-integral weight, plus an irreducible
    odd = _draw_label(data, rs, 2, half=True)
    assume(not _integral(odd, rs))
    chi = char_from_terms(rs, {w: 1 for w in _orbit(odd, rs)})
    chi = chi + irr_character(wzero(rs.rank), rs).scaled(data.draw(st.integers(-2, 2)))
    assert _error_text(decompose, chi) == _error_text(oracle.decompose_peel, chi)


def _orbit(mu, rs):
    """The Weyl orbit of the Fraction weight mu, from weyl_orbit on its numerators."""
    nums, den = integer_coords(mu)
    return [tuple(F(c, den) for c in w) for w in weyl_orbit(nums, rs)]


def _draw_character(data, rs, half):
    """Up to five weights with multiplicities in {-2, -1, 1, 2}; on K
    systems the coordinates are half-integral."""
    coord = st.integers(-4, 4).map(lambda k: F(k, 2)) if half else st.integers(-2, 2).map(F)
    weights = data.draw(st.lists(st.tuples(*[coord] * rs.rank), max_size=5))
    return char_from_terms(rs, {w: data.draw(st.sampled_from([-2, -1, 1, 2])) for w in weights})


def _fraction_sum(a, b, sign=1):
    out = dict(a.terms)
    for w, m in b.terms.items():
        out[w] = out.get(w, 0) + sign * m
    return {w: m for w, m in out.items() if m}


@settings(max_examples=15, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(FREUDENTHAL_SYSTEMS))
def test_integer_characters_match_fraction_oracles(name, data):
    # every type of rank <= 3, and the K systems of su21 and sp4r, whose
    # spin modules have half-integral weights (denominator 2)
    rs = FREUDENTHAL_SYSTEMS[name]
    half = name.endswith(".k")
    a, b = _draw_character(data, rs, half), _draw_character(data, rs, half)
    prod = product(a, b)
    assert prod.terms == oracle.product_convolve(a, b)
    assert dual(a).terms == {wneg(w): m for w, m in a.terms.items()}
    assert (a + b).terms == _fraction_sum(a, b)
    assert (a - b).terms == _fraction_sum(a, b, -1)
    # one canonical form: equal characters compare equal, over the LCD of the support
    assert (a + b) - b == a
    for chi in (a, prod, a + b):
        assert chi.den == math.lcm(*(c.denominator for w in chi.terms for c in w))
        assert is_weyl_invariant(chi) == oracle.is_weyl_invariant_orbits(chi)
    # an invariant character, then the same with one weight of one orbit bumped
    top = 2 if rs.rank <= 2 else 1
    labels = [mu for mu in (_draw_label(data, rs, top) for _ in range(2)) if _integral(mu, rs)]
    assume(labels)
    inv = irr_character(labels[0], rs)
    for mu in labels[1:]:
        inv = product(inv, dual(irr_character(mu, rs)))
    if half:
        inv = product(inv, spin_characters(get_pair(name[:-2])).s_plus)
    assert is_weyl_invariant(inv) and oracle.is_weyl_invariant_orbits(inv)
    assert decompose(inv) == oracle.decompose_peel(inv)
    bumped = inv + char_from_terms(rs, {data.draw(st.sampled_from(sorted(inv.terms))): 1})
    assert is_weyl_invariant(bumped) == oracle.is_weyl_invariant_orbits(bumped)


@pytest.mark.parametrize(
    "rs,mu,den",
    [(build_root_system(parse_cartan("E6")), (0, 1, 0, 0, 0, 0), 1), (get_pair("sp4r").k, (3, F(1, 2)), 2)],
    ids=["E6", "sp4r.k"],
)
def test_weyl_invariance_of_an_irreducible_reads_the_cached_orbits(rs, mu, den):
    # one weyl_orbit call per dominant weight, each answered by the cache
    # that irr_character filled
    dominant = len(dominant_multiplicities(mu, rs))
    chi = irr_character(mu, rs)
    assert chi.den == den
    before = weyl_orbit.cache_info()
    assert is_weyl_invariant(chi)
    after = weyl_orbit.cache_info()
    assert (after.hits - before.hits, after.misses) == (dominant, before.misses)


def test_decompose_reaches_make_dominant():
    # the kernel makes each regular x dominant through the cached
    # make_dominant, alone or with a tensor factor
    b3 = build_root_system(parse_cartan("B3"))
    small, large = irr_character((1, 0, 1), b3), irr_character((1, 1, 1), b3)
    chi = product(large, small)
    for got in (lambda: decompose(chi), lambda: decompose(small, tensor_with=(1, 1, 1))):
        make_dominant.cache_clear()
        parts = got()
        info = make_dominant.cache_info()
        assert info.hits + info.misses > 0
        assert parts == oracle.decompose_peel(chi)


# Every type of rank <= 3, the K systems of su21 and sp4r (half-integral
# ambient weights), and D4 and F4 at small labels.
TENSOR_SYSTEMS = dict(FREUDENTHAL_SYSTEMS, **{name: build_root_system(parse_cartan(name)) for name in ("D4", "F4")})


@settings(max_examples=6, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(TENSOR_SYSTEMS))
def test_brauer_klimyk_matches_peel_of_the_product(name, data):
    rs = TENSOR_SYSTEMS[name]
    if rs.rank == 4:
        # zero and the fundamental weights of dimension under 60
        fundamental = [weight([int(i == j) for j in range(4)]) for i in range(4)]
        small = [w for w in [wzero(4)] + fundamental if weyl_dimension(w, rs) < 60]
        mu, lam = (data.draw(st.sampled_from(small)) for _ in range(2))
    else:
        top = 2 if rs.rank <= 2 else 1
        mu, lam = (_draw_label(data, rs, top) for _ in range(2))
        assume(_integral(mu, rs) and _integral(lam, rs))
    small = irr_character(mu, rs)
    prod = char_from_terms(rs, oracle.product_convolve(small, irr_character(lam, rs)))
    got = decompose(small, tensor_with=lam)
    assert got == oracle.decompose_peel(prod)
    assert sum(c * weyl_dimension(label, rs) for label, c in got) == weyl_dimension(mu, rs) * weyl_dimension(lam, rs)


@pytest.mark.parametrize("name", ["A1", "B2", "sp4r.k"])
def test_decompose_refuses_the_largest_non_integral_weight(name):
    # two orbits of non-integral dominant weights: the peel meets the larger one first
    rs = DECOMPOSE_SYSTEMS.get(name) or build_root_system(parse_cartan(name))
    odd = [mu for mu in (weight([F(k, 2)] * rs.rank) for k in (1, 3, 5)) if not _integral(mu, rs)]
    odd = [oracle.make_dominant(mu, rs) for mu in odd][:2]
    assert len(odd) == 2
    chi = char_from_terms(rs, {w: 1 for mu in odd for w in _orbit(mu, rs)})
    assert _error_text(decompose, chi) == _error_text(oracle.decompose_peel, chi)


def test_tensor_with_takes_a_checked_label():
    chi = irr_character((1, 0), A2)
    assert decompose(chi, tensor_with=IrrLabel(weight([0, 0]))) == decompose(chi)
    with pytest.raises(ValidationError, match="not dominant"):
        decompose(chi, tensor_with=(-1, 0))
    with pytest.raises(ValidationError, match="dimension mismatch"):
        decompose(chi, tensor_with=(1,))
    # pairings past int64 stay exact
    big = 2**62
    assert decompose(irr_character((1,), A1), tensor_with=(big,)) == [
        (IrrLabel(weight([big - 1])), 1),
        (IrrLabel(weight([big + 1])), 1),
    ]


@pytest.mark.parametrize(
    "cartan,mu,components",
    [("D4", (2, 2, 2, 2), 799), ("E8", (1,) + (0,) * 7, 10)],
)
def test_large_tensor_squares_keep_their_dimension(cartan, mu, components):
    # each was admitted only after minutes of product support and peel, or refused by the support cap
    rs = build_root_system(parse_cartan(cartan))
    parts = decompose(irr_character(mu, rs), tensor_with=mu)
    assert len(parts) == components and all(c > 0 for _, c in parts)
    assert sum(c * weyl_dimension(label, rs) for label, c in parts) == weyl_dimension(mu, rs) ** 2


def test_e8_adjoint_square_decomposes_into_five_irreducibles():
    e8 = build_root_system(parse_cartan("E8"))
    adjoint = irr_character((0,) * 7 + (1,), e8)
    parts = decompose(product(adjoint, adjoint))
    dims = sorted(int(weyl_dimension(label, e8)) for label, c in parts if c == 1)
    assert len(parts) == 5 and dims == [1, 248, 3875, 27000, 30380]
    assert decompose(adjoint, tensor_with=(0,) * 7 + (1,)) == parts
    assert sum(c * weyl_dimension(label, e8) for label, c in parts) == 248 * 248
