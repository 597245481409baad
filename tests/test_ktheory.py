"""K0, Fredholm index, Wedderburn, and group-algebra idempotent tests."""

import itertools
import math
import time
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracles as oracle
import wedderburn_reference
from wedderburn_reference import irreps
from dirac_atlas import ktheory
from dirac_atlas.errors import DeskScaleError, NumericalAmbiguityError, ValidationError
from dirac_atlas.ktheory import (
    K0_EXACT_WORK_CAP,
    K0_INDEX_WORK_CAP,
    TAU,
    AlgebraElement,
    ExactMatrix,
    FDAlgebra,
    FormalDifferenceWarning,
    FredholmModule,
    K0Class,
    _idempotent_eigen_rank,
    convolve,
    cyclic_table,
    dihedral_table,
    ds_idempotent,
    exact_work,
    fredholm_index,
    group_function_class,
    index_by_kernel_cokernel,
    k0_class,
    quaternion_table,
    resolve_group_table,
    singular_value_rank,
    spectral_pairing,
    symmetric_table,
    table_from_rows,
    trace_pairing,
    validate_group_table,
    wedderburn,
    wedderburn_image,
)


def rank1_projector(rng, n, real=False):
    g = rng.normal(size=(n, n))
    if not real:
        g = g + 1j * rng.normal(size=(n, n))
    e = np.zeros((n, n))
    e[0, 0] = 1.0
    return g @ e @ np.linalg.inv(g)


# ---------------------------------------------------------------------------
# K0 classes


def test_k0_class_of_zero_and_unit():
    alg = FDAlgebra((1, 2))
    zero = AlgebraElement.from_blocks(alg, [np.zeros((n, n)) for n in alg.blocks])
    unit = AlgebraElement.from_blocks(alg, [np.eye(n) for n in alg.blocks])
    assert k0_class(zero, alg).ranks == (0, 0)
    assert k0_class(unit, alg).ranks == (1, 2)


def test_k0_class_conjugated_rank_one():
    rng = np.random.default_rng(3)
    alg = FDAlgebra((3,))
    p = AlgebraElement.from_blocks(alg, [rank1_projector(rng, 3)])
    assert k0_class(p, alg).ranks == (1,)


def test_k0_exact_path():
    alg = FDAlgebra((2,))
    half = F(1, 2)
    p = AlgebraElement.from_blocks(alg, [[[half, half], [half, half]]])
    assert p.is_exact
    assert k0_class(p, alg).ranks == (1,)
    # complex exact entries: i-scaled off-diagonals still a projector
    q = AlgebraElement.from_blocks(
        alg, [[[(half, F(0)), (F(0), -half)], [(F(0), half), (half, F(0))]]]
    )
    assert k0_class(q, alg).ranks == (1,)
    # one float array makes every block float
    mixed = AlgebraElement.from_blocks(FDAlgebra((2, 1)), [[[half, half], [half, half]], np.eye(1)])
    assert not mixed.is_exact
    assert k0_class(mixed, mixed.algebra).ranks == (1, 1)


# Gaussian rationals (a/b) + ci with small parts
GAUSSIAN = st.tuples(st.integers(-2, 2), st.sampled_from([1, 2, 3]), st.integers(-1, 1)).map(
    lambda t: (F(t[0], t[1]), F(t[2]))
)


@st.composite
def exact_idempotents(draw):
    """(P, rank): a 0/1 diagonal D conjugated to U D U^-1 over Q(i), U a
    product of transvections I + c e_ij (row i += c row j, then column
    j -= c column i)."""
    n = draw(st.integers(1, 12))
    ones = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    p = [[(F(int(i == j and ones[i])), F(0)) for j in range(n)] for i in range(n)]
    moves = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), GAUSSIAN)
    for i, j, c in draw(st.lists(moves, min_size=2 * n, max_size=3 * n)):
        if i == j:
            continue
        p[i] = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(p[i], (oracle.gq_mul(c, x) for x in p[j]))]
        for row in p:
            d = oracle.gq_mul(c, row[i])
            row[j] = (row[j][0] - d[0], row[j][1] - d[1])
    return p, sum(ones)


@settings(max_examples=40, deadline=None)
@given(exact_idempotents(), st.data())
def test_exact_trace_rank_matches_elimination(case, data):
    p, rank = case
    n = len(p)
    alg = FDAlgebra((n,))
    assert oracle.gq_matmul(p, p) == p
    assert k0_class(AlgebraElement.from_blocks(alg, [p]), alg).ranks == (oracle.gq_rank(p),) == (rank,)
    # a half-integer shift of one diagonal entry leaves a non-integer
    # trace, which no idempotent has
    i = data.draw(st.integers(0, n - 1))
    shift = data.draw(st.tuples(st.integers(-3, 2), st.integers(-1, 1)))
    bad = [list(row) for row in p]
    bad[i][i] = (p[i][i][0] + shift[0] + F(1, 2), p[i][i][1] + shift[1])
    assert oracle.gq_matmul(bad, bad) != bad
    assert not ExactMatrix.from_rows(bad).is_idempotent()
    with pytest.raises(ValidationError, match="not idempotent"):
        k0_class(AlgebraElement.from_blocks(alg, [bad]), alg)


def test_k0_rejects_non_idempotent():
    alg = FDAlgebra((2,))
    bad = AlgebraElement.from_blocks(alg, [np.array([[0.5, 0], [0, 0]])])
    with pytest.raises(ValidationError):
        k0_class(bad, alg)
    bad_exact = AlgebraElement.from_blocks(alg, [[[F(1, 3), F(0)], [F(0), F(0)]]])
    with pytest.raises(ValidationError):
        k0_class(bad_exact, alg)


def test_k0_class_refuses_overlapping_rank_bands():
    # at gap >= 1/2 the eigenvalue 0 also lies within gap of 1: diag(1, 0)
    # read rank 1 exactly and rank 2 in floats, and a zero 1x1 block rank 1
    alg = FDAlgebra((2,))
    float_p = AlgebraElement.from_blocks(alg, [np.diag([1.0, 0.0])])
    exact_p = AlgebraElement.from_blocks(alg, [[[F(1), F(0)], [F(0), F(0)]]])
    for p in (float_p, exact_p):
        assert k0_class(p, alg, gap=0.49).ranks == (1,)
        for gap in (0.5, 1.0, float("inf"), float("nan")):
            with pytest.raises(ValidationError, match="below 1/2"):
                k0_class(p, alg, gap=gap)
    zero = FDAlgebra((1,))
    with pytest.raises(ValidationError):
        k0_class(AlgebraElement.from_blocks(zero, [np.zeros((1, 1))]), zero, gap=float("inf"))


def test_rank_helpers_raise_on_ambiguity():
    with pytest.raises(NumericalAmbiguityError):
        _idempotent_eigen_rank(np.diag([1.0, 0.5]), gap=1e-6)
    with pytest.raises(NumericalAmbiguityError):
        singular_value_rank(np.diag([1.0, 1e-5]), gap=1e-6)
    assert singular_value_rank(np.diag([1.0, 1e-9]), gap=1e-6) == 1


def test_k0_conjugation_and_amplification_invariance():
    rng = np.random.default_rng(5)
    alg = FDAlgebra((2, 3))
    p_blocks = [rank1_projector(rng, 2), rank1_projector(rng, 3)]
    p = AlgebraElement.from_blocks(alg, p_blocks)
    base = k0_class(p, alg)
    conj_blocks = []
    for mat in p_blocks:
        g = rng.normal(size=mat.shape) + 1j * rng.normal(size=mat.shape)
        conj_blocks.append(g @ mat @ np.linalg.inv(g))
    assert k0_class(AlgebraElement.from_blocks(alg, conj_blocks), alg) == base
    # p -> diag(p, 0) in the amplification
    amp_blocks = []
    for mat, n in zip(p_blocks, alg.blocks):
        big = np.zeros((2 * n, 2 * n), dtype=complex)
        big[:n, :n] = mat
        amp_blocks.append(big)
    assert k0_class(AlgebraElement.from_blocks(alg, amp_blocks), alg) == base


def test_diag_sum_relation():
    rng = np.random.default_rng(9)
    alg = FDAlgebra((3,))
    p = rank1_projector(rng, 3)
    q = rank1_projector(rng, 3)
    big = np.zeros((6, 6), dtype=complex)
    big[:3, :3] = p
    big[3:, 3:] = q
    lhs = k0_class(AlgebraElement.from_blocks(alg, [big]), alg)
    rhs = k0_class(AlgebraElement.from_blocks(alg, [p]), alg) + k0_class(
        AlgebraElement.from_blocks(alg, [q]), alg
    )
    assert lhs == rhs


def test_mixed_amplification_rejected():
    alg = FDAlgebra((1, 2))
    with pytest.raises(ValidationError):
        AlgebraElement.from_blocks(alg, [np.zeros((2, 2)), np.zeros((2, 2))])


# ---------------------------------------------------------------------------
# Fredholm index


def test_index_invertible_is_zero():
    alg = FDAlgebra((2,))
    m = FredholmModule.build([2], [2], [np.eye(2)])
    assert fredholm_index(m, alg).ranks == (0,)


def test_index_zero_map_counts_dimensions():
    alg = FDAlgebra((1,))
    m = FredholmModule.build([3], [2], [np.zeros((2, 3))])
    assert fredholm_index(m, alg).ranks == (1,)
    assert index_by_kernel_cokernel(m, alg).ranks == (1,)


def test_index_two_blocks():
    alg = FDAlgebra((1, 1))
    m = FredholmModule.build([1, 1], [1, 1], [np.eye(1), np.zeros((1, 1))])
    assert fredholm_index(m, alg).ranks == (0, 0)


def test_index_empty_modules():
    alg = FDAlgebra((2,))
    m = FredholmModule.build([0], [3], [np.zeros((3, 0))])
    assert fredholm_index(m, alg).ranks == (-3,)
    m2 = FredholmModule.build([3], [0], [np.zeros((0, 3))])
    assert fredholm_index(m2, alg).ranks == (3,)


def test_index_work_cap_counts_the_built_matrices():
    # an empty u: the e1 x e1 identity and the e1 x e1 completed operator
    side = math.isqrt(K0_INDEX_WORK_CAP // 2)
    assert 2 * side * side == K0_INDEX_WORK_CAP
    alg = FDAlgebra((1,))
    assert fredholm_index(FredholmModule.build([0], [side], [np.zeros((side, 0))]), alg).ranks == (-side,)
    with pytest.raises(DeskScaleError, match="over the desk-scale cap"):
        fredholm_index(FredholmModule.build([0], [side + 1], [np.zeros((side + 1, 0))]), alg)
    # one row of u: its 1 x e0 right SVD factor and the 1 x (e0 + 1) completed
    # operator, 2 * side^2 + 2 entries in all
    wide = side * side
    with pytest.raises(DeskScaleError, match="over the desk-scale cap"):
        fredholm_index(FredholmModule.build([wide], [1], [np.zeros((1, wide))]), alg)
    # a 1 x 1415 u: its right factor has one row, not 1415^2 > cap entries
    assert fredholm_index(FredholmModule.build([1415], [1], [np.zeros((1, 1415))]), alg).ranks == (1414,)
    # one free copy of a huge block: its columns in the completed operator
    with pytest.raises(DeskScaleError, match="over the desk-scale cap"):
        fredholm_index(FredholmModule.build([0], [1], [np.zeros((1, 0))]), FDAlgebra((10**9,)))


def _rank_one_idempotent(n, corner):
    """The n x n exact idempotent e_0 (1, corner, 0, ..., 0)."""
    rows = [[F(0)] * n for _ in range(n)]
    rows[0][0], rows[0][1] = F(1), F(corner)
    return rows


def test_exact_work_cap_counts_digits_before_the_lcm():
    # a 33-bit entry makes every product two limbs: 185^3 of them fit, 186^3 do not
    big = 2**32 + 1
    assert exact_work(_rank_one_idempotent(185, big)) <= K0_EXACT_WORK_CAP < exact_work(_rank_one_idempotent(186, big))
    alg = FDAlgebra((185,))
    assert k0_class(AlgebraElement.from_blocks(alg, [_rank_one_idempotent(185, big)]), alg).ranks == (1,)
    with pytest.raises(DeskScaleError, match="limb products"):
        AlgebraElement.from_blocks(FDAlgebra((186,)), [_rank_one_idempotent(186, big)])
    # 32 distinct 6 300-bit denominators: a 4x4 block whose lcm alone has about 200 000 bits
    rng = np.random.default_rng(3)
    dens = [int.from_bytes(rng.bytes(788), "big") | 1 << 6299 | 1 for _ in range(32)]
    rows = [[(F(1, dens[8 * i + 2 * j]), F(1, dens[8 * i + 2 * j + 1])) for j in range(4)] for i in range(4)]
    t0 = time.perf_counter()
    with pytest.raises(DeskScaleError, match="limb products"):
        AlgebraElement.from_blocks(FDAlgebra((4,)), [rows])
    assert time.perf_counter() - t0 < 0.5


def random_module(rng):
    k = int(rng.integers(1, 4))
    blocks = tuple(int(x) for x in rng.integers(1, 5, size=k))
    alg = FDAlgebra(blocks)
    e0 = [int(x) for x in rng.integers(0, 5, size=k)]
    e1 = [int(x) for x in rng.integers(0, 5, size=k)]
    u = [
        rng.integers(-2, 3, size=(b, a)).astype(complex)
        + 1j * rng.integers(-2, 3, size=(b, a))
        for a, b in zip(e0, e1)
    ]
    return alg, FredholmModule.build(e0, e1, u)


def test_index_oracle_equivalence_seeded():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        alg, m = random_module(rng)
        assert fredholm_index(m, alg) == index_by_kernel_cokernel(m, alg)


# ---------------------------------------------------------------------------
# Finite groups


def test_group_tables_are_groups():
    for table in (cyclic_table(7), symmetric_table(3), dihedral_table(4), quaternion_table()):
        wedderburn(table, seed=0)  # validation happens inside


def test_wedderburn_block_structures():
    expected = {
        "z1": (1,),
        "z3": (1, 1, 1),
        "z5": (1, 1, 1, 1, 1),
        "s3": (1, 1, 2),
        "s4": (1, 1, 2, 3, 3),
        "d4": (1, 1, 1, 1, 2),
        "q8": (1, 1, 1, 1, 2),
    }
    for name, blocks in expected.items():
        G = wedderburn(name, seed=0)
        assert G.algebra.blocks == blocks
        assert sum(d * d for d in blocks) == G.order


def test_wedderburn_deterministic():
    a = wedderburn("s4", seed=0)
    b = wedderburn("s4", seed=0)
    assert all(np.array_equal(x, y) for x, y in zip(irreps(a), irreps(b)))


def test_wedderburn_is_algebra_map():
    for name in ("s3", "q8", "z6"):
        G = wedderburn(name, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            f = rng.normal(size=G.order) + 1j * rng.normal(size=G.order)
            g = rng.normal(size=G.order) + 1j * rng.normal(size=G.order)
            lhs = wedderburn_image(convolve(f, g, G), G)
            fa = wedderburn_image(f, G)
            gb = wedderburn_image(g, G)
            for x, y, z in zip(fa.blocks, gb.blocks, lhs.blocks):
                assert np.max(np.abs(x @ y - z)) < 1e-9


def test_wedderburn_irreps_unitary():
    G = wedderburn("s4", seed=0)
    for rep in irreps(G):
        d = rep.shape[1]
        for g in range(G.order):
            assert np.max(np.abs(rep[g] @ rep[g].conj().T - np.eye(d))) < 1e-9


def test_invalid_tables_rejected():
    with pytest.raises(ValidationError):
        wedderburn(np.array([[0, 1], [0, 1]]))  # columns not permutations
    loop = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
    )
    with pytest.raises(ValidationError, match="associative"):
        wedderburn(loop)
    with pytest.raises(ValidationError):
        wedderburn("nonsense")
    with pytest.raises(ValidationError):
        wedderburn(cyclic_table(3)[:2])  # not square


NON_GROUP_TABLES = [
    [[0, 1], [0, 1]],  # columns not permutations
    [[0, 1, 2], [1, 1, 0], [2, 0, 1]],  # a row not a permutation
    [[0, 1, 2], [1, 2, 0], [1, 0, 2]],  # rows permutations, a column not
    [[0, 2, 1], [2, 1, 0], [1, 0, 2]],  # Latin, no identity: x y = -x - y mod 3
    [[(x - y) % 4 for y in range(4)] for x in range(4)],  # Latin, a right identity only
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],  # a loop
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],  # a loop
    [[0, 1], [1, 2]],  # entry out of range
    [[0, -1], [1, 0]],
    [[0, 1, 2], [1, 2, 0]],  # not square
    [0, 1, 2],
]


def _outcome(check, table):
    try:
        e, inv = check(table)
    except ValidationError as exc:
        return str(exc)
    return e, inv.tolist()


@pytest.mark.parametrize("table", NON_GROUP_TABLES)
def test_validate_group_table_refuses_like_the_loop_oracle(table):
    want = _outcome(wedderburn_reference.validate_table_loops, table)
    assert isinstance(want, str)
    assert _outcome(validate_group_table, table) == want


def test_validate_group_table_matches_the_loop_oracle_on_groups():
    rng = np.random.default_rng(5)
    tables = [symmetric_table(3), symmetric_table(4), dihedral_table(4), dihedral_table(7), quaternion_table()]
    tables += [cyclic_table(n) for n in (1, 2, 9, 16)]
    for t in list(tables):
        # relabel the elements, so the identity and the inverses move
        perm = rng.permutation(len(t))
        relabeled = np.empty_like(t)
        relabeled[np.ix_(perm, perm)] = perm[t]
        tables.append(relabeled)
    for t in tables:
        e, inv = validate_group_table(t)
        assert (e, inv.tolist()) == _outcome(wedderburn_reference.validate_table_loops, t)
        assert (t[np.arange(len(t)), inv] == e).all()


def _intercalate_swaps(table):
    """Every table made from a group table by swapping one intercalate (a
    2x2 Latin subsquare) that avoids the identity row and column."""
    n = len(table)
    out = []
    for r1, r2 in itertools.combinations(range(1, n), 2):
        for c1, c2 in itertools.combinations(range(1, n), 2):
            if table[r1, c1] == table[r2, c2] and table[r1, c2] == table[r2, c1]:
                out.append(_swap_intercalate(table, (r1, r2), (c1, c2)))
    return out


def _swap_intercalate(table, rows, cols):
    (r1, r2), (c1, c2) = rows, cols
    assert table[r1, c1] == table[r2, c2] and table[r1, c2] == table[r2, c1]
    out = table.copy()
    out[np.ix_(rows, cols)] = table[np.ix_(rows, cols[::-1])]
    return out


@pytest.mark.parametrize("name", ["s3", "d4", "q8", "z8"])
def test_validate_group_table_refuses_intercalate_swaps_like_the_loop_oracle(name):
    # identity at index 0; each swap keeps a Latin square with an identity
    swaps = _intercalate_swaps(resolve_group_table(name))
    assert swaps
    for t in swaps:
        got = _outcome(validate_group_table, t)
        assert got == _outcome(wedderburn_reference.validate_table_loops, t) == "table is not associative"


@st.composite
def swapped_loops(draw):
    """Latin squares with an identity: a relabeled group table after a
    few intercalate swaps, so both groups and non-associative loops."""
    klein = np.bitwise_xor.outer(np.arange(4), np.arange(4))
    t = draw(st.sampled_from([cyclic_table(4), klein, cyclic_table(6), symmetric_table(3), dihedral_table(4),
                              quaternion_table(), cyclic_table(8)]))
    for _ in range(draw(st.integers(0, 3))):
        swaps = _intercalate_swaps(t)
        if not swaps:
            break
        t = draw(st.sampled_from(swaps))
    perm = np.array(draw(st.permutations(range(len(t)))))
    relabeled = np.empty_like(t)
    relabeled[np.ix_(perm, perm)] = perm[t]
    return relabeled


@settings(max_examples=60, deadline=None)
@given(swapped_loops())
def test_validate_group_table_decides_like_the_loop_oracle_on_loops(table):
    assert _outcome(validate_group_table, table) == _outcome(wedderburn_reference.validate_table_loops, table)


def test_light_refuses_a_closure_that_fails_to_double(monkeypatch):
    # generators 1 and 4 reach 4 and then 6 elements: no group has a
    # subgroup of order 4 inside one of order 6, so this refusal needs no
    # associativity check at all
    t = _swap_intercalate(symmetric_table(3), (1, 3), (1, 4))
    monkeypatch.setattr(ktheory, "_associates_through", lambda table, a: True)
    with pytest.raises(ValidationError, match="^table is not associative$"):
        validate_group_table(t)


def test_light_refuses_a_later_generator_that_fails_the_check(monkeypatch):
    # every closure doubles and the first generator passes; the second fails
    t = _swap_intercalate(symmetric_table(3), (2, 3), (2, 4))
    assert ktheory._associates_through(t, 1) and not ktheory._associates_through(t, 2)
    with pytest.raises(ValidationError, match="^table is not associative$"):
        validate_group_table(t)
    monkeypatch.setattr(ktheory, "_associates_through", lambda table, a: True)
    assert validate_group_table(t)[0] == 0


def test_group_order_cap():
    big = np.zeros((1001, 1001), dtype=int)
    with pytest.raises(ValidationError, match="cap"):
        wedderburn(big)


def test_group_order_cap_checked_before_the_table_is_built():
    t0 = time.perf_counter()
    with pytest.raises(ValidationError, match="cap"):
        resolve_group_table("z1000000000")
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "rows",
    [[[0, 1], [0]], [["a", "b"], ["b", "a"]], {"a": 1}, [[0.5, 1], [1, 0]], [[True, False], [False, True]],
     [[0, 2**70], [2**70, 0]], [], "z5"],
)
def test_table_rows_must_be_a_square_integer_list(rows):
    with pytest.raises(ValidationError):
        table_from_rows(rows)


def test_float_array_table_rejected():
    with pytest.raises(ValidationError, match="integers"):
        wedderburn(np.array([[0.5, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize(
    "group,seeds",
    [("z1", (0, 1, 7)), ("z5", (0, 1, 7)), ("z6", (0, 1, 7)), ("s3", (0, 1, 7)), ("s4", (0, 1, 7)),
     ("d4", (0, 1, 7)), ("q8", (0, 1, 7)), ("d100", (0, 3))],
)
def test_wedderburn_matches_dense_reference(group, seeds):
    table = dihedral_table(50) if group == "d100" else group
    for seed in seeds:
        got = wedderburn(table, seed=seed)
        want, want_irreps = wedderburn_reference.wedderburn(table, seed=seed)
        assert got.order == want.order
        assert got.classes == want.classes
        assert got.algebra.blocks == want.algebra.blocks
        for blk, (x, y) in enumerate(zip(irreps(got), want_irreps)):
            assert x.shape == y.shape
            assert np.max(np.abs(x - y)) < 1e-12
            # d * conj of the (0, 0) matrix coefficient, from the einsum irrep
            want_p = got.algebra.blocks[blk] * np.conj(y[:, 0, 0])
            assert np.max(np.abs(ds_idempotent(got, blk) - want_p)) < 1e-12


# the groups and seeds whose `group wedderburn` stdout tests/test_cli.py pins
WEDDERBURN_MATRIX = [(name, range(10)) for name in ["s3", "s4", "d4", "q8"] + [f"z{n}" for n in range(6, 22)]]
WEDDERBURN_MATRIX += [("z128", range(3)), ("d100", range(3))]


def test_block_order_keys_round_like_python_round():
    for name, seeds in WEDDERBURN_MATRIX:
        table = dihedral_table(50) if name == "d100" else name
        for seed in seeds:
            G = wedderburn(table, seed=seed)
            reps = [cls[0] for cls in G.classes]
            chars = np.array([np.trace(rep[reps], axis1=1, axis2=2) for rep in irreps(G)])
            k = len(reps)
            got = [(row[0], tuple(row[1:k + 1]), tuple(row[k + 1:]))
                   for row in ktheory._block_keys(np.array(G.algebra.blocks), chars).tolist()]
            want = [wedderburn_reference.block_key(d, c) for d, c in zip(G.algebra.blocks, chars)]
            assert got == want, (name, seed)
            assert want == sorted(want)


def test_projector_characters_match_the_irrep_traces(monkeypatch):
    # wedderburn orders the blocks by characters read off the stage-1
    # projectors; the traces of the irreps must agree and give that order
    seen = []
    real = ktheory._isotypic_characters

    def spy(evecs, groups, dims, e, rows):
        seen.append((dims, real(evecs, groups, dims, e, rows)))
        return seen[-1][1]

    monkeypatch.setattr(ktheory, "_isotypic_characters", spy)
    # the same groups with the identity moved off index 0, where the first
    # row of eigh's eigenvectors is real
    rng = np.random.default_rng(23)
    cases = [(dihedral_table(50) if name == "d100" else name, seeds) for name, seeds in WEDDERBURN_MATRIX]
    for name in ("s4", "q8", "z12", "d100"):
        table = dihedral_table(50) if name == "d100" else resolve_group_table(name)
        perm = rng.permutation(len(table))
        moved = np.empty_like(table)
        moved[np.ix_(perm, perm)] = perm[table]
        cases.append((moved, range(3)))
    for table, seeds in cases:
        name = table if isinstance(table, str) else len(table)
        for seed in seeds:
            seen.clear()
            G = wedderburn(table, seed=seed)
            ((dims, chars),) = seen
            reps = [cls[0] for cls in G.classes]
            traces = np.array([np.trace(rep[reps], axis1=1, axis2=2) for rep in irreps(G)])
            # chars is in stage-1 order, the blocks of G in the order of its keys
            chars = chars[np.lexsort(ktheory._block_keys(dims, chars).T[::-1])]
            assert np.max(np.abs(chars - traces)) < 1e-9, (name, seed)
            by_traces = np.lexsort(ktheory._block_keys(np.array(G.algebra.blocks), traces).T[::-1])
            assert by_traces.tolist() == list(range(G.algebra.k)), (name, seed)


def test_symmetric_table_matches_the_composition_loop():
    for n in range(6):
        got = symmetric_table(n)
        assert got.dtype == np.int64
        assert np.array_equal(got, wedderburn_reference.symmetric_table_loops(n)), n


@pytest.mark.parametrize("block", [-1, 1000])
def test_a_bad_block_is_refused_before_any_eigh(monkeypatch, block):
    def sentinel(*args, **kwargs):
        pytest.fail("eigh ran before the block index was checked")

    monkeypatch.setattr(np.linalg, "eigh", sentinel)
    with pytest.raises(ValidationError, match="block index out of range"):
        wedderburn("z1000", seed=0, block=block)


def test_wedderburn_bases_are_orthonormal():
    G = wedderburn("s4", seed=0)
    for blk, basis in enumerate(G.bases):
        d = G.algebra.blocks[blk]
        assert basis.shape == (G.order, d)
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(d))) < 1e-12
        assert G.irrep(blk).shape == (G.order, d, d)


def _faulty_grouping(real, move_after, fail_sizes):
    """A stand-in for _group_eigenvalues in one wedderburn run. Stage 1
    (the first call) moves the last index of group move_after into the
    next group; in stage 2 an isotypic of a size in fail_sizes gets a
    first commutant eigenvalue group of m2 + 3 indices, so the error
    message names the size that failed."""
    calls = itertools.count()

    def fake(evals):
        groups = real(evals)
        if next(calls) == 0:
            if move_after is not None:
                groups[move_after + 1].insert(0, groups[move_after].pop())
        elif len(evals) in fail_sizes:
            groups[0] = list(range(len(evals) + 3))
        return groups

    return fake


@pytest.mark.parametrize(
    "move_after,fail_sizes,message",
    [
        # s4 at seed 0 has isotypics of sizes 9, 1, 1, 9, 4 in stage-1 order
        (None, (9, 4), "commutant eigenspace has dimension 12, expected 3"),
        (None, (4, 1), "commutant eigenspace has dimension 4, expected 1"),
        (3, (1,), "commutant eigenspace has dimension 4, expected 1"),  # sizes 9, 1, 1, 8, 5
        (0, (4,), "isotypic dimension 8 is not a perfect square"),  # sizes 8, 2, 1, 9, 4
    ],
)
def test_stage_two_reports_the_first_failure_in_stage_one_order(monkeypatch, move_after, fail_sizes, message):
    # the dense reference checks each isotypic in turn
    errors = []
    for module, run in ((wedderburn_reference, wedderburn_reference.wedderburn), (ktheory, wedderburn)):
        monkeypatch.setattr(module, "_group_eigenvalues",
                            _faulty_grouping(ktheory._group_eigenvalues, move_after, fail_sizes))
        with pytest.raises(NumericalAmbiguityError) as exc:
            run("s4", seed=0)
        errors.append(str(exc.value))
    assert errors == [message, message]


def _sympy_table(perm_group) -> np.ndarray:
    forms = sorted(tuple(p.array_form) for p in perm_group.elements)
    index = {f: i for i, f in enumerate(forms)}
    arr = np.array(forms)
    return np.array([[index[tuple(arr[b][arr[a]])] for b in range(len(forms))] for a in range(len(forms))])


@pytest.mark.parametrize(
    "name,dims",
    [("S5", (1, 1, 4, 4, 5, 5, 6)), ("A5", (1, 3, 3, 4, 5)), ("D7", None), ("D8", None), ("S3xZ2", None)],
)
def test_wedderburn_against_sympy_groups(name, dims):
    from sympy.combinatorics import AlternatingGroup, CyclicGroup, DihedralGroup, SymmetricGroup
    from sympy.combinatorics.group_constructs import DirectProduct

    perm_group = {
        "S5": lambda: SymmetricGroup(5),
        "A5": lambda: AlternatingGroup(5),
        "D7": lambda: DihedralGroup(7),
        "D8": lambda: DihedralGroup(8),
        "S3xZ2": lambda: DirectProduct(SymmetricGroup(3), CyclicGroup(2)),
    }[name]()
    G = wedderburn(_sympy_table(perm_group), seed=0)
    assert G.order == perm_group.order()
    assert G.algebra.k == len(perm_group.conjugacy_classes()) == len(G.classes)
    assert sum(d * d for d in G.algebra.blocks) == G.order
    if dims is not None:
        assert G.algebra.blocks == dims
    for blk, d in enumerate(G.algebra.blocks):
        p = ds_idempotent(G, blk)
        assert np.max(np.abs(convolve(p, p, G) - p)) <= TAU
        assert abs(trace_pairing(p, G) - d) <= TAU


def test_wedderburn_z256_is_fast():
    t0 = time.perf_counter()
    G = wedderburn("z256", seed=0)
    assert time.perf_counter() - t0 < 5.0
    assert G.algebra.blocks == (1,) * 256


def test_z5_fourier_idempotent_against_formula():
    G = wedderburn("z5", seed=0)
    # identify each 1-dim block with its character exponent
    for blk in range(5):
        p = ds_idempotent(G, blk)
        err = np.max(np.abs(convolve(p, p, G) - p))
        assert err < 1e-12
        rep = G.irrep(blk)[:, 0, 0]
        m = None
        for cand in range(5):
            target = np.exp(2j * np.pi * cand * np.arange(5) / 5)
            if np.max(np.abs(rep - target)) < 1e-9:
                m = cand
        assert m is not None
        expected = np.exp(-2j * np.pi * m * np.arange(5) / 5)
        assert np.max(np.abs(p - expected)) < 1e-9
        assert abs(trace_pairing(p, G) - 1.0) < 1e-12


def test_ds_idempotent_s3_two_dim_block():
    G = wedderburn("s3", seed=0)
    blk = G.algebra.blocks.index(2)
    p = ds_idempotent(G, blk)
    assert np.max(np.abs(convolve(p, p, G) - p)) < 1e-12
    assert abs(trace_pairing(p, G) - 2.0) < 1e-12
    cls = group_function_class(p, G)
    assert cls.ranks == tuple(1 if i == blk else 0 for i in range(3))


def test_ds_idempotent_arbitrary_unit_vector():
    G = wedderburn("q8", seed=0)
    blk = G.algebra.blocks.index(2)
    x = np.array([0.6, 0.8j])
    p = ds_idempotent(G, blk, x)
    assert np.max(np.abs(convolve(p, p, G) - p)) < 1e-12
    with pytest.raises(ValidationError):
        ds_idempotent(G, blk, np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        ds_idempotent(G, 99)


def test_s3_character_table_exact():
    G = wedderburn("s3", seed=0)
    # classes sorted by least element: identity, transpositions, 3-cycles
    assert G.classes == ((0,), (1, 2, 5), (3, 4))
    chars = np.array(
        [[np.trace(rep[c[0]]) for c in G.classes] for rep in irreps(G)]
    )
    expected = np.array([[1, -1, 1], [1, 1, 1], [2, 0, -1]])
    assert np.max(np.abs(chars - expected)) < 1e-9


@pytest.mark.parametrize("name", ["z5", "s3", "s4", "d4", "q8"])
def test_character_orthogonality(name):
    G = wedderburn(name, seed=0)
    sizes = np.array([len(c) for c in G.classes])
    chars = np.array(
        [[np.trace(rep[c[0]]) for c in G.classes] for rep in irreps(G)]
    )
    gram = (chars * sizes) @ chars.conj().T
    assert np.max(np.abs(gram - G.order * np.eye(G.algebra.k))) < 1e-8


def test_trivial_group_idempotent():
    G = wedderburn("z1", seed=0)
    p = ds_idempotent(G, 0)
    assert np.allclose(p, [1.0])
    assert trace_pairing(p, G) == 1.0
    assert group_function_class(p, G).ranks == (1,)


def test_trace_pairing_examples():
    G = wedderburn("s3", seed=0)
    delta_e = np.zeros(6)
    delta_e[G.identity] = 1.0
    assert trace_pairing(delta_e, G) == 1.0
    # unit of the convolution algebra is |G| * delta_e; its class is the
    # full identity with trace sum d^2 = |G|
    unit_class = k0_class(
        wedderburn_image(G.order * delta_e, G), G.algebra
    )
    assert unit_class.ranks == G.algebra.blocks
    assert trace_pairing(unit_class, G) == G.order
    # additivity and positivity
    a = K0Class((1, 0, 1))
    b = K0Class((0, 1, 0))
    assert trace_pairing(a + b, G) == trace_pairing(a, G) + trace_pairing(b, G)
    assert trace_pairing(a, G) > 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val = trace_pairing(K0Class((1, -1, 0)), G)
        assert val == 0.0
        assert any(issubclass(w.category, FormalDifferenceWarning) for w in caught)


def test_spectral_pairing_delta():
    for name in ("z5", "s3", "d4", "q8"):
        G = wedderburn(name, seed=0)
        k = G.algebra.k
        for blk in range(k):
            cls = group_function_class(ds_idempotent(G, blk), G)
            for other in range(k):
                assert spectral_pairing(other, cls) == (1 if other == blk else 0)
    with pytest.raises(ValidationError):
        spectral_pairing(5, K0Class((1,)))


def test_resolve_group_table_names():
    assert resolve_group_table("z4").shape == (4, 4)
    assert resolve_group_table("S3").shape == (6, 6)
    with pytest.raises(ValidationError):
        resolve_group_table("zx")


def test_exact_matrix_rank():
    # the package reads only the rank of an idempotent; a general rank is the oracle's
    assert oracle.gq_rank([[1, 2], [2, 4]]) == 1
    assert oracle.gq_rank([[(F(0), F(1)), 0], [0, 0]]) == 1
    assert oracle.gq_rank([[0, 0], [0, 0]]) == 0
    with pytest.raises(ValidationError, match="not idempotent"):
        ExactMatrix.from_rows([[1, 2], [2, 4]]).idempotent_rank()
    assert ExactMatrix.from_rows([[0, 0], [0, 0]]).idempotent_rank() == 0
