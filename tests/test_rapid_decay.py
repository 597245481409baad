"""Norm laboratory tests: lengths, balls, truncated norms, probes."""

import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rapid_decay_reference as reference
from dirac_atlas import rapid_decay
from dirac_atlas.errors import ConvergenceError, DeskScaleError, ValidationError
from dirac_atlas.rapid_decay import (
    DENSE_COLS,
    POWER_MAX_ITER,
    POWER_TOL,
    PROBE_COUNT_CAP,
    _ball_index,
    _Compression,
    MarkedGroup,
    NormSpec,
    compute_norm_report,
    fourier_sup_oracle,
    function_from_json,
    function_to_json,
    hs_norm,
    l1_norm,
    normalize_function,
    parse_group,
    rd_inequality_probe,
    reduce_word,
    reduced_norm_truncated,
    support_radius,
    unconditionality_probe,
)

Z = MarkedGroup.integer_lattice(1)
Z2 = MarkedGroup.integer_lattice(2)
F2 = MarkedGroup.free_group(2)

F_TRIPLE = {(0,): 1, (1,): 1, (2,): 1}
F_FLIPPED = {(0,): 1, (1,): 1, (2,): -1}


def delta(g):
    return {g: 1.0 + 0j}


def random_elements(group, rng, count, radius=4):
    ball = group.ball(radius)
    idx = rng.choice(len(ball), size=min(count, len(ball)), replace=False)
    return [ball[i] for i in idx]


@pytest.mark.parametrize("group", [Z, Z2, F2], ids=["z", "z2", "f2"])
def test_length_function_axioms_random(group):
    rng = np.random.default_rng(42)
    elems = random_elements(group, rng, 12, radius=3)
    assert group.length(reference.identity(group)) == 0
    for a in elems:
        assert group.length(reference.inverse(group, a)) == group.length(a)
        for b in elems:
            assert group.length(reference.mul(group, a, b)) <= group.length(a) + group.length(b)


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
@settings(max_examples=50, deadline=None)
def test_reduce_word_properties(letters):
    w = reduce_word(letters)
    # reduced: no adjacent cancelling pair
    assert all(w[i] != -w[i + 1] for i in range(len(w) - 1))
    # reduction is idempotent
    assert reduce_word(w) == w


def test_f2_ball_sizes():
    assert [len(F2.ball(r)) for r in range(5)] == [1, 5, 17, 53, 161]
    assert len(F2.sphere(3)) == 36


def test_ball_cap():
    with pytest.raises(DeskScaleError):
        F2.ball(14)
    with pytest.raises(DeskScaleError):
        MarkedGroup.integer_lattice(3).ball(200)


def test_l1_examples():
    assert l1_norm(normalize_function({(3,): 1}, Z)) == 1
    assert l1_norm(normalize_function({(0,): 1, (5,): 1}, Z)) == 2
    assert l1_norm(normalize_function({(0,): 1, (1,): -2j}, Z)) == 3


def test_hs_examples():
    for s in (0, 1, 2.5):
        assert hs_norm(delta(reference.identity(Z)), s, Z) == 1
    assert hs_norm(delta((1,)), 2, Z) == 4  # (1+1)^2
    f = {(1,): 1, (-1,): 1}
    assert abs(hs_norm(f, 1, Z) - math.sqrt(8)) < 1e-12


def test_reduced_norm_of_delta_is_one():
    for radius in (0, 1, 5):
        assert abs(reduced_norm_truncated(delta((0,)), Z, radius) - 1) < 1e-9
    assert abs(reduced_norm_truncated(delta((1,)), F2, 3) - 1) < 1e-9


def test_reduced_norm_requires_covering_radius():
    with pytest.raises(ValidationError):
        reduced_norm_truncated(F_TRIPLE, Z, 1)
    assert support_radius(normalize_function(F_TRIPLE, Z), Z) == 2


def test_reduced_norm_checks_the_radius_before_the_function():
    # the empty function has no support to cover, yet a negative radius is still refused
    assert reduced_norm_truncated({}, Z, 0) == 0.0
    for f in ({}, F_TRIPLE):
        with pytest.raises(ValidationError, match="nonnegative finite"):
            reduced_norm_truncated(f, Z, -1)


def test_reduced_norm_monotone_and_below_l1():
    rng = np.random.default_rng(0)
    for _ in range(10):
        sup = random_elements(Z, rng, 4, radius=3)
        f = {g: complex(a, b) for g, a, b in zip(sup, rng.normal(size=4), rng.normal(size=4))}
        f = normalize_function(f, Z)
        if not f:
            continue
        r0 = support_radius(f, Z)
        v1 = reduced_norm_truncated(f, Z, r0 + 2)
        v2 = reduced_norm_truncated(f, Z, r0 + 10)
        assert v1 <= v2 + 1e-6
        assert v2 <= l1_norm(f) + 1e-6


def test_triple_function_reaches_three():
    val = reduced_norm_truncated(F_TRIPLE, Z, 100)
    assert 3 - 1e-2 <= val <= 3 + 1e-9


def test_fourier_oracle_brackets():
    br = fourier_sup_oracle(F_TRIPLE, Z)
    assert br.lower <= 3.0 <= br.upper
    assert br.upper - br.lower < 1e-3
    br2 = fourier_sup_oracle(F_FLIPPED, Z)
    assert abs(br2.lower - math.sqrt(5)) < 1e-6
    assert br2.upper - br2.lower < 1e-3
    with pytest.raises(ValidationError):
        fourier_sup_oracle(F_TRIPLE, F2)


def test_truncated_matches_oracle_flipped():
    val = reduced_norm_truncated(F_FLIPPED, Z, 200)
    oracle = fourier_sup_oracle(F_FLIPPED, Z)
    assert abs(val - oracle.lower) < 1e-3


def test_fourier_oracle_z2():
    f = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    br = fourier_sup_oracle(f, Z2, grid=1 << 12)
    assert br.lower <= 3.0 <= br.upper
    assert abs(br.lower - 3.0) < 1e-6


def test_power_iteration_non_convergence_reported():
    with pytest.raises(ConvergenceError) as exc:
        reduced_norm_truncated(F_TRIPLE, Z, 50, max_iter=3)
    assert exc.value.iterations == 3


def test_unconditional_norms_have_zero_deviation():
    f = {(0,): 1 + 1j, (1,): -2, (3,): 0.5j}
    rep = unconditionality_probe(NormSpec("l1"), f, Z, trials=100, seed=7)
    assert rep.max_deviation <= 1e-12
    rep = unconditionality_probe(NormSpec("hs", s=2.0), f, Z, trials=100, seed=7)
    assert rep.max_deviation <= 1e-12


def test_reduced_norm_is_not_unconditional():
    # regression fixture: the sign flip moves the norm from 3 to sqrt(5)
    v_plus = reduced_norm_truncated(F_TRIPLE, Z, 200)
    v_minus = reduced_norm_truncated(F_FLIPPED, Z, 200)
    assert v_plus - v_minus > 0.2
    rep = unconditionality_probe(
        NormSpec("reduced_truncated", radius=40), F_TRIPLE, Z, trials=25, seed=3
    )
    assert rep.max_deviation > 0.05
    assert rep.witness is not None


def test_probe_requires_trials():
    with pytest.raises(ValidationError):
        unconditionality_probe(NormSpec("l1"), F_TRIPLE, Z, trials=0, seed=1)
    with pytest.raises(ValidationError):
        NormSpec("hs").evaluate(F_TRIPLE, Z)
    with pytest.raises(ValidationError):
        NormSpec("bogus").evaluate(F_TRIPLE, Z)


def test_rd_probe_z_bounded():
    rep = rd_inequality_probe(Z, s=1.0, samples=20, seed=5, max_support_radius=40)
    assert rep.max_ratio <= 4.0
    assert len(rep.ratios) == 20
    assert "empirical" in rep.note


def test_rd_probe_f2_spheres():
    rep = rd_inequality_probe(F2, s=2.0, samples=10, seed=5, max_support_radius=4, sphere_supported=True)
    assert rep.max_ratio <= 4.0


def test_rd_probe_identity_ratio_one():
    ball = Z.ball(0)
    assert ball == [(0,)]
    val = reduced_norm_truncated(delta((0,)), Z, 4)
    assert abs(val / hs_norm(delta((0,)), 1.0, Z) - 1.0) < 1e-9


def test_norm_report_invariants():
    rep = compute_norm_report(F_TRIPLE, Z, s=1.0, radius=30)
    assert rep.red_lower <= rep.red_upper + 1e-6
    assert rep.red_upper == rep.l1 == 3.0


def test_parse_group_names():
    assert parse_group("z").rank == 1
    assert parse_group("z3").rank == 3
    assert parse_group("f2").kind == "free"
    with pytest.raises(ValidationError):
        parse_group("e8")


def test_function_json_roundtrip():
    items = [
        {"g": [1], "re": 1.0, "im": 0.0},
        {"g": [-2], "re": 0.0, "im": -1.5},
    ]
    f = function_from_json(items, Z)
    assert f == {(1,): 1.0, (-2,): -1.5j}
    back = function_from_json(function_to_json(f), Z)
    assert back == f
    with pytest.raises(ValidationError):
        function_from_json([{"re": 1.0}], Z)
    with pytest.raises(ValidationError):
        function_from_json([{"g": [1, 2], "re": 1.0}], Z)


def test_free_group_elements_validated():
    with pytest.raises(ValidationError):
        normalize_function({(1, -1): 1}, F2)  # not reduced
    with pytest.raises(ValidationError):
        normalize_function({(3,): 1}, F2)  # letter out of range


def ball_reference(group, radius):
    """The ball as enumerated before closed-form caps: the (2r+1)^d box
    filtered by l1 norm, and reduced words sphere by sphere."""
    r = int(math.floor(radius))
    if group.kind == "lattice":
        return [pt for pt in itertools.product(range(-r, r + 1), repeat=group.rank) if sum(map(abs, pt)) <= r]
    out, frontier = [()], [()]
    for _ in range(r):
        frontier = [w + (s,) for w in frontier for a in range(1, group.rank + 1) for s in (a, -a) if not w or w[-1] != -s]
        out.extend(frontier)
    return out


@pytest.mark.parametrize(
    "name,radii",
    [("z", range(8)), ("z2", range(7)), ("z3", range(5)), ("f1", range(8)), ("f2", range(6)), ("f3", range(5))],
)
def test_ball_matches_reference_enumerator(name, radii):
    group = parse_group(name)
    for r in radii:
        ball = group.ball(r)
        assert ball == ball_reference(group, r), (name, r)
        assert group.ball_size(r) == len(ball)
    assert group.ball(2.5) == group.ball(2)


def test_ball_size_closed_forms():
    for k in range(2, 6):
        group = MarkedGroup.free_group(k)
        for r in range(6):
            assert group.ball_size(r) == 1 + k * ((2 * k - 1) ** r - 1) // (k - 1)
    assert MarkedGroup.free_group(1).ball_size(40) == 81
    # Delannoy-type counts of the l1 ball
    assert MarkedGroup.integer_lattice(9).ball_size(2) == 181
    # octahedral numbers
    for r in range(8):
        assert MarkedGroup.integer_lattice(3).ball_size(r) == (2 * r + 1) * (2 * r * r + 2 * r + 3) // 3


@pytest.mark.parametrize(
    "group,radius",
    [(MarkedGroup.free_group(3), 10), (MarkedGroup.free_group(2), 10**9), (MarkedGroup.integer_lattice(2), 10**12),
     (MarkedGroup.integer_lattice(10**6), 10**6), (MarkedGroup.integer_lattice(400_000), 1)],
)
def test_ball_refused_in_closed_form_before_work(group, radius):
    t0 = time.perf_counter()
    with pytest.raises(DeskScaleError):
        group.ball(radius)
    assert time.perf_counter() - t0 < 0.5


def test_ball_counts_lattice_coordinates_against_the_cap():
    # 1001 points, each of 500 coordinates
    assert len(MarkedGroup.integer_lattice(500).ball(1)) == 1001
    with pytest.raises(DeskScaleError, match="coordinates"):
        MarkedGroup.integer_lattice(2000).ball(1)
    assert MarkedGroup.integer_lattice(100_000).ball(0) == [(0,) * 100_000]


@pytest.mark.parametrize("radius", [-1, math.nan, math.inf])
def test_ball_radius_must_be_finite_and_nonnegative(radius):
    with pytest.raises(ValidationError):
        Z.ball(radius)


def test_rd_probe_refuses_its_largest_ball_before_sampling():
    t0 = time.perf_counter()
    with pytest.raises(DeskScaleError, match="radius 10"):
        rd_inequality_probe(MarkedGroup.free_group(3), 1.0, 50, seed=1)
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("count", [PROBE_COUNT_CAP + 1, 10**30])
def test_probe_counts_refused_past_the_cap_before_work(count):
    t0 = time.perf_counter()
    with pytest.raises(DeskScaleError, match="trials exceed"):
        unconditionality_probe(NormSpec(name="l1"), {(0,): 1.0}, Z, count, seed=1)
    with pytest.raises(DeskScaleError, match="samples exceed"):
        rd_inequality_probe(Z, 1.0, count, seed=1)
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize(
    "items",
    [
        {"g": [1]},
        [{"g": [1.5], "re": 1.0}],
        [{"g": [True], "re": 1.0}],
        [{"g": "ab", "re": 1.0}],
        [{"g": 1, "re": 1.0}],
        [{"g": [1], "re": "x"}],
        [{"g": [1], "re": True}],
        [{"g": [1], "im": math.nan}],
        [{"g": [1], "re": 10**400}],
    ],
)
def test_function_from_json_refuses_non_integer_elements_and_non_numbers(items):
    with pytest.raises(ValidationError):
        function_from_json(items, Z)


def gather_operator(f, group, radius) -> np.ndarray:
    """The gather-built compression as a dense matrix over the whole ball."""
    index = _ball_index(group, radius)
    support = list(f)
    op = _Compression(index, support)
    dense = np.zeros((index.size, index.size), dtype=complex)
    vals = np.array([f[g] for g in support], dtype=complex)[op.which]
    np.add.at(dense, (op.row_ids[op.rows], op.col_ids[op.cols]), vals)
    return dense


@pytest.mark.parametrize(
    "name,radii",
    [("z", range(6)), ("z2", range(5)), ("z3", range(4)), ("f1", range(6)), ("f2", range(5)), ("f3", range(4))],
)
def test_gather_operator_matches_loop_reference(name, radii):
    group = parse_group(name)
    rng = np.random.default_rng(11)
    for r in radii:
        ball = group.ball(r)
        for _ in range(4):
            size = int(rng.integers(1, min(len(ball), 6) + 1))
            f = {ball[i]: complex(*rng.normal(size=2)) for i in rng.choice(len(ball), size, replace=False)}
            radius = r + int(rng.integers(0, 3))
            want = reference.compressed_operator_reference(f, group, radius)
            assert np.array_equal(gather_operator(f, group, radius), want), (name, r, f)


# Largest radius per group, so that the dense oracles stay fast: balls of
# 201, 313, 485 and 266 elements.
ORACLE_RADII = {"z": 100, "z2": 12, "f2": 5, "f3": 3}


@st.composite
def truncated_problems(draw):
    name = draw(st.sampled_from(sorted(ORACLE_RADII)))
    group = parse_group(name)
    radius = draw(st.integers(0, ORACLE_RADII[name]))
    pool = group.ball(min(radius, 3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8, unique=True))
    # the power-iteration oracle underflows on tiny coefficients, which the
    # solver under test scales away (test_reduced_norm_scales_extreme_coefficients)
    parts = st.floats(-4, 4).filter(lambda x: x == 0 or abs(x) >= 1e-3)
    f = {pool[i]: complex(draw(parts), draw(parts)) for i in picks}
    return group, f, radius


@given(truncated_problems())
@settings(max_examples=40, deadline=None)
def test_lanczos_bound_against_power_iteration_and_dense_norm(problem):
    group, f, radius = problem
    value = reduced_norm_truncated(f, group, radius)
    f = normalize_function(f, group)
    if not f:
        assert value == 0.0
        return
    sigma = float(np.linalg.norm(reference.compressed_operator_reference(f, group, radius), 2))
    assert value >= reference.power_iteration_reference(f, group, radius) - 1e-9 * max(1.0, sigma)
    assert value <= sigma + 1e-9


@pytest.mark.parametrize("scale", [1e160, 1e-310])
def test_reduced_norm_scales_extreme_coefficients(scale):
    # M^H M squares the coefficients: 1e160 overflows and 1e-310 underflows
    # unless f is rescaled first.
    unit = reduced_norm_truncated({(0,): 1.0, (1,): 3.0}, Z, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = reduced_norm_truncated({(0,): scale, (1,): 3 * scale}, Z, 3)
    assert value == pytest.approx(scale * unit, rel=1e-6)


def test_norm_report_carries_iterations_and_residual():
    # 61 columns: the dense solve counts them as its applications
    rep = compute_norm_report(F_TRIPLE, Z, s=1.0, radius=30)
    assert rep.iterations == 61 and 0 <= rep.residual <= 1e-12
    # 201 columns: Lanczos. The scaled f has max |c| in [1/2, 1), so
    # theta >= 1/4 and the stopping rule bounds the residual over theta
    # by 4 * POWER_TOL
    rep = compute_norm_report(F_TRIPLE, Z, s=1.0, radius=100)
    assert rep.iterations >= 1
    assert 0 <= rep.residual <= 4e-6
    assert compute_norm_report({}, Z, s=1.0, radius=3).iterations == 0


def test_unconditionality_probe_reuses_one_pattern(monkeypatch):
    f = {(): 1, (1,): 1, (-1,): 1, (2,): 1, (-2,): 1}
    built = []
    monkeypatch.setattr(rapid_decay, "_Compression", lambda *args: built.append(args) or _Compression(*args))
    rep = unconditionality_probe(NormSpec("reduced_truncated", radius=4), f, F2, trials=5, seed=2)
    assert len(built) == 1  # the base value and every trial
    assert rep.base_value == pytest.approx(reduced_norm_truncated(f, F2, 4), rel=1e-12)
    again = reduced_norm_truncated(rep.witness, F2, 4)
    assert rep.max_deviation == pytest.approx(abs(again - rep.base_value), abs=1e-12)


@pytest.mark.parametrize(
    "spec,f",
    [(NormSpec("reduced_truncated"), F_TRIPLE), (NormSpec("reduced_truncated", radius=1), F_TRIPLE),
     (NormSpec("reduced_truncated", radius=-3), F_TRIPLE), (NormSpec("reduced_truncated", radius=-3), {})],
    ids=["no-radius", "radius-below-support", "negative-radius", "negative-radius-empty"],
)
def test_unconditionality_probe_checks_the_radius_before_the_trials(spec, f):
    with pytest.raises(ValidationError):
        unconditionality_probe(spec, f, Z, trials=2, seed=1)


def test_ball_index_is_built_once_per_radius():
    group = parse_group("f2")
    assert _ball_index(group, 3) is _ball_index(group, 3.5)
    assert _ball_index(group, 4) is not _ball_index(group, 3)
    with pytest.raises(ValidationError):
        _ball_index(group, math.nan)


@pytest.mark.parametrize(
    "group,f,radius",
    [(F2, {(1,): 1.5 + 1.5j, (-1,): -1 - 1j}, 2)],
    ids=["f2-symmetric"],
)
def test_lanczos_start_has_no_symmetry(group, f, radius, monkeypatch):
    # from ones/sqrt(n) the Krylov space of this f stays in a symmetric
    # subspace that misses the top singular vector (2.5495); this
    # compression is small enough for the dense solve, so it is switched off
    monkeypatch.setattr(rapid_decay, "DENSE_COLS", 0)
    sigma = float(np.linalg.norm(reference.compressed_operator_reference(f, group, radius), 2))
    assert reduced_norm_truncated(f, group, radius) == pytest.approx(sigma, rel=1e-9)


def _radius_at_dense_threshold(group, support, above):
    """The largest radius whose compression has at most DENSE_COLS columns,
    or the smallest with more."""
    radius = max(group.length(g) for g in support)
    while True:
        n = len(_Compression(_ball_index(group, radius + 1), support).col_ids)
        if n > DENSE_COLS:
            return radius + 1 if above else radius
        radius += 1


# Also the functions of the CLI's RD_INPUTS.
THRESHOLD_CASES = [
    ("z", {(0,): 1.5 - 0.5j, (1,): 1.0, (-2,): -0.75j}),
    ("z2", {(0, 0): 1.0, (1, 0): 0.5 + 0.5j, (0, -1): -1.25}),
    ("f2", {(): 0.5, (1,): 1.5 + 1.5j, (-1,): -1 - 1j, (2, 1): 0.25j}),
]


@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
@pytest.mark.parametrize("name,f", THRESHOLD_CASES)
def test_dense_and_lanczos_solves_agree_at_the_threshold(name, f, above, monkeypatch):
    group = parse_group(name)
    support = list(f)
    radius = _radius_at_dense_threshold(group, support, above)
    op = _Compression(_ball_index(group, radius), support)
    n = len(op.col_ids)
    assert (n > DENSE_COLS) == above
    coeffs = np.array([f[g] for g in support], dtype=complex)
    sigma = float(np.linalg.norm(reference.compressed_operator_reference(f, group, radius), 2))
    chosen = op.norm(coeffs, POWER_TOL, POWER_MAX_ITER)
    monkeypatch.setattr(rapid_decay, "DENSE_COLS", n)
    dense = op.norm(coeffs, POWER_TOL, POWER_MAX_ITER)
    monkeypatch.setattr(rapid_decay, "DENSE_COLS", 0)
    lanczos = op.norm(coeffs, POWER_TOL, POWER_MAX_ITER)
    assert chosen == (lanczos if above else dense)
    # the dense solve forms the n columns of M^H M, and its residual is rounding
    assert dense[1] == n and 0 <= dense[2] <= 1e-12
    assert 1 <= lanczos[1] and 0 <= lanczos[2] <= 4 * POWER_TOL
    assert dense[0] == pytest.approx(sigma, rel=1e-12) and dense[0] <= sigma * (1 + 1e-12)
    assert lanczos[0] == pytest.approx(sigma, rel=1e-9) and lanczos[0] <= sigma * (1 + 1e-12)
    if not above:
        # max_iter bounds the applications of either solve, so below n it is Lanczos
        monkeypatch.setattr(rapid_decay, "DENSE_COLS", n)
        assert op.norm(coeffs, POWER_TOL, n - 1) == lanczos
        # and so is a compression over the entry bound
        monkeypatch.setattr(rapid_decay, "DENSE_ENTRIES", len(op.row_ids) * n - 1)
        assert op.norm(coeffs, POWER_TOL, POWER_MAX_ITER) == lanczos


def test_free_ball_builds_left_rows_only_for_the_letters_used():
    # all 2k rows over the 400 001-word ball would take 6.4 GB
    group = MarkedGroup.free_group(200_000)
    assert reduced_norm_truncated({(1,): 1, (-2,): 0.5}, group, 1) == pytest.approx(math.sqrt(1.25), rel=1e-9)
    assert sorted(_ball_index(group, 1).free.rows) == [0, 3]


@pytest.mark.parametrize("c", [1.7e308, 1.79e308])
def test_norm_report_bracket_holds_at_the_float_range(c):
    # ||Mx|| for the unit Ritz vector rounded one ulp above l1 here
    rep = compute_norm_report({(0,): c}, Z, 1, 3)
    assert rep.red_lower <= rep.red_upper == c


def test_norm_report_bracket_holds_on_random_deltas():
    rng = np.random.default_rng(17)
    for group in (Z, F2):
        pool = group.ball(3)
        for _ in range(300):
            g = pool[int(rng.integers(len(pool)))]
            c = complex(*rng.normal(size=2)) * 10.0 ** int(rng.integers(-300, 300))
            rep = compute_norm_report({g: c}, group, 1, 3)
            assert rep.red_lower <= rep.red_upper, (g, c)


def lanczos_solve(solver, name, f, radius, monkeypatch):
    """(sigma, applications, residual) of f's compression solved by
    solver with the dense solve off, the vectors handed to gram, and
    the number of columns."""
    group = parse_group(name)
    support = list(f)
    op = _Compression(_ball_index(group, radius), support)
    handed = []

    def traced(gram, forward, n, tol, max_iter):
        return solver(lambda x: handed.append(x.copy()) or gram(x), forward, n, tol, max_iter)

    monkeypatch.setattr(rapid_decay, "DENSE_COLS", 0)
    monkeypatch.setattr(rapid_decay, "_lanczos_top", traced)
    out = op.norm(np.array([f[g] for g in support], dtype=complex), POWER_TOL, POWER_MAX_ITER)
    return out, handed, len(op.col_ids)


def restart_cycles(handed, n):
    """The vectors handed to gram, split at the restarts: the first cycle
    fills the basis, each later one its unkept half."""
    size = min(rapid_decay.LANCZOS_BASIS, n)
    lo, hi = 0, size
    while lo < len(handed):
        yield np.array(handed[lo:hi])
        lo, hi = hi, hi + size - max(1, size // 2)


def lanczos_corpus():
    """The RD_INPUTS compressions, the threshold cases above DENSE_COLS,
    and labs-shaped ones."""
    corpus = [(name, f, radius) for (name, f), radius in zip(THRESHOLD_CASES, (60, 4, 3))]
    for name, f in THRESHOLD_CASES:
        corpus.append((name, f, _radius_at_dense_threshold(parse_group(name), list(f), above=True)))
    return [pytest.param(*case, id=f"{case[0]}-r{case[2]}") for case in corpus + labs_shaped_cases()]


def labs_shaped_cases():
    """Seeded complex Gaussians on z2 at radii 10 and 12, f2 at 5, z at
    200, and 15 words of the sphere of radius 4 on f2 at 8."""
    rng = np.random.default_rng(21)
    cases = []
    for name, radius, pool in [("z2", 10, 3), ("z2", 12, 4), ("f2", 5, 2), ("z", 200, 5), ("f2", 8, None)]:
        group = parse_group(name)
        elems = group.sphere(4) if pool is None else group.ball(pool)
        picks = rng.choice(len(elems), 15 if pool is None else 6, replace=False)
        cases.append((name, {elems[i]: complex(*rng.normal(size=2)) for i in picks}, radius))
    return cases


@pytest.mark.parametrize("name,f,radius", lanczos_corpus())
def test_lanczos_matches_the_reference_solver(name, f, radius, monkeypatch):
    # the real Ritz problem with Gram-Schmidt twice takes the same steps
    # as the complex one with a conditional second pass
    got, _, _ = lanczos_solve(rapid_decay._lanczos_top, name, f, radius, monkeypatch)
    want, _, _ = lanczos_solve(reference.lanczos_top_reference, name, f, radius, monkeypatch)
    assert got[1] == want[1]
    assert got[0] == pytest.approx(want[0], rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "name,f,radius",
    [("z", {(0,): 100, (1,): 1e-3, (-3,): 1e-3j}, 300), ("z2", {(0, 0): 50, (1, 0): 0.01, (0, 2): 0.02j}, 14)],
)
def test_lanczos_reorthogonalizes_every_step(name, f, radius, monkeypatch):
    # alpha >> beta: a second pass run only when beta <= ||G v_j - alpha_j v_j|| / sqrt(2)
    # lost orthogonality to 1.8e-6 (z) and 2.7e-9 (z2); on z it stopped after
    # 3 applications at 100.00101 against the dense 100.00188
    got, handed, n = lanczos_solve(rapid_decay._lanczos_top, name, f, radius, monkeypatch)
    want, _, _ = lanczos_solve(reference.lanczos_top_reference, name, f, radius, monkeypatch)
    assert got[1] == want[1]
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0)
    for cycle in restart_cycles(handed, n):
        loss = float(np.abs(cycle.conj() @ cycle.T - np.eye(len(cycle))).max())
        assert loss <= 1e-12


STACK_GROUPS = {"z": 40, "z2": 6, "z3": 4, "f1": 12, "f2": 4, "f3": 3}


@pytest.mark.parametrize("name", sorted(STACK_GROUPS))
def test_translates_stack_the_single_translates(name):
    group = parse_group(name)
    radius = STACK_GROUPS[name]
    index = _ball_index(group, radius)
    gs = group.ball(2)
    stacked = index.translates(gs)
    assert stacked.shape == (len(gs), index.size)
    ball = group.ball(radius)
    position = {h: j for j, h in enumerate(ball)}
    for i, g in enumerate(gs):
        assert np.array_equal(stacked[i], reference.translate(index, g)), g
        assert stacked[i].tolist() == [position.get(reference.mul(group, g, h), -1) for h in ball], g


@pytest.mark.parametrize("name", sorted(STACK_GROUPS))
def test_compression_pattern_does_not_depend_on_the_chunk(name, monkeypatch):
    group = parse_group(name)
    index = _ball_index(group, STACK_GROUPS[name])
    rng = np.random.default_rng(5)
    pool = group.ball(3)
    support = [pool[i] for i in rng.choice(len(pool), min(len(pool), 11), replace=False)]
    patterns = []
    for chunk in (1, 3, len(support)):
        monkeypatch.setattr(index, "chunk", chunk)
        patterns.append(_Compression(index, support))
    for field in ("rows", "cols", "which", "row_ids", "col_ids"):
        for op in patterns[1:]:
            got, want = getattr(op, field), getattr(patterns[0], field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field


def test_large_balls_stack_few_translates():
    # 20 001 points: three translates per chunk, so seven support elements take three
    index = _ball_index(Z, 10_000)
    assert index.chunk == 3
    support = [(0,), (1,), (-3,), (7,), (-10_000,), (2,), (5_000,)]
    op = _Compression(index, support)
    cols = [np.flatnonzero(reference.translate(index, s) >= 0) for s in support]
    assert np.array_equal(op.which, np.repeat(np.arange(len(support)), [len(c) for c in cols]))
    assert np.array_equal(op.col_ids[op.cols], np.concatenate(cols))
    # a ball past STACK_ENTRIES moves one element at a time
    assert _ball_index(parse_group("f2"), 10).chunk == 1
