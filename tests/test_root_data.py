"""Integer root data against the Fraction construction.

build_root_system, subsystem, the grading check of build_pair, the K
lattice checks, fw_to_simple_coords and weyl_dimension run on integers
(Bareiss solves, integer rows and pairings). fraction_oracles keeps the
Fraction versions: Gauss-Jordan over Fraction, Fraction differences and
form values. Every field of every result is compared, value and type.
"""

import json
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracles as oracle
from dirac_atlas._linalg import bareiss_solve
from dirac_atlas.cli import EXIT_OK, main
from dirac_atlas.dirac import enumerate_discrete_series
from dirac_atlas.errors import DeskScaleError, ValidationError
from dirac_atlas.jsonutil import vec_str
from dirac_atlas.repring import weyl_dimension
from dirac_atlas.rootsys import (
    WEYL_MATERIALIZE_CAP,
    WeylOrder,
    build_root_system,
    fw_to_simple_coords,
    parse_cartan,
    subsystem,
    weight,
    weyl_elements,
)
from dirac_atlas.spinmod import _validate_grading, build_pair, catalog_names, get_pair, lattice_contains, load_catalog

SIMPLE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
PRODUCT_TYPES = ["A1xA1", "A2xG2", "B3xC3", "A1xD4", "G2xF4", "A1xA1xA1xB2"]
SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "A1xB2"]
FIELDS = ("cartan", "rank", "simple_roots", "positive_roots", "form", "rho")


def assert_same_root_system(rs, ref):
    for field in FIELDS:
        assert getattr(rs, field) == getattr(ref, field), field
    for field in ("simple_roots", "positive_roots", "form"):
        assert all(type(c) is F for row in getattr(rs, field) for c in row), field
    assert all(type(c) is F for c in rs.rho)


@pytest.mark.parametrize("name", SIMPLE_TYPES + PRODUCT_TYPES)
def test_integer_construction_matches_fraction_oracle(name):
    ct = parse_cartan(name)
    assert_same_root_system(build_root_system(ct), oracle.build_root_system(ct))


def simple_root_coords(rs):
    """Simple-root coordinates of each positive root, by the Fraction solve."""
    return [oracle.solve_left(rs.simple_roots, r) for r in rs.positive_roots]


@pytest.mark.parametrize("name", SIMPLE_TYPES)
def test_one_node_gradings_match_fraction_oracle(name):
    """Every marking by an even coefficient at one simple root (the
    inner involutions of Borel-de Siebenthal) builds the same pair as
    the Fraction grading check and subsystem."""
    g = build_root_system(parse_cartan(name))
    coords = simple_root_coords(g)
    for node in range(g.rank):
        compact = [r for r, k in zip(g.positive_roots, coords) if k[node] % 2 == 0]
        pair = build_pair(name, compact)
        oracle.validate_grading(g, set(compact))
        ref = oracle.subsystem(g, compact)
        assert_same_root_system(pair.k, ref)
        assert pair.compact_positive == ref.positive_roots
        assert pair.noncompact_positive == tuple(r for r in g.positive_roots if r not in set(compact))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_TYPES), st.data())
def test_grading_check_and_subsystem_refusals_match_fraction_oracle(name, data):
    g = build_root_system(parse_cartan(name))
    marked = data.draw(st.sets(st.integers(0, len(g.positive_roots) - 1)))
    compact = [g.positive_roots[j] for j in sorted(marked)]
    assert _outcome(_validate_grading, g, marked) == _outcome(oracle.validate_grading, g, set(compact))
    got, ref = _outcome(subsystem, g, compact), _outcome(oracle.subsystem, g, compact)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert_same_root_system(got, ref)


def test_subsystem_refuses_a_non_root_with_the_fraction_message():
    g = build_root_system(parse_cartan("A2"))
    roots = [weight([1, 1]), weight([3, 0]), weight([0, 3]), weight([1, 0])]
    # three non-roots: the message names the first in graded-lex order
    assert _outcome(subsystem, g, roots) == _outcome(oracle.subsystem, g, roots)
    assert _outcome(subsystem, g, roots).startswith("['1', '0'] is not a positive root")


LABEL = st.integers(-3, 3).map(F) | st.integers(-5, 5).map(lambda n: F(n, 2))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SIMPLE_TYPES + PRODUCT_TYPES), st.data())
def test_weyl_dimension_matches_the_fraction_product(name, data):
    rs = build_root_system(parse_cartan(name))
    mu = tuple(data.draw(st.lists(LABEL, min_size=rs.rank, max_size=rs.rank)))
    assert weyl_dimension(mu, rs) == oracle.weyl_dimension(mu, rs)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(catalog_names()), st.data())
def test_weyl_dimension_on_catalog_subsystems(name, data):
    k = get_pair(name).k
    mu = tuple(data.draw(st.lists(LABEL, min_size=k.rank, max_size=k.rank)))
    assert weyl_dimension(mu, k) == oracle.weyl_dimension(mu, k)


@pytest.mark.parametrize("name", SIMPLE_TYPES + PRODUCT_TYPES)
def test_rho_pairings_match_the_fraction_form(name):
    ct = parse_cartan(name)
    rs, ref = build_root_system(ct), oracle.build_root_system(ct)
    p, d = rs.integral.rho_pairings
    assert [F(x, d) for x in p] == [oracle.inner(ref.rho, a, ref) for a in ref.positive_roots]
    assert (p, d) == rs.integral.pairings(rs.rho)


def test_rho_pairings_of_catalog_subsystems():
    for name in catalog_names():
        k = get_pair(name).k
        assert k.integral.rho_pairings == k.integral.pairings(k.rho), name


ENTRY = st.integers(-4, 4)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(1, 5), st.data())
def test_bareiss_solve_matches_fraction_solve(m, n, data):
    rows = data.draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=m, max_size=m))
    if data.draw(st.booleans()) and m >= 2:
        # a dependent set: one row a combination of the others
        c = data.draw(st.lists(ENTRY, min_size=m - 1, max_size=m - 1))
        rows[-1] = [sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(n)]
    targets = data.draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=1, max_size=3))
    if rows and data.draw(st.booleans()):
        # a target inside the span
        c = data.draw(st.lists(ENTRY, min_size=m, max_size=m))
        targets.append([sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(n)])
    try:
        expected = [oracle.solve_left(rows, t) for t in targets]
    except ValueError:
        with pytest.raises(ValueError, match="dependent"):
            bareiss_solve(rows, targets)
        return
    solutions, d = bareiss_solve(rows, targets)
    assert d > 0
    assert [None if s is None else tuple(F(c, d) for c in s) for s in solutions] == expected


K_LATTICE_CASES = [
    # a dependent basis
    ("A2", [[1, 1], [2, 2]], "full rank"),
    ("A2", [[0, 0], [1, 0]], "full rank"),
    # a basis missing a root: (2, -1) is not in 2Z x 2Z
    ("A2", [[2, 0], [0, 2]], "contain the roots"),
    ("B2", [["1/2", 0], [0, "3/2"]], "contain the roots"),
    # fractional bases that contain the roots
    ("A2", [["1/2", "1/3"], [0, "1/3"]], None),
    ("A2", [["1/2", 0], [0, "1/2"]], None),
    ("G2", [[1, 0], ["1/3", "1/3"]], None),
]


@pytest.mark.parametrize("name,basis,match", K_LATTICE_CASES)
def test_k_lattice_checks_match_fraction_oracle(name, basis, match):
    g = build_root_system(parse_cartan(name))
    lattice = [tuple(F(c) for c in b) for b in basis]
    try:
        oracle.mat_inv(lattice)
        contains = all(oracle.lattice_contains(lattice, a) for a in g.simple_roots)
        expected = None if contains else "contain the roots"
    except ValueError:
        expected = "full rank"
    assert expected == match
    if match is None:
        assert build_pair(name, "all", k_lattice=lattice).k_lattice == tuple(lattice)
    else:
        with pytest.raises(ValidationError, match=match):
            build_pair(name, "all", k_lattice=lattice)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_lattice_contains_matches_fraction_oracle(n, data):
    entry = st.integers(-3, 3).map(F) | st.integers(-5, 5).map(lambda c: F(c, 2))
    vec = st.lists(entry, min_size=n, max_size=n).map(tuple)
    basis = tuple(data.draw(st.lists(vec, min_size=n, max_size=n)))
    w = data.draw(vec)
    try:
        expected = oracle.lattice_contains(basis, w)
    except ValueError:
        with pytest.raises(ValueError):
            lattice_contains(basis, w)
        return
    assert lattice_contains(basis, w) == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A2", "A3", "B3", "G2", "C3"]), st.data())
def test_fw_to_simple_coords_off_a_subsystems_span(name, data):
    g = build_root_system(parse_cartan(name))
    nodes = data.draw(st.sets(st.integers(0, g.rank - 1), max_size=g.rank - 1))
    # the Levi subsystem on those simple roots: the roots in their span
    outside = [i for i in range(g.rank) if i not in nodes]
    k = subsystem(g, [r for r, c in zip(g.positive_roots, simple_root_coords(g)) if not any(c[i] for i in outside)])
    x = tuple(data.draw(st.lists(LABEL, min_size=g.rank, max_size=g.rank)))
    expected = oracle.solve_left(k.simple_roots, x)
    assert fw_to_simple_coords(x, k) == expected
    assert fw_to_simple_coords(x, g) == oracle.solve_left(g.simple_roots, x)


def test_fw_to_simple_coords_returns_none_off_the_span():
    g = build_root_system(parse_cartan("A2"))
    k = subsystem(g, [g.simple_roots[0]])
    assert fw_to_simple_coords(weight([1, 0]), k) is None
    assert fw_to_simple_coords(weight([3, F(-3, 2)]), k) == (F(3, 2),)
    empty = subsystem(g, [])
    assert fw_to_simple_coords(weight([0, 0]), empty) == ()
    assert fw_to_simple_coords(weight([0, 1]), empty) is None


@pytest.fixture(scope="module")
def hermitian(tmp_path_factory):
    """A catalog file with E7, K = E6 x T (node 7), and E8, K = D8 (node 1),
    whose compact roots have an even coefficient at that node; and the pairs."""
    pairs = {}
    for name, cartan, node in (("e7h", "E7", 7), ("e8h", "E8", 1)):
        g = build_root_system(parse_cartan(cartan))
        compact = [r for r, k in zip(g.positive_roots, simple_root_coords(g)) if k[node - 1] % 2 == 0]
        pair = build_pair(cartan, compact)
        pairs[name] = (pair, {"cartan": cartan, "compact": [vec_str(r) for r in compact]})
    path = tmp_path_factory.mktemp("catalog") / "hermitian.json"
    path.write_text(json.dumps({"version": 1, "pairs": {n: entry for n, (_, entry) in pairs.items()}}))
    return str(path), {n: pair for n, (pair, _) in pairs.items()}


def test_ds_on_over_cap_weyl_groups_reads_no_weyl_element(hermitian, capsys, monkeypatch):
    path, pairs = hermitian
    load_catalog(path)
    message = f"Weyl group exceeds the materialization cap {WEYL_MATERIALIZE_CAP}"
    for pair in pairs.values():
        with pytest.raises(DeskScaleError, match=message):
            iter(weyl_elements(pair.g))
    monkeypatch.setattr(WeylOrder, "_elements", _never_read)
    for name, pair in pairs.items():
        # rho_g - rho_K is K-dominant and integral, and its parameter rho_g is regular
        hw = ",".join(str(1 - c) for c in pair.k.rho)
        enumerate_argv = ["ds", "enumerate", "--pair", name, "--bound", "4"]
        for argv in (enumerate_argv, ["ds", "induct", "--pair", name, "--hw", hw]):
            start = time.perf_counter()
            code = main([*argv, "--catalog", path])
            elapsed = time.perf_counter() - start
            out, err = capsys.readouterr()
            assert (code, err) == (EXIT_OK, ""), argv
            assert elapsed < 0.5, (argv, elapsed)
            if argv is enumerate_argv:
                assert json.loads(out)["count"] == 0  # (lambda, lambda) >= (rho, rho) > 4
            else:
                assert json.loads(out)["parameter"]["chamber_id"] == 0


def _never_read(order):
    pytest.fail(f"an element of the Weyl group of {order.rs.cartan} was read")


def test_ds_enumerate_on_e8_meets_the_lattice_box_cap(hermitian):
    with pytest.raises(DeskScaleError, match="enumeration box exceeds the cap"):
        enumerate_discrete_series(hermitian[1]["e8h"], 10**9)
