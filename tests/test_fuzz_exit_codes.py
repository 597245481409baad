"""Exit-code fuzz test over the contents of the CLI's JSON input files.

Random JSON, and random near-valid shapes that reach past the first
type checks, are written to the file behind one argument of a CLI
call. Whatever the contents, the call ends in exit 0, 2 or 3; a
failure writes one stderr line, and no traceback.
"""

import collections
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dirac_atlas.cli import main

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-1e6, 1e6)
    | st.sampled_from([1e300, float("nan"), float("inf"), 2**70])
    | st.text(max_size=3)
    | st.sampled_from(["all", "A1", "A2", "1/2", "-1", "0", "x", "1/0"])
)
KEYS = st.text(max_size=2) | st.sampled_from(
    ["g", "re", "im", "blocks", "matrices", "e0", "e1", "u", "version", "pairs", "cartan", "compact", "k_lattice",
     "equal_rank", "dim_g_mod_k", "description"]
)
JSON = st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(KEYS, kids, max_size=4), max_leaves=10)


def mostly(good, bad=JSON):
    """good seven times in eight, else bad: most examples get past the
    first checks, and every check still meets bad values."""
    return st.sampled_from([good] * 7 + [bad]).flatmap(lambda strategy: strategy)


NUMBER = st.integers(-3, 3) | st.floats(-1e6, 1e6)
COEFFS = {"re": mostly(NUMBER, SCALARS), "im": mostly(NUMBER, SCALARS)}


def _group_function(element):
    entry = st.fixed_dictionaries({"g": mostly(element, SCALARS | st.lists(SCALARS, max_size=2))}, optional=COEFFS)
    return mostly(st.lists(mostly(entry), max_size=4))


LETTER = st.sampled_from([1, -1, 2, -2])
COORD = mostly(st.sampled_from(["0", "1", "2", "-1", "1/2", "-3/2"]), SCALARS)
VECTORS = mostly(st.lists(st.lists(COORD, min_size=1, max_size=3), max_size=3))
CATALOG_ENTRY = st.fixed_dictionaries(
    {"cartan": mostly(st.sampled_from(["A1", "A2", "B2", "C2", "G2", "A1xA1", "H3", "A0", "B1"])),
     "compact": mostly(st.just("all") | VECTORS)},
    optional={
        "k_lattice": VECTORS,
        "equal_rank": mostly(st.booleans()),
        "dim_g_mod_k": mostly(st.integers(-1, 4)),
        "description": st.text(max_size=3) | JSON,
    },
)
CATALOG = mostly(st.fixed_dictionaries({"version": st.just(1), "pairs": mostly(st.fixed_dictionaries({"p": mostly(CATALOG_ENTRY)}))}))


def _square(entry, sizes=st.integers(0, 3)):
    return sizes.flatmap(lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


ENTRY = mostly(st.one_of(NUMBER, st.sampled_from(["1/2", "-1", "3"]), st.lists(NUMBER | st.just("1/2"), min_size=2, max_size=2)), SCALARS)


def _spec(keys):
    """A k0 spec: one block list, and per block one entry of each key (ints or matrices)."""
    def build(n):
        fields = {key: mostly(st.lists(value, min_size=n, max_size=n)) for key, value in keys.items()}
        fields["blocks"] = mostly(st.lists(mostly(st.integers(1, 2), SCALARS), min_size=n, max_size=n))
        return st.fixed_dictionaries(fields)
    return mostly(st.integers(1, 3).flatmap(build))


K0_CLASS = _spec({"matrices": mostly(_square(ENTRY))})
K0_INDEX = _spec({"e0": mostly(st.integers(0, 2)), "e1": mostly(st.integers(0, 2)), "u": mostly(st.lists(st.lists(ENTRY, max_size=2), max_size=2))})
TABLE = mostly(st.integers(1, 4).flatmap(lambda n: _square(mostly(st.integers(-1, n), SCALARS), st.just(n))))

# target -> (argv with {f} for the file, contents)
TARGETS = {
    "rd-norms-z2": (["rd", "norms", "--group", "z2", "--s", "1", "--input", "{f}", "--radius", "3"],
                    _group_function(mostly(st.lists(st.integers(-2, 2), min_size=2, max_size=2), st.lists(st.integers(-2, 2))))),
    "rd-norms-f2": (["rd", "norms", "--group", "f2", "--s", "1", "--input", "{f}", "--radius", "3"],
                    _group_function(st.lists(LETTER, max_size=4))),
    "catalog-spin": (["spin", "info", "--pair", "p", "--catalog", "{f}"], CATALOG),
    "catalog-ds": (["ds", "enumerate", "--pair", "p", "--bound", "6", "--catalog", "{f}"], CATALOG),
    "k0-class": (["k0", "class", "--spec", "{f}"], K0_CLASS),
    "k0-index": (["k0", "index", "--spec", "{f}"], K0_INDEX),
    "group-table": (["group", "wedderburn", "--table", "{f}", "--seed", "0"], TABLE),
}
_COUNTER = itertools.count()


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_input_files_exit_0_2_or_3_without_traceback(target, tmp_path_factory):
    argv, contents = TARGETS[target]
    workdir = tmp_path_factory.mktemp(target)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=contents)
    def run(data):
        # a fresh path per example: the catalog is cached by path
        path = workdir / f"{next(_COUNTER)}.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(f=path) for a in argv])
        message = err.getvalue()
        assert code in (0, 2, 3), (code, message)
        assert "Traceback" not in message
        if code:
            assert message.count("\n") == 1 and out.getvalue() == "", message

    run()


# Float k0 class specs whose p @ p overflows; the first was drawn by the
# test above, the second makes the error nan. In a plain interpreter
# numpy would print a RuntimeWarning, with its source line, for each
# overflow; pytest records warnings instead, so these run as a process.
OVERFLOWING_SPECS = [
    {"blocks": [2], "matrices": [[[-134372.63867525104, 1.0], ["1/2", 1e300]]]},
    {"blocks": [2], "matrices": [[[1e300, 1e300], [1e300, [0, 1e300]]]]},
]


@pytest.mark.parametrize("spec", OVERFLOWING_SPECS)
def test_overflowing_float_spec_exits_2_with_one_stderr_line(spec, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "dirac_atlas.cli", "k0", "class", "--spec", str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: element is not idempotent"), proc.stderr


# --- argv values -------------------------------------------------------------
#
# Each leaf subcommand gets hypothesis-drawn values for its flags, passed as
# --flag=value so that values starting with "-" reach the program. Every
# value meets the hostile cases: zero, negative, huge, 1/0, nan, inf, empty.
# Sizes stay small, or big enough that a desk-scale cap refuses them at once.

HOSTILE = st.sampled_from(["0", "-1", "-7", "1" + "0" * 30, "1e308", "1/0", "nan", "inf", "-inf", "", "x"])


def value(*good):
    return mostly(st.sampled_from(list(good)), HOSTILE)


CARTAN = value("A1", "A2", "B2", "C3", "G2", "A1xA1", "A1xG2", "A0", "E9", "Z3", "A23", "A1xx", "x2")
PAIR = value("sl2r", "su21", "sp4r", "sl2c", "compact_a1", "compact_a2", "compact_b2", "compact_g2", "nope")
COORDS = st.lists(value("0", "1", "2", "1/2", "-3/2", "3/4", "1" + "0" * 12), max_size=3).map(",".join)
BOUND = value("0", "1", "9/2", "20", "60", "-1/2", "1e30")
GROUP = value("z1", "z2", "z6", "s3", "s4", "d4", "q8", "z0", "z-3", "z2000", "z1000000000", "zz")
BLOCK = value("0", "1", "2", "4", "99")
RD_GROUP = value("z", "z2", "f2", "f3", "z0", "f0", "z1000000", "f1000000", "s3")
REAL = value("0", "1", "2", "0.5", "3", "-0.5", "1e-300", "1e300", "100")
SMALL_COUNT = value("1", "2", "3")
SEED = value("0", "1", "7", "-1", "-5", "18446744073709551616")
NORM = value("l1", "hs", "reduced_truncated")
DEGREE_ROOTS = value("positive", "simple")
FORMAT = value("json", "table")
SPEC = {key: value("{%s}" % key, "{missing}", "{dir}") for key in ("k0_class", "k0_index", "table", "z_function")}


def flag(name, values, required=False):
    """[--name=value]; a flag that is not required may also be left out."""
    given_flag = values.map(lambda v: [f"--{name}={v}"])
    return given_flag if required else st.one_of(given_flag, st.just([]))


def command(head, *flags):
    return st.tuples(*flags).map(lambda parts: head + [a for part in parts for a in part])


ARGV = {
    "rootsys-info": command(["rootsys", "info"], flag("format", FORMAT), CARTAN.map(lambda t: ["--", t])),
    "rep-irr": command(["rep", "irr"], flag("type", CARTAN, True), flag("hw", COORDS, True)),
    "rep-tensor": command(["rep", "tensor"], flag("type", CARTAN, True), flag("hw", COORDS, True),
                          flag("hw2", COORDS, True)),
    "spin-info": command(["spin", "info"], flag("pair", PAIR, True), flag("format", FORMAT)),
    "ds-induct": command(["ds", "induct"], flag("pair", PAIR, True), flag("hw", COORDS, True),
                         flag("degree-roots", DEGREE_ROOTS)),
    "ds-enumerate": command(["ds", "enumerate"], flag("pair", PAIR, True), flag("bound", BOUND, True),
                            flag("degree-roots", DEGREE_ROOTS)),
    "k0-class": command(["k0", "class"], flag("spec", SPEC["k0_class"], True)),
    "k0-index": command(["k0", "index"], flag("spec", SPEC["k0_index"], True)),
    "group-wedderburn": command(["group", "wedderburn"], flag("name", GROUP), flag("table", SPEC["table"]),
                                flag("seed", SEED, True)),
    "group-idempotent": command(["group", "idempotent"], flag("name", GROUP), flag("table", SPEC["table"]),
                                flag("block", BLOCK, True), flag("seed", SEED, True)),
    "rd-norms": command(["rd", "norms"], flag("group", RD_GROUP, True), flag("s", REAL, True),
                        flag("radius", REAL, True), flag("input", SPEC["z_function"], True)),
    "rd-probe-unconditional": command(["rd", "probe-unconditional"], flag("group", RD_GROUP, True), flag("norm", NORM),
                                      flag("s", REAL), flag("radius", REAL), flag("trials", SMALL_COUNT, True),
                                      flag("seed", SEED, True)),
    "rd-probe-rd": command(["rd", "probe-rd"], flag("group", RD_GROUP, True), flag("s", REAL, True),
                           flag("samples", SMALL_COUNT, True), flag("seed", SEED, True)),
}
FILES = {
    "k0_class": {"blocks": [1, 2], "matrices": [[[1]], [[1, 0], [0, 0]]]},
    "k0_index": {"blocks": [1], "e0": [1], "e1": [1], "u": [[[1]]]},
    "table": [[0, 1], [1, 0]],
    "z_function": [{"g": [0], "re": 1.0}, {"g": [1], "re": -0.5, "im": 2}],
}


def run_argv(argv):
    """(exit code, stdout, stderr) of one in-process call; argparse exits by SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("leaf", sorted(ARGV))
def test_argv_values_exit_0_2_or_3_without_traceback(leaf, tmp_path):
    paths = {"missing": str(tmp_path / "does-not-exist.json"), "dir": str(tmp_path)}
    for name, data in FILES.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    reached = collections.Counter()

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=ARGV[leaf])
    def run(argv):
        code, out, err = run_argv([a.format(**paths) if "{" in a else a for a in argv])
        # past the parser: a result, or a refusal by the program itself
        reached[code == 0 or not err.startswith("dirac-atlas")] += 1
        assert code in (0, 2, 3), (code, err)
        assert "Traceback" not in err
        if code:
            assert err.count("\n") == 1 and out == "", err

    run()
    # draws reach the program, not only its argument parser
    assert reached[True] >= 5, reached
