"""The JSON writer against its oracle, json.dumps(indent=2, sort_keys=True).

render_json writes every stdout document of the CLI; these tests pin it
byte for byte to the standard library's encoder on each leaf
subcommand's payload and schema, and on random JSON trees.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_atlas import cli
from dirac_atlas.cli import SCHEMAS, main
from dirac_atlas.jsonutil import render_json


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _leaves(tmp_path):
    spec = tmp_path / "class.json"
    spec.write_text(json.dumps({"blocks": [2, 1], "matrices": [[[0.5, 0.5], [0.5, 0.5]], [["1"]]]}))
    exact = tmp_path / "exact.json"
    exact.write_text(json.dumps({"blocks": [2], "matrices": [[["1/2", ["0", "1/2"]], [["0", "-1/2"], "1/2"]]]}))
    index = tmp_path / "index.json"
    index.write_text(json.dumps({"blocks": [1, 2], "e0": [3, 1], "e1": [2, 2], "u": [[[0, 0, 0], [0, 1, 0]], [[1], [0]]]}))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps([{"g": [1, 2], "re": 1.0, "im": -0.25}, {"g": [], "re": 0.5}]))
    return [
        ["rootsys", "info", "G2"],
        ["rep", "irr", "--type", "B2", "--hw", "1,1"],
        ["rep", "tensor", "--type", "A2", "--hw", "1,1", "--hw2", "1,0"],
        ["spin", "info", "--pair", "sp4r"],
        ["ds", "induct", "--pair", "su21", "--hw", "1,1"],
        ["ds", "induct", "--pair", "su21", "--hw", "0,0"],
        ["ds", "enumerate", "--pair", "su21", "--bound", "30"],
        ["ds", "enumerate", "--pair", "compact_d4", "--bound", "30", "--degree-roots", "simple"],
        ["ds", "enumerate", "--pair", "sl2c", "--bound", "10"],
        ["k0", "class", "--spec", str(spec)],
        ["k0", "class", "--spec", str(exact)],
        ["k0", "index", "--spec", str(index)],
        ["group", "wedderburn", "--name", "d4", "--seed", "1"],
        ["group", "idempotent", "--name", "s3", "--block", "2", "--seed", "1"],
        ["rd", "norms", "--group", "f2", "--s", "1", "--radius", "3", "--input", str(fn)],
        ["rd", "probe-unconditional", "--group", "z", "--trials", "2", "--seed", "1"],
        ["rd", "probe-rd", "--group", "z", "--s", "1", "--samples", "2", "--seed", "1"],
    ]


def test_every_leaf_output_and_schema_match_json_dumps(capsys, tmp_path, monkeypatch):
    payloads = []

    def recording(obj):
        payloads.append(obj)
        return render_json(obj)

    monkeypatch.setattr(cli, "render_json", recording)
    leaves = _leaves(tmp_path)
    assert {f"{argv[0]}.{argv[1]}" for argv in leaves} == set(SCHEMAS)
    for argv in leaves:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == oracle(payloads[-1]) + "\n", argv
        assert main(argv + ["--schema"]) == 0, argv
        assert payloads[-1] is SCHEMAS[f"{argv[0]}.{argv[1]}"]
        assert capsys.readouterr().out == oracle(payloads[-1]) + "\n", argv
    assert len(payloads) == 2 * len(leaves)


STRINGS = st.text() | st.sampled_from(["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", " ", "😀", "\ud800"])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, -(2**63) - 1, 10**40, -(10**40)])
    | st.floats()
    | st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf])
    | STRINGS
)
TREES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(STRINGS, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(STRINGS, kids, max_size=4)
    # keys of one other type each, so that they sort; both write them as strings
    | st.one_of(*(st.dictionaries(keys, kids, max_size=3) for keys in (st.integers(), st.floats(), st.booleans(), st.none()))),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_random_trees_match_json_dumps(tree):
    assert render_json(tree) == oracle(tree)


@pytest.mark.parametrize("obj", [Fraction(1, 2), {1, 2}, [b"x"], {"a": object()}, {(1, 2): 0}, {1: 0, "a": 1}])
def test_unwritable_values_raise_type_error_like_json_dumps(obj):
    with pytest.raises(TypeError):
        oracle(obj)
    with pytest.raises(TypeError):
        render_json(obj)
