"""Every desk-scale cap of dirac_atlas, and sentinel tests that prove its
refusal comes before the work it protects (ROADMAP item 14).

A source scan lists the module-level *_CAP constants; each must have an
entry in CAPS. An entry names either a sentinel test of this file or
the ROADMAP item that owns the cap until it has one. A sentinel test
runs an input just over the cap through cli.main, or through the library
call that still reaches the kernel when no CLI request does, while the
kernel the cap protects is replaced by a function that fails the test
when called: the run must exit 2 with one stderr line, or the call raise
the cap's error. The input at the cap must still succeed.
"""

import ast
import json
import re
from pathlib import Path

import pytest

from dirac_atlas import repring, rootsys
from dirac_atlas.cli import EXIT_OK, EXIT_VALIDATION, main
from dirac_atlas.errors import DeskScaleError

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dirac_atlas"

# (module, cap) -> its sentinel test in this file, or the item that owns it
CAPS = {
    ("rootsys", "RANK_CAP"): "test_rank_cap_refuses_before_the_roots",
    ("rootsys", "WEYL_MATERIALIZE_CAP"): "test_weyl_cap_refuses_iterating_e7_before_any_reflection_product",
    ("rootsys", "LATTICE_BOX_CAP"): "open: items 13 and 14",
    ("dirac", "ENUMERATION_OUTPUT_CAP"): "open: items 13 and 14",
    ("repring", "SUPPORT_CAP"): "owned by items 6 and 14: spin info is still refused from inside product",
    ("rapid_decay", "BALL_CAP"): "open: items 4 and 14",
    ("rapid_decay", "PROBE_COUNT_CAP"): "open: items 4 and 14",
    ("ktheory", "GROUP_ORDER_CAP"): "open: items 5 and 14",
    ("ktheory", "K0_ENTRY_CAP"): "open: items 11 and 14",
    ("ktheory", "K0_INDEX_WORK_CAP"): "open: items 11 and 14",
    ("ktheory", "K0_EXACT_WORK_CAP"): "open: items 11 and 14",
}


def _caps_in_source() -> set[tuple[str, str]]:
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.endswith("_CAP"):
                    found.add((path.stem, target.id))
    return found


def test_every_cap_has_an_entry():
    assert _caps_in_source() == set(CAPS)
    for cap, entry in CAPS.items():
        if entry.startswith("test_"):
            assert callable(globals().get(entry)), (cap, entry)
        else:
            assert re.match(r"(open:|owned by) items \d+ and \d+", entry), (cap, entry)


def _sentinel(what: str):
    def sentinel(*args, **kwargs):
        pytest.fail(f"{what} ran before the cap refused the input")

    return sentinel


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "argv",
    [
        ["rootsys", "info", "A23"],
        ["rootsys", "info", "B12xC11"],
        ["rep", "irr", "--type", "A23", "--hw", ",".join(["0"] * 23)],
    ],
)
def test_rank_cap_refuses_before_the_roots(capsys, monkeypatch, argv):
    monkeypatch.setattr(rootsys, "positive_roots_from_cartan", _sentinel("positive_roots_from_cartan"))
    code, out, err = _run(capsys, argv)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.count("\n") == 1 and f"exceeds the cap {rootsys.RANK_CAP}" in err


def test_rank_cap_admits_rank_22(capsys):
    code, out, err = _run(capsys, ["rootsys", "info", "A22"])
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["rank"] == rootsys.RANK_CAP == 22


@pytest.fixture(scope="module")
def exceptional_catalog(tmp_path_factory):
    """A catalog of the compact E6 pair (|W| = 51 840)."""
    path = tmp_path_factory.mktemp("caps") / "exceptional.json"
    pairs = {"compact_e6": {"cartan": "E6", "compact": "all"}}
    path.write_text(json.dumps({"version": 1, "pairs": pairs}))
    return str(path)


def test_weyl_cap_refuses_iterating_e7_before_any_reflection_product(monkeypatch):
    # no CLI request builds W: only iterating or indexing weyl_elements does
    monkeypatch.setattr(rootsys, "_materialize", _sentinel("_materialize"))
    order = rootsys.weyl_elements(rootsys.build_root_system(rootsys.parse_cartan("E7")))
    for read in (iter, lambda o: o[-1]):
        with pytest.raises(DeskScaleError) as refused:
            read(order)
        assert str(refused.value) == f"Weyl group exceeds the materialization cap {rootsys.WEYL_MATERIALIZE_CAP}"


def test_weyl_cap_admits_e6(capsys, monkeypatch, exceptional_catalog):
    e6 = rootsys.weyl_elements(rootsys.build_root_system(rootsys.parse_cartan("E6")))
    monkeypatch.setattr(rootsys, "WEYL_MATERIALIZE_CAP", 51_840)
    assert sum(1 for _ in e6) == len(e6) == 51_840
    monkeypatch.setattr(rootsys, "WEYL_MATERIALIZE_CAP", 51_839)
    with pytest.raises(DeskScaleError, match="materialization cap 51839"):
        iter(e6)
    # ds requests on E6 rank their chambers without reading an element of W
    monkeypatch.setattr(rootsys.WeylOrder, "_elements", _sentinel("WeylOrder._elements"))
    argv = ["ds", "enumerate", "--pair", "compact_e6", "--bound", "6", "--catalog", exceptional_catalog]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["pair"] == "compact_e6" and json.loads(out)["count"] == 0
    argv = ["ds", "induct", "--pair", "compact_e6", "--hw", "0,0,0,0,0,0", "--catalog", exceptional_catalog]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["parameter"]["chamber_id"] == 0


# E7 labels: the 56 is minuscule (its support is its orbit), and the
# orbit of E7_OVER has 120 960 weights; E7_RHO is far larger than both.
E7_56, E7_OVER, E7_RHO = "0,0,0,0,0,0,1", "0,0,0,1,0,1,1", "1,1,1,1,1,1,1"


def _forbid_rep_work(monkeypatch):
    monkeypatch.setattr(repring, "_dominant_multiplicities", _sentinel("_dominant_multiplicities"))
    monkeypatch.setattr(repring, "make_dominant", _sentinel("make_dominant"))


@pytest.mark.parametrize("labels", [(E7_OVER, E7_RHO), (E7_RHO, E7_OVER)])
def test_support_cap_refuses_rep_tensor_before_the_tables(capsys, monkeypatch, labels):
    # the smaller factor's orbit is over the cap; the larger one's is never counted
    _forbid_rep_work(monkeypatch)
    code, out, err = _run(capsys, ["rep", "tensor", "--type", "E7", "--hw", labels[0], "--hw2", labels[1]])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == f"error: the Weyl orbit of {E7_OVER.split(',')} has 120960 weights, over the character support cap {repring.SUPPORT_CAP}\n"


def test_support_cap_admits_rep_tensor_at_the_cap(capsys, monkeypatch):
    argv = ["rep", "tensor", "--type", "E7", "--hw", E7_RHO, "--hw2", E7_56]
    monkeypatch.setattr(repring, "SUPPORT_CAP", 56)
    code, out, err = _run(capsys, argv)
    assert (code, err) == (EXIT_OK, "")
    assert len(json.loads(out)["decomposition"]) == 56
    monkeypatch.setattr(repring, "SUPPORT_CAP", 55)
    _forbid_rep_work(monkeypatch)
    code, out, err = _run(capsys, argv)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.count("\n") == 1 and "has 56 weights, over the character support cap 55" in err
