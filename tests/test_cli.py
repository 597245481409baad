"""CLI contract tests: examples, determinism, exit codes, schemas."""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import jsonschema
import pytest

from dirac_atlas.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, SCHEMAS, main
from dirac_atlas.jsonutil import vec_str
from dirac_atlas.ktheory import K0_ENTRY_CAP, K0_INDEX_WORK_CAP, dihedral_table
from dirac_atlas.repring import SUPPORT_CAP
from dirac_atlas.rootsys import build_root_system, fw_to_simple_coords, parse_cartan
from dirac_atlas.spinmod import catalog_names, get_pair


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


def test_enumerate_sl2c_empty(capsys):
    payload = run_json(capsys, "ds", "enumerate", "--pair", "sl2c", "--bound", "100")
    assert payload["count"] == 0 and payload["parameters"] == []
    jsonschema.validate(payload, SCHEMAS["ds.enumerate"])


def test_induct_sl2r_three_halves(capsys):
    payload = run_json(capsys, "ds", "induct", "--pair", "sl2r", "--hw", "3/2")
    assert payload["ok"] is True
    assert payload["parameter"]["formal_degree"] == "3/2"
    jsonschema.validate(payload, SCHEMAS["ds.induct"])


def test_rootsys_info_g2(capsys):
    payload = run_json(capsys, "rootsys", "info", "G2")
    assert payload["num_positive_roots"] == 6
    assert len(payload["rootsys"]["positive_roots"]) == 6
    jsonschema.validate(payload, SCHEMAS["rootsys.info"])


def test_byte_identical_invocations(capsys):
    _, out1, _ = run_cli(capsys, "ds", "enumerate", "--pair", "su21", "--bound", "25")
    _, out2, _ = run_cli(capsys, "ds", "enumerate", "--pair", "su21", "--bound", "25")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "group", "wedderburn", "--name", "s3", "--seed", "0")
    _, out4, _ = run_cli(capsys, "group", "wedderburn", "--name", "s3", "--seed", "0")
    assert out3 == out4


def test_unknown_pair_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "ds", "induct", "--pair", "nope", "--hw", "1")
    assert code == EXIT_VALIDATION
    assert "unknown pair" in err


def test_seed_required_for_randomized_subcommands(capsys, tmp_path):
    code, _, err = run_cli(capsys, "group", "wedderburn", "--name", "s3")
    assert code == EXIT_VALIDATION
    assert "--seed" in err
    f = tmp_path / "f.json"
    f.write_text(json.dumps([{"g": [0], "re": 1.0, "im": 0.0}]))
    code, _, err = run_cli(
        capsys, "rd", "probe-rd", "--group", "z", "--s", "1", "--samples", "2"
    )
    assert code == EXIT_VALIDATION


def test_seed_via_config_is_accepted(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0}))
    payload = run_json(
        capsys, "group", "wedderburn", "--name", "s3", "--config", str(cfg)
    )
    assert payload["blocks"] == [1, 1, 2]
    jsonschema.validate(payload, SCHEMAS["group.wedderburn"])


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sneaky": True}))
    code, _, err = run_cli(capsys, "rootsys", "info", "A1", "--config", str(cfg))
    assert code == EXIT_VALIDATION
    assert "unknown config keys" in err


def test_numerical_ambiguity_exit_code(capsys, tmp_path):
    # loosening the idempotency tolerance exposes the spectral gap test
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"blocks": [1], "matrices": [[[0.5]]]}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1.0}))
    code, _, err = run_cli(
        capsys, "k0", "class", "--spec", str(spec), "--config", str(cfg)
    )
    assert code == EXIT_NUMERICAL
    assert "ambig" in err.lower()


def test_k0_class_exact_and_float(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {"blocks": [2], "matrices": [[["1/2", "1/2"], ["1/2", "1/2"]]]}
        )
    )
    payload = run_json(capsys, "k0", "class", "--spec", str(spec))
    assert payload == {"blocks": [2], "ranks": [1], "exact": True}
    jsonschema.validate(payload, SCHEMAS["k0.class"])
    spec.write_text(
        json.dumps({"blocks": [1, 2], "matrices": [[[1.0]], [[0.0, 0.0], [0.0, 0.0]]]})
    )
    payload = run_json(capsys, "k0", "class", "--spec", str(spec))
    assert payload["ranks"] == [1, 0] and payload["exact"] is False


def test_k0_index_cli(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "blocks": [1],
                "e0": [3],
                "e1": [2],
                "u": [[[0, 0, 0], [0, 0, 0]]],
            }
        )
    )
    payload = run_json(capsys, "k0", "index", "--spec", str(spec))
    assert payload["index"] == [1] and payload["agree"] is True
    jsonschema.validate(payload, SCHEMAS["k0.index"])


def test_spin_info(capsys):
    payload = run_json(capsys, "spin", "info", "--pair", "su21")
    assert payload["dim_s_plus"] == 2 and payload["dim_s_minus"] == 2
    assert payload["lifts_on_double_cover"] is True
    jsonschema.validate(payload, SCHEMAS["spin.info"])
    payload = run_json(capsys, "spin", "info", "--pair", "sl2c")
    assert payload["equal_rank"] is False and payload["dim_s_plus"] is None
    jsonschema.validate(payload, SCHEMAS["spin.info"])


def test_rep_commands(capsys):
    payload = run_json(capsys, "rep", "irr", "--type", "A2", "--hw", "1,1")
    assert payload["dimension"] == 8 and payload["weyl_dimension"] == "8"
    jsonschema.validate(payload, SCHEMAS["rep.irr"])
    payload = run_json(
        capsys, "rep", "tensor", "--type", "A1", "--hw", "1", "--hw2", "1"
    )
    assert payload["decomposition"] == [
        {"weight": ["0"], "mult": 1},
        {"weight": ["2"], "mult": 1},
    ]
    jsonschema.validate(payload, SCHEMAS["rep.tensor"])


def test_group_idempotent_cli(capsys):
    payload = run_json(
        capsys, "group", "idempotent", "--name", "s3", "--block", "2", "--seed", "0"
    )
    assert payload["block_dimension"] == 2
    assert payload["idempotency_error"] <= 1e-9
    assert payload["k0_class"] == [0, 0, 1]
    jsonschema.validate(payload, SCHEMAS["group.idempotent"])


def test_rd_cli_commands(capsys, tmp_path):
    f = tmp_path / "f.json"
    f.write_text(
        json.dumps(
            [
                {"g": [0], "re": 1.0, "im": 0.0},
                {"g": [1], "re": 1.0, "im": 0.0},
                {"g": [2], "re": 1.0, "im": 0.0},
            ]
        )
    )
    payload = run_json(
        capsys,
        "rd", "norms", "--group", "z", "--s", "1", "--input", str(f), "--radius", "30",
    )
    assert payload["l1"] == 3.0
    assert payload["red_lower"] <= payload["red_upper"] == 3.0
    jsonschema.validate(payload, SCHEMAS["rd.norms"])
    payload = run_json(
        capsys,
        "rd", "probe-unconditional", "--group", "z", "--norm", "l1",
        "--input", str(f), "--trials", "10", "--seed", "1",
    )
    assert payload["max_deviation"] <= 1e-12
    jsonschema.validate(payload, SCHEMAS["rd.probe-unconditional"])
    payload = run_json(
        capsys,
        "rd", "probe-rd", "--group", "z", "--s", "1", "--samples", "3", "--seed", "2",
    )
    assert payload["max_ratio"] > 0
    jsonschema.validate(payload, SCHEMAS["rd.probe-rd"])


def test_schema_flag(capsys):
    code, out, _ = run_cli(capsys, "ds", "enumerate", "--pair", "sl2r", "--bound", "1", "--schema")
    assert code == EXIT_OK
    assert json.loads(out) == SCHEMAS["ds.enumerate"]


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "rootsys", "info", "A1", "--format", "table")
    assert code == EXIT_OK
    assert "num_positive_roots: 1" in out


def test_custom_catalog_flag(capsys, tmp_path):
    cat = tmp_path / "cat.json"
    cat.write_text(
        json.dumps(
            {"version": 1, "pairs": {"only": {"cartan": "A1", "compact": "all"}}}
        )
    )
    payload = run_json(
        capsys, "spin", "info", "--pair", "only", "--catalog", str(cat)
    )
    assert payload["pair"] == "only"
    code, _, err = run_cli(capsys, "spin", "info", "--pair", "sl2r", "--catalog", str(cat))
    assert code == EXIT_VALIDATION


def test_weight_denominators_restricted_to_powers_of_two(capsys):
    code, _, err = run_cli(capsys, "ds", "induct", "--pair", "sl2r", "--hw", "1/3")
    assert code == EXIT_VALIDATION
    assert "powers of 2" in err
    payload = run_json(capsys, "ds", "induct", "--pair", "sl2r", "--hw", "5/4")
    assert payload["parameter"]["formal_degree"] == "5/4"


def test_rd_norms_free_group(capsys, tmp_path):
    f = tmp_path / "f.json"
    f.write_text(
        json.dumps(
            [
                {"g": [], "re": 1.0, "im": 0.0},
                {"g": [1], "re": 1.0, "im": 0.0},
                {"g": [2], "re": 1.0, "im": 0.0},
            ]
        )
    )
    payload = run_json(
        capsys,
        "rd", "norms", "--group", "f2", "--s", "2", "--input", str(f), "--radius", "8",
    )
    assert payload["l1"] == 3.0
    assert payload["red_lower"] <= 3.0 + 1e-9
    jsonschema.validate(payload, SCHEMAS["rd.norms"])


def test_probe_unconditional_default_input(capsys):
    # the documented invocation works without an input file
    payload = run_json(capsys, "rd", "probe-unconditional", "--group", "z", "--seed", "42")
    assert payload["trials"] == 100 and payload["seed"] == 42
    assert payload["base_value"] > 0
    jsonschema.validate(payload, SCHEMAS["rd.probe-unconditional"])


def test_group_table_ingestion(capsys, tmp_path):
    from dirac_atlas.ktheory import symmetric_table

    table = tmp_path / "table.json"
    table.write_text(json.dumps(symmetric_table(3).tolist()))
    payload = run_json(
        capsys, "group", "wedderburn", "--table", str(table), "--seed", "0"
    )
    assert payload["blocks"] == [1, 1, 2] and payload["order"] == 6


def test_catalog_env_var(capsys, tmp_path, monkeypatch):
    from dirac_atlas.spinmod import CATALOG_ENV_VAR

    cat = tmp_path / "envcat.json"
    cat.write_text(
        json.dumps({"version": 1, "pairs": {"envpair": {"cartan": "A1", "compact": "all"}}})
    )
    monkeypatch.setenv(CATALOG_ENV_VAR, str(cat))
    payload = run_json(capsys, "spin", "info", "--pair", "envpair")
    assert payload["pair"] == "envpair"


def test_degree_roots_flag(capsys):
    payload = run_json(
        capsys,
        "ds", "induct", "--pair", "compact_a2", "--hw", "1,0", "--degree-roots", "simple",
    )
    assert payload["parameter"]["formal_degree"] == "2"
    payload = run_json(
        capsys, "ds", "induct", "--pair", "compact_a2", "--hw", "1,0"
    )
    assert payload["parameter"]["formal_degree"] == "3"


def _write_catalog(path, pair):
    path.write_text(json.dumps({"version": 1, "pairs": {pair: {"cartan": "A1", "compact": "all"}}}))
    return str(path)


def test_spin_info_on_exceptional_hermitian_pairs(capsys, tmp_path):
    """E6 with K = A5 x A1 (node 2) and E8 with K = D8 (node 1): a root is
    compact when its simple-root coefficient at the node is even. E6 expands
    2^20 sign vectors into a support under the cap; E8 (n+ = 64) is refused."""
    pairs = {}
    for name, cartan, node in (("e6h", "E6", 2), ("e8h", "E8", 1)):
        g = build_root_system(parse_cartan(cartan))
        compact = [r for r in g.positive_roots if fw_to_simple_coords(r, g)[node - 1] % 2 == 0]
        pairs[name] = {"cartan": cartan, "compact": [vec_str(r) for r in compact]}
    cat = tmp_path / "hermitian.json"
    cat.write_text(json.dumps({"version": 1, "pairs": pairs}))
    payload = run_json(capsys, "spin", "info", "--pair", "e6h", "--catalog", str(cat))
    assert payload["n_noncompact_positive"] == 20
    assert payload["dim_s_plus"] == payload["dim_s_minus"] == 524288
    code, out, err = run_cli(capsys, "spin", "info", "--pair", "e8h", "--catalog", str(cat))
    assert code == EXIT_VALIDATION and out == ""
    assert err.count("\n") == 1 and f"character support exceeds the cap {SUPPORT_CAP}" in err
    assert "Traceback" not in err


def test_flags_override_the_config(capsys, tmp_path):
    cat_a = _write_catalog(tmp_path / "a.json", "pair_a")
    cat_b = _write_catalog(tmp_path / "b.json", "pair_b")
    cat_cfg = tmp_path / "catalog.json"
    cat_cfg.write_text(json.dumps({"catalog": cat_a}))
    with_cat = ("--config", str(cat_cfg))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "table", "degree_roots": "simple", "seed": 3}))
    with_cfg = ("--config", str(cfg))

    # catalog: the config's without a flag, the flag's with one; an empty flag is not given
    assert run_json(capsys, "spin", "info", "--pair", "pair_a", *with_cat)["pair"] == "pair_a"
    code, _, err = run_cli(capsys, "spin", "info", "--pair", "pair_a", "--catalog", cat_b, *with_cat)
    assert code == EXIT_VALIDATION and "unknown pair" in err
    assert run_json(capsys, "spin", "info", "--pair", "pair_b", "--catalog", cat_b, *with_cat)["pair"] == "pair_b"
    assert run_json(capsys, "spin", "info", "--pair", "pair_a", "--catalog", "", *with_cat)["pair"] == "pair_a"

    # format: table from the config, json from the flag
    code, out, _ = run_cli(capsys, "rootsys", "info", "A1", *with_cfg)
    assert code == EXIT_OK and out.startswith("cartan: A1\n")
    assert run_json(capsys, "rootsys", "info", "A1", "--format", "json", *with_cfg)["cartan"] == "A1"

    # degree_roots: simple from the config, positive from the flag
    induct = ("ds", "induct", "--pair", "compact_a2", "--hw", "1,0", "--format", "json")
    assert run_json(capsys, *induct, *with_cfg)["parameter"]["formal_degree"] == "2"
    payload = run_json(capsys, *induct, "--degree-roots", "positive", *with_cfg)
    assert payload["parameter"]["formal_degree"] == "3"
    enumerate_ = ("ds", "enumerate", "--pair", "compact_a2", "--bound", "20", "--format", "json")
    assert run_json(capsys, *enumerate_, *with_cfg)["degree_roots"] == "simple"
    assert run_json(capsys, *enumerate_, "--degree-roots", "positive", *with_cfg)["degree_roots"] == "positive"

    # seed: 3 from the config; a flag of 0 is given, not ignored as falsy
    wedderburn = ("group", "wedderburn", "--name", "s3", "--format", "json")
    assert run_json(capsys, *wedderburn, *with_cfg)["seed"] == 3
    assert run_json(capsys, *wedderburn, "--seed", "0", *with_cfg)["seed"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["rd", "norms", "--group", "z", "--s", "1", "--radius", "-5"],
        ["rd", "probe-unconditional", "--group", "z", "--norm", "reduced_truncated", "--radius", "-3", "--seed", "1"],
        # l1 reads neither --radius nor --s, yet echoes both
        ["rd", "probe-unconditional", "--group", "z", "--norm", "l1", "--radius", "-3", "--trials", "2", "--seed", "1"],
        ["rd", "probe-unconditional", "--group", "z", "--norm", "l1", "--s", "-4", "--trials", "2", "--seed", "1"],
    ],
)
@pytest.mark.parametrize("items", [[], [{"g": [1], "re": 1.0}]])
def test_rd_negative_radius_refused(capsys, tmp_path, argv, items):
    f = tmp_path / "f.json"
    f.write_text(json.dumps(items))
    code, out, err = run_cli(capsys, *argv, "--input", str(f))
    negative = next(i for i, a in enumerate(argv) if a[:1] == "-" and a[1:].isdigit())
    name = argv[negative - 1].lstrip("-")
    assert code == EXIT_VALIDATION and out == ""
    assert err.startswith(f"error: {name} must be a nonnegative finite number") and err.count("\n") == 1


_MALFORMED = '{"blocks": [1], "matrices": '
_CAP_SIDE = math.isqrt(K0_ENTRY_CAP)
assert _CAP_SIDE**2 == K0_ENTRY_CAP
# e1 of an empty u whose identity and completed operator (2 e1^2 entries) fill the work cap
_WORK_SIDE = math.isqrt(K0_INDEX_WORK_CAP // 2)
assert 2 * _WORK_SIDE**2 == K0_INDEX_WORK_CAP
_DELTA = '[{"g": [0], "re": 1.0}]'


@pytest.mark.parametrize(
    "argv,files",
    [
        (["k0", "class", "--spec", "{missing}"], {}),
        (["k0", "class", "--spec", "{bad}"], {"bad": _MALFORMED}),
        (["k0", "index", "--spec", "{bad}"], {"bad": _MALFORMED}),
        (["group", "wedderburn", "--table", "{bad}", "--seed", "0"], {"bad": "[[0, 1], [1"}),
        (["rd", "norms", "--group", "z", "--s", "1", "--input", "{bad}", "--radius", "2"], {"bad": "[{"}),
        (["rd", "norms", "--group", "z", "--s", "1", "--input", "{missing}", "--radius", "2"], {}),
        (["rootsys", "info", "A1", "--config", "{missing}"], {}),
        (["rootsys", "info", "A1", "--config", "{bad}"], {"bad": "{"}),
        (["group", "wedderburn", "--name", "s3", "--config", "{cfg}"], {"cfg": '{"seed": "abc"}'}),
        (["group", "wedderburn", "--name", "s3", "--config", "{cfg}"], {"cfg": '{"seed": true}'}),
        (["rootsys", "info", "A1", "--config", "{cfg}"], {"cfg": '{"tol": -1}'}),
        (["rootsys", "info", "A1", "--config", "{cfg}"], {"cfg": '{"rank_gap": "1e-6"}'}),
        (["rootsys", "info", "A1", "--config", "{cfg}"], {"cfg": '{"power_tol": 0}'}),
        (["rootsys", "info", "A1", "--config", "{cfg}"], {"cfg": '{"power_tol": false}'}),
        (["spin", "info", "--pair", "su21", "--config", "{cfg}"], {"cfg": '{"catalog": 5}'}),
        (["k0", "index", "--spec", "{bad}"], {"bad": '{"blocks": [1], "e0": [2], "e1": [3], "u": [[1, 2, 3, 4]]}'}),
        (["k0", "class", "--spec", "{bad}"], {"bad": '{"blocks": ["x"], "matrices": [[[1]]]}'}),
        (["group", "wedderburn", "--table", "{bad}", "--seed", "0"], {"bad": "[[0, 1], [0]]"}),
        (["group", "wedderburn", "--table", "{bad}", "--seed", "0"], {"bad": '[["a", "b"], ["b", "a"]]'}),
        (["group", "wedderburn", "--table", "{bad}", "--seed", "0"], {"bad": '{"rows": [[0]]}'}),
        (["group", "wedderburn", "--table", "{bad}", "--seed", "0"], {"bad": "[[0.5, 1], [1, 0]]"}),
        (["rd", "norms", "--group", "z", "--s", "1", "--input", "{bad}", "--radius", "2"], {"bad": "5"}),
        (["rd", "norms", "--group", "z", "--s", "1", "--input", "{bad}", "--radius", "2"], {"bad": '[{"g": [1.5], "re": 1}]'}),
        (["rd", "norms", "--group", "z", "--s", "1", "--input", "{bad}", "--radius", "2"], {"bad": '[{"g": [true], "re": 1}]'}),
        (["rd", "norms", "--group", "z", "--s", "1", "--input", "{bad}", "--radius", "2"], {"bad": '[{"g": "ab", "re": 1}]'}),
        (["rd", "norms", "--group", "z", "--s", "1", "--input", "{bad}", "--radius", "2"], {"bad": '[{"g": 2, "re": 1}]'}),
        (["rd", "norms", "--group", "z", "--s", "1", "--input", "{bad}", "--radius", "2"], {"bad": '[{"g": [1], "re": "x"}]'}),
        (["rd", "norms", "--group", "z", "--s", "1", "--input", "{f}", "--radius", "nan"], {"f": _DELTA}),
        (["rd", "norms", "--group", "z", "--s", "1", "--input", "{f}", "--radius", "inf"], {"f": _DELTA}),
        (["rd", "norms", "--group", "z", "--s", "nan", "--input", "{f}", "--radius", "2"], {"f": _DELTA}),
        (["rd", "probe-rd", "--group", "z", "--s", "inf", "--seed", "1"], {}),
        (["rd", "probe-unconditional", "--group", "z", "--radius", "nan", "--seed", "1"], {}),
        (["spin", "info", "--pair", "su21", "--catalog", "{missing}"], {}),
        (["spin", "info", "--pair", "su21", "--catalog", "{bad}"], {"bad": '{"version": 1, "pairs": '}),
        (["spin", "info", "--pair", "su21", "--catalog", "{bad}"], {"bad": '{"version": 1, "pairs": []}'}),
        (["spin", "info", "--pair", "su21", "--catalog", "{bad}"], {"bad": '{"version": 1, "pairs": {"p": {"cartan": "A1"}}}'}),
        (["spin", "info", "--pair", "su21", "--catalog", "{bad}"], {"bad": '{"version": 1, "pairs": {"p": {"compact": "all"}}}'}),
        (["ds", "induct", "--pair", "p", "--hw", "1", "--catalog", "{bad}"],
         {"bad": '{"version": 1, "pairs": {"p": {"cartan": "A1", "compact": 5}}}'}),
        (["spin", "info", "--pair", "p", "--catalog", "{bad}"],
         {"bad": '{"version": 1, "pairs": {"p": {"cartan": "A1", "compact": [], "k_lattice": [["4"]]}}}'}),
        # a negative seed, by flag and by config key, on each randomized subcommand
        (["group", "wedderburn", "--name", "z1", "--seed", "-1"], {}),
        (["group", "wedderburn", "--name", "z1", "--config", "{cfg}"], {"cfg": '{"seed": -1}'}),
        (["group", "idempotent", "--name", "s3", "--block", "0", "--seed", "-2"], {}),
        (["group", "idempotent", "--name", "s3", "--block", "0", "--config", "{cfg}"], {"cfg": '{"seed": -2}'}),
        (["rd", "probe-unconditional", "--group", "z", "--trials", "2", "--seed", "-3"], {}),
        (["rd", "probe-unconditional", "--group", "z", "--trials", "2", "--config", "{cfg}"], {"cfg": '{"seed": -3}'}),
        (["rd", "probe-rd", "--group", "z", "--s", "1", "--samples", "2", "--seed", "-5"], {}),
        (["rd", "probe-rd", "--group", "z", "--s", "1", "--samples", "2", "--config", "{cfg}"], {"cfg": '{"seed": -5}'}),
        # a rank gap of 1/2 or more makes the bands near 0 and 1 overlap; non-finite tolerances
        (["k0", "class", "--spec", "{spec}", "--config", "{cfg}"],
         {"spec": '{"blocks": [2], "matrices": [[[1.0, 0.0], [0.0, 0.0]]]}', "cfg": '{"rank_gap": 1.0}'}),
        (["k0", "class", "--spec", "{spec}", "--config", "{cfg}"],
         {"spec": '{"blocks": [2], "matrices": [[["1", "0"], ["0", "0"]]]}', "cfg": '{"rank_gap": 0.5}'}),
        (["k0", "class", "--spec", "{spec}", "--config", "{cfg}"],
         {"spec": '{"blocks": [1], "matrices": [[[0.0]]]}', "cfg": '{"rank_gap": Infinity}'}),
        (["rootsys", "info", "A1", "--config", "{cfg}"], {"cfg": '{"tol": Infinity}'}),
        (["rootsys", "info", "A1", "--config", "{cfg}"], {"cfg": '{"power_tol": Infinity}'}),
        (["rootsys", "info", "A1", "--config", "{cfg}"], {"cfg": '{"rank_gap": 1e400}'}),
        # the config is checked before the flags are laid over it
        (["rootsys", "info", "A1", "--format", "json", "--config", "{cfg}"], {"cfg": '{"format": "xml"}'}),
        # valid zero specs with one matrix entry over the cap (a square block
        # at the cap and a 1x1 block)
        (["k0", "class", "--spec", "{spec}"], {"spec": json.dumps(
            {"blocks": [_CAP_SIDE, 1], "matrices": [[[0] * _CAP_SIDE] * _CAP_SIDE, [[0]]]})}),
        (["k0", "index", "--spec", "{spec}"], {"spec": json.dumps(
            {"blocks": [1, 1], "e0": [_CAP_SIDE, 1], "e1": [_CAP_SIDE, 1], "u": [[[0] * _CAP_SIDE] * _CAP_SIDE, [[0]]]})}),
        # k0 index specs of no entries whose SVDs and completed operator pass the work cap:
        # just over it, and the e1 = 2000 spec that took 6.6 s and 219 MB without the cap
        (["k0", "index", "--spec", "{spec}"], {"spec": json.dumps(
            {"blocks": [1], "e0": [0], "e1": [_WORK_SIDE + 1], "u": [[]]})}),
        (["k0", "index", "--spec", "{spec}"], {"spec": '{"blocks": [1], "e0": [0], "e1": [2000], "u": [[]]}'}),
        # an exact rank-one idempotent just over the exact work cap: its one
        # 33-bit entry makes each of the 186^3 products two limbs long
        (["k0", "class", "--spec", "{spec}"], {"spec": json.dumps(
            {"blocks": [186], "matrices": [[[1, 2**32 + 1] + [0] * 184] + [[0] * 186] * 185]})}),
    ],
)
def test_file_json_and_config_errors_exit_2(capsys, tmp_path, argv, files):
    paths = {"missing": str(tmp_path / "does-not-exist.json")}
    for name, text in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_rd_refuses_a_bare_integer_element(capsys, tmp_path):
    f = tmp_path / "f.json"
    f.write_text('[{"g": 2, "re": 1}]')
    code, out, err = run_cli(capsys, "rd", "norms", "--group", "z", "--s", "1", "--input", str(f), "--radius", "2")
    assert (code, out, err) == (EXIT_VALIDATION, "", "error: element 2 is not a list of integers\n")


def test_missing_catalog_from_env_var_exits_2(capsys, tmp_path, monkeypatch):
    from dirac_atlas.spinmod import CATALOG_ENV_VAR

    monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path / "nowhere.json"))
    code, out, err = run_cli(capsys, "spin", "info", "--pair", "su21")
    assert code == EXIT_VALIDATION and out == ""
    assert err.startswith("error: cannot read catalog") and err.count("\n") == 1


def test_rd_probe_defaults_on_f3_refused_fast(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "rd", "probe-rd", "--group", "f3", "--s", "1", "--seed", "1")
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_VALIDATION and out == ""
    assert err.startswith("error: ball of radius 10") and err.count("\n") == 1


def test_rd_norms_on_z9_ball_of_radius_2(capsys, tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps([{"g": [0] * 8 + [1], "re": 1.0}, {"g": [0] * 9, "re": 1.0}]))
    payload = run_json(capsys, "rd", "norms", "--group", "z9", "--s", "1", "--input", str(f), "--radius", "2")
    assert payload["l1"] == 2.0 and payload["red_lower"] <= 2.0


@pytest.mark.parametrize(
    "argv",
    [["group", "wedderburn", "--name", "z1000000000", "--seed", "1"],
     ["group", "idempotent", "--name", "z1000000000", "--block", "0", "--seed", "1"]],
)
def test_group_order_cap_refused_fast(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_VALIDATION and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "cap" in err


def test_oversized_enumeration_box_refused_fast(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "ds", "enumerate", "--pair", "compact_d4", "--bound", "1000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_VALIDATION and out == ""
    assert "exceeds the cap" in err


def test_enumeration_output_cap_refused_fast(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "ds", "enumerate", "--pair", "sl2r", "--bound", "100000000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_VALIDATION and out == ""
    assert "exceed the cap" in err and err.count("\n") == 1


def test_enumeration_below_output_cap_succeeds(capsys):
    payload = run_json(capsys, "ds", "enumerate", "--pair", "sl2r", "--bound", "100000000")
    assert payload["count"] == 28284


def test_e8_adjoint_character_fast(capsys):
    t0 = time.perf_counter()
    payload = run_json(capsys, "rep", "irr", "--type", "E8", "--hw", "0,0,0,0,0,0,0,1")
    assert time.perf_counter() - t0 < 2.0
    assert payload["dimension"] == 248 and payload["weyl_dimension"] == "248"
    assert payload["dominant_multiplicities"] == [
        {"weight": ["0"] * 8, "mult": 8},
        {"weight": ["0"] * 7 + ["1"], "mult": 1},
    ]


def test_character_support_cap_refused_fast(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "rep", "irr", "--type", "E8", "--hw", "1,1,1,1,1,1,1,1")
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_VALIDATION and out == ""
    assert "support cap" in err and err.count("\n") == 1


def test_rank_cap_refused_fast(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "rootsys", "info", "A60")
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_VALIDATION and out == ""
    assert "exceeds the cap" in err and err.count("\n") == 1


def test_rd_norms_large_coefficients_do_not_overflow(capsys, tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps([{"g": [0], "re": 1e154}, {"g": [1], "re": 1}]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "rd", "norms", "--group", "z", "--s", "1", "--radius", "3", "--input", str(f))
    assert code == EXIT_OK and err == ""
    payload = json.loads(out)
    assert payload["red_lower"] == pytest.approx(1e154, rel=1e-6)


def test_rd_norms_bracket_is_never_inverted(capsys, tmp_path):
    rng = random.Random(23)
    cases = [("z", [0], 1.7e308), ("z", [0], 1.79e308)]
    for _ in range(20):
        group = rng.choice(["z", "f2"])
        g = [rng.randint(-3, 3)] if group == "z" else [rng.choice([1, 2]) for _ in range(rng.randint(0, 3))]
        cases.append((group, g, rng.gauss(0, 1) * 10.0 ** rng.randint(-300, 300)))
    f = tmp_path / "f.json"
    for group, g, c in cases:
        f.write_text(json.dumps([{"g": g, "re": c}]))
        payload = run_json(capsys, "rd", "norms", "--group", group, "--s", "1", "--radius", "3", "--input", str(f))
        assert payload["red_lower"] <= payload["red_upper"], (group, g, c)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "items,s,hs",
    [
        # subnormal coefficients: the squares underflow unless scaled first
        ([{"g": [0], "re": 1e-310}, {"g": [1], "re": 3e-310}], "1", math.sqrt(37) * 1e-310),
        # hs is about 1e200 although its square is not a float
        ([{"g": [0], "re": 1e200}, {"g": [1], "re": 1}], "1", 1e200),
        # hs = 2e308, and at s = 0 l1 = 2e308, are past the float range
        ([{"g": [1], "re": 1e308}], "1", "Sobolev norm at s = 1.0 overflows"),
        ([{"g": [0], "re": 1e308}, {"g": [1], "re": 1e308}], "0", "l1 norm overflows"),
    ],
)
def test_rd_norms_at_the_ends_of_the_float_range(capsys, tmp_path, items, s, hs):
    f = tmp_path / "f.json"
    f.write_text(json.dumps(items))
    code, out, err = run_cli(capsys, "rd", "norms", "--group", "z", "--s", s, "--radius", "3", "--input", str(f))
    if isinstance(hs, str):
        assert code == EXIT_VALIDATION and out == ""
        assert err.startswith("error: ") and hs in err and err.count("\n") == 1
        return
    assert code == EXIT_OK and err == ""
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["hs"] == pytest.approx(hs, rel=1e-12, abs=0)
    assert payload["red_lower"] <= payload["l1"] * (1 + 1e-12)


def test_rd_norms_reports_iterations_and_residual(capsys, tmp_path):
    schema = SCHEMAS["rd.norms"]
    assert {"iterations", "residual"} <= set(schema["properties"])
    assert not {"iterations", "residual"} & set(schema["required"])
    f = tmp_path / "f.json"
    f.write_text(json.dumps([{"g": [1, 2], "re": 1.0}, {"g": [], "re": 0.5, "im": -1}]))
    payload = run_json(capsys, "rd", "norms", "--group", "f2", "--s", "1", "--input", str(f), "--radius", "6")
    jsonschema.validate(payload, schema)
    assert payload["iterations"] >= 1 and 0 <= payload["residual"] <= 4e-6


def _labs_rd_argvs(workdir):
    """The rd requests of one labs benchmark stream (perfbench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    stream = workloads.build_stream("labs", 1, str(workdir), {})
    return [req["argv"] for req in stream if req["argv"][0] == "rd"]


def test_labs_rd_requests_are_byte_identical(capsys, tmp_path):
    argvs = _labs_rd_argvs(tmp_path)
    assert len(argvs) >= 30
    for argv in argvs:
        first = run_cli(capsys, *argv)
        assert first[0] == EXIT_OK, (argv, first[2])
        assert run_cli(capsys, *argv) == first, argv


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, "rootsys", "info", "A1")[0] == EXIT_OK
    first = len(built)
    assert run_cli(capsys, "rootsys", "info", "A2")[0] == EXIT_OK
    assert len(built) == first


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one in-process call, argparse exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_calls_share_no_state(capsys, tmp_path, monkeypatch):
    # argparse wraps --help to the terminal width; fix it for both passes
    monkeypatch.setenv("COLUMNS", "80")
    spec = tmp_path / "class.json"
    spec.write_text(json.dumps({"blocks": [2], "matrices": [[["1/2", "1/2"], ["1/2", "1/2"]]]}))
    index = tmp_path / "index.json"
    index.write_text(json.dumps({"blocks": [1], "e0": [3], "e1": [2], "u": [[[0, 0, 0], [0, 0, 0]]]}))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps([{"g": [1], "re": 1.0}, {"g": [], "re": 0.5}]))
    cat = _write_catalog(tmp_path / "cat.json", "only")
    configs = {}
    for name, data in [("seed", {"seed": 3}), ("table", {"format": "table"}), ("simple", {"degree_roots": "simple"}),
                       ("catalog", {"catalog": cat}), ("bad", {"format": "xml"})]:
        configs[name] = str(tmp_path / f"{name}.json")
        Path(configs[name]).write_text(json.dumps(data))
    leaves = [
        ["rootsys", "info", "A2"],
        ["rep", "irr", "--type", "A2", "--hw", "1,0"],
        ["rep", "tensor", "--type", "A1", "--hw", "1", "--hw2", "1"],
        ["spin", "info", "--pair", "su21"],
        ["ds", "induct", "--pair", "su21", "--hw", "1,1"],
        ["ds", "enumerate", "--pair", "sl2r", "--bound", "10"],
        ["k0", "class", "--spec", str(spec)],
        ["k0", "index", "--spec", str(index)],
        ["group", "wedderburn", "--name", "s3", "--seed", "1"],
        ["group", "idempotent", "--name", "s3", "--block", "2", "--seed", "1"],
        ["rd", "norms", "--group", "f2", "--s", "1", "--radius", "3", "--input", str(fn)],
        ["rd", "probe-unconditional", "--group", "z", "--trials", "2", "--seed", "1"],
        ["rd", "probe-rd", "--group", "z", "--s", "1", "--samples", "2", "--seed", "1"],
    ]
    assert {f"{argv[0]}.{argv[1]}" for argv in leaves} == set(SCHEMAS)
    argvs = leaves + [argv + ["--schema"] for argv in leaves] + [
        ["rootsys", "info", "A2", "--format", "table"],
        ["rd", "norms", "--group", "f2", "--s", "1", "--radius", "3", "--input", str(fn), "--format", "table"],
        ["group", "wedderburn", "--name", "s3", "--config", configs["seed"]],
        ["group", "wedderburn", "--name", "s3"],
        ["rootsys", "info", "A1", "--config", configs["table"]],
        ["rootsys", "info", "A1", "--config", configs["table"], "--format", "json"],
        ["ds", "induct", "--pair", "compact_a2", "--hw", "1,0", "--config", configs["simple"]],
        ["ds", "induct", "--pair", "compact_a2", "--hw", "1,0"],
        ["spin", "info", "--pair", "only", "--config", configs["catalog"]],
        ["spin", "info", "--pair", "only", "--catalog", cat],
        ["spin", "info", "--pair", "only"],
        ["rootsys", "info", "A1", "--config", configs["bad"], "--format", "json"],
        [],
        ["rootsys"],
        ["rootsys", "info", "A2", "--format", "xml"],
        ["group", "wedderburn", "--name", "s3", "--seed", "x"],
        ["rootsys", "info", "A2", "--bogus"],
        ["--help"],
        ["rd", "norms", "--help"],
    ]
    forward = [_outcome(capsys, argv) for argv in argvs]
    assert [code for code, _, _ in forward].count(EXIT_OK) >= 30
    backward = [_outcome(capsys, argv) for argv in reversed(argvs)][::-1]
    for argv, one, other in zip(argvs, forward, backward):
        assert one == other, argv


_ONE_OF_EACH = """
import contextlib, io, json, sys
from dirac_atlas.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in ("scipy", "numpy.ma") if m in sys.modules)))
"""


def test_cold_run_imports_neither_scipy_nor_numpy_ma(tmp_path):
    k0_class = tmp_path / "class.json"
    k0_class.write_text(json.dumps({"blocks": [2], "matrices": [[["1/2", "1/2"], ["1/2", "1/2"]]]}))
    k0_index = tmp_path / "index.json"
    k0_index.write_text(json.dumps({"blocks": [1], "e0": [3], "e1": [2], "u": [[[0, 0, 0], [0, 0, 0]]]}))
    fn = tmp_path / "f.json"
    fn.write_text(json.dumps([{"g": [1], "re": 1.0}]))
    argvs = [
        ["rootsys", "info", "A2"],
        ["rep", "irr", "--type", "B2", "--hw", "1,1"],
        ["rep", "tensor", "--type", "A2", "--hw", "1,0", "--hw2", "0,1"],
        ["spin", "info", "--pair", "su21"],
        ["ds", "induct", "--pair", "su21", "--hw", "1,1"],
        ["ds", "enumerate", "--pair", "sl2r", "--bound", "10"],
        ["group", "wedderburn", "--name", "s3", "--seed", "1"],
        ["group", "idempotent", "--name", "s3", "--block", "2", "--seed", "1"],
        ["k0", "class", "--spec", str(k0_class)],
        ["k0", "index", "--spec", str(k0_index)],
        ["rd", "norms", "--group", "f2", "--s", "1", "--radius", "3", "--input", str(fn)],
        ["rd", "probe-unconditional", "--group", "z", "--trials", "2", "--seed", "1"],
        ["rd", "probe-rd", "--group", "z", "--s", "1", "--samples", "2", "--seed", "1"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _ONE_OF_EACH, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# sha256 of the stdout of `ds enumerate --pair P --bound B --degree-roots R`,
# recorded before the enumeration was built as one batched integer pass:
# every equal-rank catalog pair at bound 30 under both degree-root choices,
# and compact_d4 at bound 150 (610 parameters).
ENUMERATE_DIGESTS = {
    ("compact_a1", "30", "positive"): "e05a8e91926a8a6a08e7e64e1ada00521b5778672cc919853304a41e19f3ca26",
    ("compact_a1", "30", "simple"): "68c4830c2c9a16919d9a62aac59e9c52ef16f7ca0f43733cdb8023db7b49bd35",
    ("compact_a2", "30", "positive"): "1ae5b94d8bf6dc1bb7e99d7454964e72417ccc08eedc12e40cb2deb2aea55dd6",
    ("compact_a2", "30", "simple"): "a6df110018e9307a13aa35ecb29d3b0dfb4e9ae4e5097d35da75a0938287d775",
    ("compact_a3", "30", "positive"): "07e0c79611aeed605f10359c3b2966fbc3c5541517025dcd504d80c663afa91b",
    ("compact_a3", "30", "simple"): "0cfe83c460583ce22f02a11a875dc5e92fbf01090e21e7aff6f2cd5b08db13f2",
    ("compact_a4", "30", "positive"): "f1ebc76846a659dcfdc8c163d69d0194309db83edf4a0c776218476cabd97c13",
    ("compact_a4", "30", "simple"): "8423ec7fcc6235f3b77ec16fedb956decbe2e1799b7275f250a2b81d1a47c828",
    ("compact_b2", "30", "positive"): "5c7d9179f42379b0a7f9c983e766f4650d4b8ed42b21923c8843d330dd285201",
    ("compact_b2", "30", "simple"): "dbe720d90f824d078520818c2dd4dd7bb839a5e8796b466ee2e3d374dbd452ea",
    ("compact_b3", "30", "positive"): "35b9a19640fa779d911167a4fc828c83630da45a3db137e3da0e821b7937d783",
    ("compact_b3", "30", "simple"): "59880c09ccd76268ad58741933356383e36150404db4814b4872725deefa98e4",
    ("compact_b4", "30", "positive"): "37bfe9a37188f646183d547a640dd0d216b8c348b28a35bb9046a802aaf5e4ae",
    ("compact_b4", "30", "simple"): "a58abd33214ee645834081a49548e02476605d3b5d785e42d1ac49a90a5fc421",
    ("compact_c2", "30", "positive"): "f77e814a05d531e6a3810f1eec21c9f78716ab70630fec2ec362d2bbe941fa41",
    ("compact_c2", "30", "simple"): "27d0e3ce5840b674d8565294f67cf9810a1e6d58f149394f36e0f401ed207a38",
    ("compact_c3", "30", "positive"): "6dc5754413c4ed25712b5b5a54e6663aa5b19feb11e07a7e1d97d6fa34d7ea72",
    ("compact_c3", "30", "simple"): "0881adaffd4b34ffc5f2f38433094cb93bfea9291b7129475c5eae17adb1ce98",
    ("compact_c4", "30", "positive"): "169517d641f70f10e83ca70f9cbbe083a496d71b7ac3624c58504e740f04f5fe",
    ("compact_c4", "30", "simple"): "b9193f3bd1073418ffcc914bfadac7b0252c75d0b260cdd64545dd7793bbd2af",
    ("compact_d4", "30", "positive"): "e038ef1f4a878a4e3346448246fc7681683572f55b076da7cd2f7833329cbeb0",
    ("compact_d4", "30", "simple"): "dce293beb2a70ddfac684effd228ff5f52d4e618c86dcb12c80f141663538224",
    ("compact_f4", "30", "positive"): "382b9676b04fb946f3884f6dd091f566b1f63d8d1d7ee547fe86c291e3ef36f8",
    ("compact_f4", "30", "simple"): "d6b75f71e8351ab7ad8ad9da58fce4800648e6834f66495bbb25603203ae09e6",
    ("compact_g2", "30", "positive"): "c53345174a6c1c01f2bffd3f9e3768ac17326225d09cc888a14e6db5afc047f3",
    ("compact_g2", "30", "simple"): "26e15b12fff5f82799bb76677329dbaa1f4aee29b8e6110b1523d78806eaa1f4",
    ("sl2r", "30", "positive"): "3e7091fdc5dfbd4a19e9cfe9e090ad72ac90bc4bfce62714ab1d960720f0e138",
    ("sl2r", "30", "simple"): "9369434a2a879272dfa6b38c3a3c2181382b31ec54c9772f06bec8531b01278d",
    ("sp4r", "30", "positive"): "c4b571bf54ec876cb369e11e22500269eb82cd0d6ac471c946265fd912075da6",
    ("sp4r", "30", "simple"): "60bb52f140974c4f4ad5fa7ae65f9348f4e02901bd001a793576ef818570873e",
    ("su21", "30", "positive"): "44e459d4616e7f6b42dc3218c160987473e12c912b665bbaf1d781754a9fcbcf",
    ("su21", "30", "simple"): "d589a373115382a4fa90d4d0cdacda12d9af563d1e796aa96d0d5f140f4129b0",
    ("compact_d4", "150", "positive"): "ce3e0882c011ad5915ebbd4ea325c0bf61b5e8adeab4c9802b304dc330c27039",
}


def test_enumerate_output_is_byte_identical_to_the_recorded_digests(capsys):
    equal_rank = {name for name in catalog_names() if get_pair(name).equal_rank}
    assert {pair for pair, _, _ in ENUMERATE_DIGESTS} == equal_rank
    for (pair, bound, roots), digest in ENUMERATE_DIGESTS.items():
        out = run_cli(capsys, "ds", "enumerate", "--pair", pair, "--bound", bound, "--degree-roots", roots)[1]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (pair, bound, roots)


# sha256 of the stdout of `rootsys info T` for every simple type of rank
# <= 8, recorded before root systems were built on integers.
ROOTSYS_INFO_DIGESTS = {
    "A1": "afcd9afce6645d1864e962b13ff5890104a5e9ac44b430f8b8bb257cf22ef96c",
    "A2": "d3bbab1ce7826e4a415e76def3a81fdef7c5b2061bdf601eabe16057cfde7351",
    "A3": "b086b626990146f02b2657e7322c453d9b2b78cf9c84dccbb84f488a727a6026",
    "A4": "fb1b1a7a8b5b77538163f0df9f2f78f38fea8ff4192b09a42649629c71a43867",
    "A5": "32d239be89c28533c8580442581f445cfba8aacab5bf6edbef35c3498f141ef4",
    "A6": "04d784fa0ec65558bf65f0edfa3cdf3de0ffdbc5f5bd9440aa70d01f772c9975",
    "A7": "501510926468a88b258f6e08646be6c9d53bb0a0f4a298ecc91d591a1036e1bc",
    "A8": "8d7488d44943939bc5e6630233772cb735d720f49bfef6dcaee7aaa619f15520",
    "B2": "81d3616a016987bd1cb13482e22984d9a3fdea5c6c5a4e9da1db961c955d27b4",
    "B3": "5c348deb362af000c7e8984977319ed3f8b490f7e18cac80d4d1bbf9c06cd43d",
    "B4": "4f58b8c7baf602014ec96002843a7648182f0a1ee0860c88f6fbcd07fc713d42",
    "B5": "4671a10fccd8d1badabde917aaf87d509b6da5d5f95275aeec492accef56dcb9",
    "B6": "5a3534ea85db7789068cc7bc714c6494b989231e9d462b9b91c9c3ff8d611da9",
    "B7": "d4c0b43588b555166dc7893403e385b2ea0474cb5b1b7af5e59a781feb0b4b98",
    "B8": "3d9833eaf6e1580af595ee498904ee8d64516a1d57cb28a0138bd2385254a955",
    "C3": "169413bce297ed1dd4ced35a39bd265b6b22ce11d335048a5f644cdc7dfc7c53",
    "C4": "cf463090258b56973d0455cf721411ce515c374a79e48916bce76e74d32ed634",
    "C5": "aae82ed1b0a4ffc33c311c1c1aa666e109f5bef457809db65c412db95fbdd1a3",
    "C6": "6905dcda5997eb5a1da79d222746f11c76449d360ab7785a4313cc6186a63a4b",
    "C7": "2571e814ea200f79aa01e346b8c9ce7f8b9f9fb30aaa90c21abd39c09918b9d3",
    "C8": "ccd02cb412a8d42ce5dd87043bb29bc056d0d0d6c88138d4a8f3488d9f889cd3",
    "D4": "312828014b9036a6fd202fc410277f88e532defd113bbf086eb31ac36a834ecf",
    "D5": "03546d63f34a86330fdd95a6f75f5eb75272c7114ace70638f64118094949f44",
    "D6": "848d46d2611d0bd0ae3a23344648be6442cd284cba74a5445f7baba9235bcb79",
    "D7": "c244e3060d78997f9de8559d779d65073f4e425a9a0bcba60a44e0a728fb4444",
    "D8": "d07dce2dda81d79a5fc8d39ca8c3e2658773cf8c83d1105f5686d933dcecfe4d",
    "E6": "6c9c00cb7f390b92fbc4faa970dcf6261053c3d12e123322cbf78ffcdb91206d",
    "E7": "215ce00691d92d2ceff206e1a34afd3b9363afa1c9994fa2e75c3a50c3902c08",
    "E8": "8636364782ac52b8f47c90e82e2485f0357dd718a3d14cb5fe29c0e0d14d538d",
    "F4": "179f9200a3d73a4eded2ade52be0c9b6eef4a34ce501620e7925dee8af212ed6",
    "G2": "2b62d92dd335657f0ddf658b2c2cec06d36f440167172be05a6889628e025752",
}


def test_rootsys_info_is_byte_identical_to_the_recorded_digests(capsys):
    for cartan, digest in ROOTSYS_INFO_DIGESTS.items():
        code, out, err = run_cli(capsys, "rootsys", "info", cartan)
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, cartan


# sha256 of stdout, recorded before characters moved to integer keys: `rep
# tensor` on every ordered pair of fundamental weights of A3, B3 and C3 and
# on B3 (1,1,1)x(1,1,1), `rep irr` on the E6 and F4 labels of the
# benchmark, and `spin info` on every catalog pair. The heavy tensors D4
# (1,1,1,1)x(1,1,1,1) and E8 248x248 were recorded before make_dominant
# was cached.
CHARACTER_DIGESTS = {
    ('rep', 'tensor', '--type', 'A3', '--hw', '1,0,0', '--hw2', '1,0,0'): "4a1a02d34856c6a83073549d63a57f6fae70a64ce0cd09548b1a59255e3b1031",
    ('rep', 'tensor', '--type', 'A3', '--hw', '1,0,0', '--hw2', '0,1,0'): "6a522829de048ccc972857c4ca124dd6182b3e72e4ab27d34a5f26401c5f46aa",
    ('rep', 'tensor', '--type', 'A3', '--hw', '1,0,0', '--hw2', '0,0,1'): "bbd529d297d69ce657a5433744812d33a539fa48aacf4ec8140ae3a3c99983d9",
    ('rep', 'tensor', '--type', 'A3', '--hw', '0,1,0', '--hw2', '1,0,0'): "3d6ca03e48b155a33c52079ee641c4a24c1ff48eac6e7aa0d325ef73186619c7",
    ('rep', 'tensor', '--type', 'A3', '--hw', '0,1,0', '--hw2', '0,1,0'): "18ec7cba1a2dc7e1523358654585d594f59b2547c5f90457c7253b044554139f",
    ('rep', 'tensor', '--type', 'A3', '--hw', '0,1,0', '--hw2', '0,0,1'): "e637efc0f25a762060ef78bfc8c88dba815fcdc22bee0f92f1bd6aebb2e6b4d1",
    ('rep', 'tensor', '--type', 'A3', '--hw', '0,0,1', '--hw2', '1,0,0'): "67af24fad16cfefc6e3f734d7447e1c104a0d2863680031ade63255629929371",
    ('rep', 'tensor', '--type', 'A3', '--hw', '0,0,1', '--hw2', '0,1,0'): "a38279bc3989d7b814e808e1fb6ce34737f00cbf83e2cd55680ebb4f821c520c",
    ('rep', 'tensor', '--type', 'A3', '--hw', '0,0,1', '--hw2', '0,0,1'): "59749c8037117d7fd49e3feb91b5344032917b56575bc55a38d74fc6315e87ca",
    ('rep', 'tensor', '--type', 'B3', '--hw', '1,0,0', '--hw2', '1,0,0'): "009bff9e93f296e03e87bf6dd33cdc5a0dd76d7298fc1af92af8b2432f037eb3",
    ('rep', 'tensor', '--type', 'B3', '--hw', '1,0,0', '--hw2', '0,1,0'): "5f2430531739726c10884bd2a1413baf89eae1538d0c02f412215f4d9860e8a4",
    ('rep', 'tensor', '--type', 'B3', '--hw', '1,0,0', '--hw2', '0,0,1'): "6784ace079c298af29db9f4abf908c9b6bb05a8ed4039a95a6f5434ceabcdf99",
    ('rep', 'tensor', '--type', 'B3', '--hw', '0,1,0', '--hw2', '1,0,0'): "d0ea54b35ee9d42616a67f95f62e5b78e8a3fe9d9dcadffa7da80ce5fc426972",
    ('rep', 'tensor', '--type', 'B3', '--hw', '0,1,0', '--hw2', '0,1,0'): "c9ad01292895ce58c2c009006c42ce7931b833a65656038fe75088f916e3837e",
    ('rep', 'tensor', '--type', 'B3', '--hw', '0,1,0', '--hw2', '0,0,1'): "f7a0f1c7923136147a017d64951d03dd6147af59fef8e5b1dd8298acbd58aac9",
    ('rep', 'tensor', '--type', 'B3', '--hw', '0,0,1', '--hw2', '1,0,0'): "b81b4a8adcd778b9328374f74cabb835e8cb126114d7d05fd9ec1257d62dce6c",
    ('rep', 'tensor', '--type', 'B3', '--hw', '0,0,1', '--hw2', '0,1,0'): "1466a6b17ca5d43bc502fab52dea2b02fe67bab67a8ccaa6d5b0a73e0b00993b",
    ('rep', 'tensor', '--type', 'B3', '--hw', '0,0,1', '--hw2', '0,0,1'): "cdd74162961bf3802bd66f9b723f1cb8c35515c4353e10eb2892e99ba915b69d",
    ('rep', 'tensor', '--type', 'C3', '--hw', '1,0,0', '--hw2', '1,0,0'): "c967f6f052d5e71ed83951b23738d5383fc63b25c02a3f638cb323f11169b498",
    ('rep', 'tensor', '--type', 'C3', '--hw', '1,0,0', '--hw2', '0,1,0'): "def30bbc95e921302897ac28ca5ad7780aa8627a6ce2ecd23d59eb303c146055",
    ('rep', 'tensor', '--type', 'C3', '--hw', '1,0,0', '--hw2', '0,0,1'): "f21b4dad8a7e4ac523e40033636baecc00d74001932e099d278141230d4bc367",
    ('rep', 'tensor', '--type', 'C3', '--hw', '0,1,0', '--hw2', '1,0,0'): "236879c9624ba062b4a90d8742bfec800b2b68406bd5b12c3697b553bfaf822a",
    ('rep', 'tensor', '--type', 'C3', '--hw', '0,1,0', '--hw2', '0,1,0'): "1f9bd0608d330b6dfa9ba7f90a5bbce11c04ab87bf1df25a3e8663bb9932c4f7",
    ('rep', 'tensor', '--type', 'C3', '--hw', '0,1,0', '--hw2', '0,0,1'): "9d43aeaa737e7fe7dd09bd723217dfb74ae2e821a44680cf4e35595835f29ace",
    ('rep', 'tensor', '--type', 'C3', '--hw', '0,0,1', '--hw2', '1,0,0'): "5e7e50690a1f15f31681446ec7b925a3531f14191329575727d87047d8277b41",
    ('rep', 'tensor', '--type', 'C3', '--hw', '0,0,1', '--hw2', '0,1,0'): "d5e575b93f605ebbc02539ffa34041f806424227123c6d4de562fd0efae1e38b",
    ('rep', 'tensor', '--type', 'C3', '--hw', '0,0,1', '--hw2', '0,0,1'): "b08f1cfde873fec50cff545002bb9a8205f4d1e9b83bdb14605690208d8ed765",
    ('rep', 'tensor', '--type', 'B3', '--hw', '1,1,1', '--hw2', '1,1,1'): "e5a6b31a951155116359a5553ec26552cc20df748d0b2b433c0bc935069fb6f0",
    ('rep', 'tensor', '--type', 'D4', '--hw', '1,1,1,1', '--hw2', '1,1,1,1'): "07e5027f321266f42ee60c6b91074a0cce73d1b2a197f92b4dba35173ea844d1",
    ('rep', 'tensor', '--type', 'E8', '--hw', '0,0,0,0,0,0,0,1', '--hw2', '0,0,0,0,0,0,0,1'): "26c11e88b20d7ad8eeb7dd1cca9469a131ee0efd90e8f82cd971b9db3ff72de2",
    ('rep', 'irr', '--type', 'E6', '--hw', '0,1,0,0,0,0'): "56690a941af93e7bfcfc840000810454ea297451b71ced899e18f137dc77e449",
    ('rep', 'irr', '--type', 'E6', '--hw', '1,0,0,0,0,0'): "f1f86b856c1c47973ceaa2e4802f2e95de1cc6a32438a0f53007ae33780a688f",
    ('rep', 'irr', '--type', 'F4', '--hw', '1,0,0,0'): "dd1123f5c4e00ac5e4a778edb9c799add73c47a56455978965e34538780882c9",
    ('rep', 'irr', '--type', 'F4', '--hw', '0,0,0,1'): "259f70ff0a509b89d99c4568b029ea3d958fcf527e6a2910beb403311636469c",
    ('spin', 'info', '--pair', 'compact_a1'): "234fe4d08e9dd3b5dbeb1bed90dbe974428376926304d7725fc6b2798d9be9d0",
    ('spin', 'info', '--pair', 'compact_a2'): "d0bc8605700bf35ab5186f1d49194561868257fe61ebb8d44a58e5e354c7a1c0",
    ('spin', 'info', '--pair', 'compact_a3'): "32f7cf73c05312f02462688ccdb6cc0975d67d3e8f05e9f760cfa9970f0fedc3",
    ('spin', 'info', '--pair', 'compact_a4'): "5c51f5ea38213676977dd63df4f5cecc3d5ffefc28c8965635171ab4e7ea302f",
    ('spin', 'info', '--pair', 'compact_b2'): "bc3f8ef742d484cbf1c691e32fbf516d6d02b16189d7c5853663183948e9f4b4",
    ('spin', 'info', '--pair', 'compact_b3'): "fee86a22f9db231768889ac0b72cf950f209e5f4eba25089c0b6349a230d1218",
    ('spin', 'info', '--pair', 'compact_b4'): "68c20e74d99e14dcc3669f22e7ab27bf120758fda9272e275750fac59ff01475",
    ('spin', 'info', '--pair', 'compact_c2'): "3e726a8e57bd5e16789798c4a43906f5a5fc498cf2dfdb5c1956663721229429",
    ('spin', 'info', '--pair', 'compact_c3'): "5e57f18f68cfa32fbd76adc969a4d7a6fc50100ae0df3d3971356050295706de",
    ('spin', 'info', '--pair', 'compact_c4'): "aa98f23d4b65ecf8669fe1d31287bb8fab308c2aac22874ad38957241dfb65a3",
    ('spin', 'info', '--pair', 'compact_d4'): "4163eef3b7d8e8a3b5e519c69404f4c6c3a311b4c1148ab319cb8e2414e1fdd4",
    ('spin', 'info', '--pair', 'compact_f4'): "17da4af189ed97b0e0c2bfa2f3772919b09bed16fb8111035d5c4015a7bcfa5e",
    ('spin', 'info', '--pair', 'compact_g2'): "cd30702e232328a8809cbb1602ca38022f8136a7c2bcd6da3d8bc26e1329a061",
    ('spin', 'info', '--pair', 'sl2c'): "e5daa0af0d71914828d7580696a61db59d551c60ec947aeddc243ae057127619",
    ('spin', 'info', '--pair', 'sl2r'): "b6d149e87f73184ab214202ada8c1abcbf6838df4ed4f6a1b877d64746b5e58e",
    ('spin', 'info', '--pair', 'sp4r'): "7228b0c8d7238c6772dc453f3d86a3599861dfbc5731b0335d7319d5779cd52b",
    ('spin', 'info', '--pair', 'su21'): "7cdd66b2100c06b69d581e71f6cf90e3b67bf37b463c2a2c0c9cc42d2bbfcda3",
}


def test_character_outputs_are_byte_identical_to_the_recorded_digests(capsys):
    assert {argv[3] for argv in CHARACTER_DIGESTS if argv[0] == "spin"} == set(catalog_names())
    for argv, digest in CHARACTER_DIGESTS.items():
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv


# sha256 of the stdout of `group wedderburn FLAG GROUP --seed s`, concatenated
# over seeds 0..k-1 and recorded before the Wedderburn passes were batched:
# the catalog groups and z6-z21 over seeds 0-9, and the benchmark's two heavy
# inputs, z128 and the order-100 dihedral table (as the file d100.json, in
# the working directory, since the table's path is echoed), over seeds 0-2.
WEDDERBURN_DIGESTS = {
    ("--name", "s3", 10): "2691a39d568a4a63f7e009302441d7c1db7aed65aa2084ab17bab4cfaddb19f3",
    ("--name", "s4", 10): "7b42ee43ba51a29d4a9d0511929114c3b1c6b6432644ad6836cdcf3c5a82fefe",
    ("--name", "d4", 10): "b31ad571e073446857b99dc4ca4daf2379588a9cbec467d3ce6cd40e5c29b7ff",
    ("--name", "q8", 10): "2361269b0258b5f90a1523dfe336678d7b62d5fbfd0fa8e94860bd5d705ede04",
    ("--name", "z6", 10): "643ef16ae29ebf6f6669846733897b3fb83928d5612774975d30634aa80d7e5e",
    ("--name", "z7", 10): "31678f2ded89202f69602782873631c6a233e865d957eebb9d20c9cb8b93cb6b",
    ("--name", "z8", 10): "209e6390a4cb069383279ba9fb15dbf820e059da6adf1e30c7baf34847c2bb21",
    ("--name", "z9", 10): "8c1f46b36fda6d88a488487824225b1b1339d0b1ddebaea1a68cba319408bf33",
    ("--name", "z10", 10): "8792a53298ecb6de331af43f48473d8a3af0e9797d5ae636b02750c750d27bc1",
    ("--name", "z11", 10): "05e9e4c0564980749cd5bf6be4025f852c5fdffcf9935687c5995d99e03c79be",
    ("--name", "z12", 10): "494803ea200c801c29e4d94f21d184824ad6aa015837746e1956d4e37ed8104c",
    ("--name", "z13", 10): "09ce00944aa565ab539e6301f5fce1b9086a56c78259beafddf92564a2eca9ec",
    ("--name", "z14", 10): "39104950af480daf5047dc55d5a853652688244dd8257dffb9a41a6fe9063d9d",
    ("--name", "z15", 10): "9a105c7b77d8d1225ae748cbc1e920f39589e3a75d3081ed94a0a9e592272115",
    ("--name", "z16", 10): "a41ee1c3c3179d9c0035e8fb390a4a4da1d25ef50d33b113be03de819624f6d2",
    ("--name", "z17", 10): "3cb48ba2cd8ec691c23d7a68d4e6254a341d5fe37ea8c5ea5c51c6d82f7f34a7",
    ("--name", "z18", 10): "fbee64767804c8e9d2d1c1330e75b8bb109911f51b770793d272adec69ac47b0",
    ("--name", "z19", 10): "40ae916885371aeec68f81419471dae4723ee224285ed57407e763eef53f7591",
    ("--name", "z20", 10): "fa483f8dd1309fd09f9da5d7920d216e0864835911152f1870e6209f904007d3",
    ("--name", "z21", 10): "fc606e0e53dd406277992b2bf8b6c449560c7667942a5f0a1b3596c0ba5d0baf",
    ("--name", "z128", 3): "f45c85d7d9df664959ad19cfb560e31b374f00aba3d91a669473059285f2358f",
    ("--table", "d100.json", 3): "da921eb2bbca677da68fc8436f3d6b1fcf7137e2a981cc8c6991c1988adc05fb",
}


def test_wedderburn_outputs_are_byte_identical_to_the_recorded_digests(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d100.json").write_text(json.dumps(dihedral_table(50).tolist()))
    for (flag, group, seeds), digest in WEDDERBURN_DIGESTS.items():
        h = hashlib.sha256()
        for seed in range(seeds):
            code, out, err = run_cli(capsys, "group", "wedderburn", flag, group, "--seed", str(seed))
            assert code == EXIT_OK, err
            h.update(out.encode("utf-8"))
        assert h.hexdigest() == digest, (group, seeds)


# Group functions read by the rd calls below, as the files z.json, z2.json
# and f2.json in the working directory.
RD_INPUTS = {
    "z": [{"g": [0], "re": 1.5, "im": -0.5}, {"g": [1], "re": 1.0}, {"g": [-2], "im": -0.75}],
    "z2": [{"g": [0, 0], "re": 1.0}, {"g": [1, 0], "re": 0.5, "im": 0.5}, {"g": [0, -1], "re": -1.25}],
    "f2": [{"g": [], "re": 0.5}, {"g": [1], "re": 1.5, "im": 1.5}, {"g": [-1], "re": -1, "im": -1},
           {"g": [2, 1], "im": 0.25}],
}

# (exit code, sha256 of stdout) of each `rd` call, recorded while
# MarkedGroup still had a finite kind and a custom length. The z norm has
# more than DENSE_COLS columns, so Lanczos runs. The z norm and the z3 and
# f2 (s = 1.5) probes were re-recorded when the Lanczos solver moved to a
# real projected matrix; RD_VALUES bounds how far their floats moved.
RD_DIGESTS = {
    ("norms", "--group", "z", "--s", "1", "--input", "z.json", "--radius", "60"):
        (0, "e4676c347590be75247efc2db0016230bbcdaa949c88dfbb81d9f5c435381ccb"),
    ("norms", "--group", "z2", "--s", "0.5", "--input", "z2.json", "--radius", "4"):
        (0, "74db8de4293d88b0b1c2f29a23b7f292d65a80b43acdd990b116851a56e9f611"),
    ("norms", "--group", "f2", "--s", "2", "--input", "f2.json", "--radius", "3"):
        (0, "29c3e265217bdbcdb2486a15f59a11fb57585180ef325fd4aee2f6896a8d9073"),
    ("probe-unconditional", "--group", "z", "--trials", "5", "--seed", "1"):
        (0, "c44ebfa70f7ce6b9e86e55478afc33bb152c0ccd808dd67cc28c97f0adf20054"),
    ("probe-unconditional", "--group", "z2", "--norm", "l1", "--input", "z2.json", "--trials", "5", "--seed", "2"):
        (0, "e67a20642ff9d715f8d3fe17a710a024fa0ab44c596c3b72a671da6ab85b8c35"),
    ("probe-unconditional", "--group", "f2", "--norm", "hs", "--s", "1", "--trials", "5", "--seed", "3"):
        (0, "8b41357c277889e92b8cfedac27c19eb8270fea471eed85a0fa483c28083dec2"),
    ("probe-rd", "--group", "z3", "--s", "1", "--samples", "2", "--seed", "1"):
        (0, "3d480186b57bf97a8effb05ab2649ad6f9d6707bcae2db7a71fb8dd24d78a70a"),
    ("probe-rd", "--group", "f1", "--s", "2", "--samples", "6", "--seed", "2", "--spheres"):
        (0, "3d7bb4266b990999a28d05a95da96db33e9450c2db0821eab0911c0bd0bff15f"),
    ("probe-rd", "--group", "f2", "--s", "1", "--samples", "2", "--seed", "3", "--spheres"):
        (0, "e08e37c70d3dc22e79b0b634ac63be6d7e50d53efc5a8fedab3d6cc9f6ff5240"),
    ("probe-rd", "--group", "f2", "--s", "1.5", "--samples", "1", "--seed", "4"):
        (0, "ebf555226c1f299d488ec2ac9a40dd9c223a684d7c2196df8a8915a64a98c170"),
}


# (exit code, parsed stdout) of each RD_DIGESTS call, recorded before the
# Lanczos solver moved to a real projected matrix: a change that moves
# floats in their last digits must still meet these values.
RD_VALUES = {
    ('norms', '--group', 'z', '--s', '1', '--input', 'z.json', '--radius', '60'):
        (0,
         {'group': 'z',
          'hs': 3.400367627183861,
          'iterations': 65,
          'l1': 3.33113883008419,
          'radius': 60.0,
          'red_lower': 3.3132382579602795,
          'red_upper': 3.33113883008419,
          'residual': 8.02943669667364e-07,
          's': 1.0}),
    ('norms', '--group', 'z2', '--s', '0.5', '--input', 'z2.json', '--radius', '4'):
        (0,
         {'group': 'z2',
          'hs': 2.2638462845343543,
          'iterations': 41,
          'l1': 2.9571067811865475,
          'radius': 4.0,
          'red_lower': 2.829762113368246,
          'red_upper': 2.9571067811865475,
          'residual': 5.690479137938473e-16,
          's': 0.5}),
    ('norms', '--group', 'f2', '--s', '2', '--input', 'f2.json', '--radius', '3'):
        (0,
         {'group': 'f2',
          'hs': 10.455261833163242,
          'iterations': 53,
          'l1': 4.285533905932738,
          'radius': 3.0,
          'red_lower': 3.6781694007968175,
          'red_upper': 4.285533905932738,
          'residual': 2.982351716323704e-16,
          's': 2.0}),
    ('probe-unconditional', '--group', 'z', '--trials', '5', '--seed', '1'):
        (0,
         {'base_value': 2.975376681190276,
          'group': 'z',
          'max_deviation': 0.602831484506877,
          'norm': {'name': 'reduced_truncated', 'radius': 9.0, 's': None},
          'seed': 1,
          'trials': 5,
          'witness': [{'g': [-1], 'im': -0.8831692702278008, 're': 0.4690544106234305},
                      {'g': [0], 'im': 0.5400686299642604, 're': -0.8416209805657929},
                      {'g': [1], 'im': -0.30658800392805624, 're': -0.9518423166929543}]}),
    ('probe-unconditional', '--group', 'z2', '--norm', 'l1', '--input', 'z2.json', '--trials', '5', '--seed', '2'):
        (0,
         {'base_value': 2.9571067811865475,
          'group': 'z2',
          'max_deviation': 0.0,
          'norm': {'name': 'l1', 'radius': None, 's': None},
          'seed': 2,
          'trials': 5,
          'witness': None}),
    ('probe-unconditional', '--group', 'f2', '--norm', 'hs', '--s', '1', '--trials', '5', '--seed', '3'):
        (0,
         {'base_value': 4.123105625617661,
          'group': 'f2',
          'max_deviation': 0.0,
          'norm': {'name': 'hs', 'radius': None, 's': 1.0},
          'seed': 3,
          'trials': 5,
          'witness': None}),
    ('probe-rd', '--group', 'z3', '--s', '1', '--samples', '2', '--seed', '1'):
        (0,
         {'group': 'z3',
          'max_ratio': 0.7783930966095273,
          'note': 'empirical probe only; boundedness here proves nothing',
          'ratios': [0.7783930966095273, 0.4499825660833538],
          's': 1.0,
          'samples': 2,
          'seed': 1}),
    ('probe-rd', '--group', 'f1', '--s', '2', '--samples', '6', '--seed', '2', '--spheres'):
        (0,
         {'group': 'f1',
          'max_ratio': 0.25,
          'note': 'empirical probe only; boundedness here proves nothing',
          'ratios': [0.25,
                     0.11111111111111109,
                     0.06250000000000001,
                     0.04000000000000001,
                     0.027777777777777776,
                     0.02040816326530612],
          's': 2.0,
          'samples': 6,
          'seed': 2}),
    ('probe-rd', '--group', 'f2', '--s', '1', '--samples', '2', '--seed', '3', '--spheres'):
        (0,
         {'group': 'f2',
          'max_ratio': 0.677635736776353,
          'note': 'empirical probe only; boundedness here proves nothing',
          'ratios': [0.677635736776353, 0.3333333333333333],
          's': 1.0,
          'samples': 2,
          'seed': 3}),
    ('probe-rd', '--group', 'f2', '--s', '1.5', '--samples', '1', '--seed', '4'):
        (0,
         {'group': 'f2',
          'max_ratio': 0.5250611413360683,
          'note': 'empirical probe only; boundedness here proves nothing',
          'ratios': [0.5250611413360683],
          's': 1.5,
          'samples': 1,
          'seed': 4}),
}


def assert_rd_values(got, want, path=()):
    """Every non-float field exactly; every float to rel 1e-12, except the
    solver's residual, which sits at rounding level, to abs 1e-12."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_rd_values(got[key], want[key], path + (key,))
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            assert_rd_values(a, b, path + (i,))
    elif isinstance(want, float):
        assert type(got) is float, path
        tol = {"rel": 0, "abs": 1e-12} if path[-1] == "residual" else {"rel": 1e-12, "abs": 0}
        assert got == pytest.approx(want, **tol), path
    else:
        assert type(got) is type(want) and got == want, path


def test_rd_outputs_match_the_recorded_values(capsys, tmp_path, monkeypatch):
    assert set(RD_VALUES) == set(RD_DIGESTS)
    monkeypatch.chdir(tmp_path)
    for name, items in RD_INPUTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(items))
    for argv, (want_code, want) in RD_VALUES.items():
        code, out, err = run_cli(capsys, "rd", *argv)
        assert code == want_code, (argv, err)
        assert_rd_values(json.loads(out), want, argv)


def test_rd_outputs_are_byte_identical_to_the_recorded_digests(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, items in RD_INPUTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(items))
    for argv, (want_code, digest) in RD_DIGESTS.items():
        code, out, err = run_cli(capsys, "rd", *argv)
        assert code == want_code, (argv, err)
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv
