"""Command-line surface: one executable, seven subcommands.

Deterministic by contract: identical invocations produce byte-identical
output, rationals travel as "p/q" strings, and every randomized
subcommand demands an explicit --seed. Exit codes: 0 success, 2
validation error, 3 numerical-ambiguity error.

main may be called repeatedly in one process, and each call gets a fresh
namespace and config. A call naming a group and a leaf is parsed by that
leaf's own parser, any other argv by the whole tree; each parser is
built from one command table on first use and reused. Flags override
the config file, in load_config alone.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Optional

import numpy as np

from . import dirac, ktheory, rapid_decay, repring, rootsys, spinmod
from .errors import DeskScaleError, NumericalAmbiguityError, ValidationError
from .jsonutil import finite_number, fr_str, load_json_file, parse_coords, parse_fr, render_json, vec_str

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

@dataclass
class Config:
    catalog: Optional[str] = None
    format: str = "json"
    degree_roots: str = "positive"
    tol: float = ktheory.TAU
    rank_gap: float = ktheory.RANK_GAP
    power_tol: float = rapid_decay.POWER_TOL
    seed: Optional[int] = None


def load_config(path: Optional[str], args=None) -> Config:
    """The config file's settings, checked, then the catalog, format,
    degree_roots and seed flags of args laid over them; a flag counts as
    given unless it is None or ""."""
    cfg = Config()
    if path:
        data = load_json_file(path, "config file")
        if not isinstance(data, dict):
            raise ValidationError("config file must hold a JSON object")
        unknown = set(data) - {f.name for f in fields(Config)}
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        for key, val in data.items():
            setattr(cfg, key, val)
    if cfg.format not in ("json", "table"):
        raise ValidationError("format must be json or table")
    if cfg.degree_roots not in dirac.DEGREE_ROOT_CHOICES:
        raise ValidationError(f"degree_roots must be one of {dirac.DEGREE_ROOT_CHOICES}")
    if cfg.catalog is not None and not isinstance(cfg.catalog, str):
        raise ValidationError("catalog must be a path string")
    if cfg.seed is not None and (not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool)):
        raise ValidationError(f"seed must be an integer, got {cfg.seed!r}")
    for key in ("tol", "rank_gap", "power_tol"):
        val = getattr(cfg, key)
        if isinstance(val, bool) or not isinstance(val, (int, float)) or not val > 0:
            raise ValidationError(f"{key} must be a positive number, got {val!r}")
        finite_number(val, key)
    for key in ("catalog", "format", "degree_roots", "seed"):
        val = getattr(args, key, None)
        if val is not None and val != "":
            setattr(cfg, key, val)
    return cfg


def _parse_weight_arg(text: str):
    """Weight coordinates from the command line.

    Denominators beyond powers of 2 have no home in the (half-integral)
    weight lattices this tool works with and are rejected early.
    """
    coords = parse_coords(text)
    for c in coords:
        if c.denominator & (c.denominator - 1):
            raise ValidationError(
                f"weight coordinate {c} has denominator {c.denominator}; only powers of 2 are admitted"
            )
    return coords


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(render_json(payload))
        return
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{key}:")
            cols = sorted({c for row in val for c in row})
            print("  " + " | ".join(cols))
            for row in val:
                print("  " + " | ".join(str(row.get(c, "")) for c in cols))
        else:
            print(f"{key}: {val}")


# ---------------------------------------------------------------------------
# Schemas

_RATIONAL = {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}
_WEIGHT = {"type": "array", "items": _RATIONAL}
_PARAMETER = {
    "type": "object",
    "properties": {
        "pair": {"type": "string"},
        "lambda": _WEIGHT,
        "mu": _WEIGHT,
        "formal_degree": _RATIONAL,
        "signed_trace": _RATIONAL,
        "chamber_id": {"type": "integer"},
    },
    "required": ["pair", "lambda", "mu", "formal_degree", "signed_trace", "chamber_id"],
}

SCHEMAS = {
    "rootsys.info": {
        "type": "object",
        "properties": {
            "cartan": {"type": "string"},
            "rank": {"type": "integer"},
            "num_positive_roots": {"type": "integer"},
            "weyl_order": {"type": ["integer", "null"]},
            "rootsys": {
                "type": "object",
                "properties": {
                    "cartan": {"type": "array"},
                    "simple_roots": {"type": "array", "items": _WEIGHT},
                    "positive_roots": {"type": "array", "items": _WEIGHT},
                    "form": {"type": "array", "items": _WEIGHT},
                    "rho": _WEIGHT,
                },
                "required": ["cartan", "simple_roots", "positive_roots", "form", "rho"],
            },
        },
        "required": ["cartan", "rank", "num_positive_roots", "rootsys"],
    },
    "rep.irr": {
        "type": "object",
        "properties": {
            "type": {"type": "string"},
            "highest_weight": _WEIGHT,
            "dimension": {"type": "integer"},
            "weyl_dimension": _RATIONAL,
            "dominant_multiplicities": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {"weight": _WEIGHT, "mult": {"type": "integer"}},
                    "required": ["weight", "mult"],
                },
            },
        },
        "required": ["type", "highest_weight", "dimension", "weyl_dimension"],
    },
    "rep.tensor": {
        "type": "object",
        "properties": {
            "type": {"type": "string"},
            "hw1": _WEIGHT,
            "hw2": _WEIGHT,
            "decomposition": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {"weight": _WEIGHT, "mult": {"type": "integer"}},
                    "required": ["weight", "mult"],
                },
            },
        },
        "required": ["type", "hw1", "hw2", "decomposition"],
    },
    "spin.info": {
        "type": "object",
        "properties": {
            "pair": {"type": "string"},
            "cartan": {"type": "string"},
            "k_cartan": {"type": "string"},
            "equal_rank": {"type": "boolean"},
            "parity": {"type": "integer"},
            "n_noncompact_positive": {"type": "integer"},
            "dim_s_plus": {"type": ["integer", "null"]},
            "dim_s_minus": {"type": ["integer", "null"]},
            "lifts_on_G": {"type": ["boolean", "null"]},
            "lifts_on_double_cover": {"type": ["boolean", "null"]},
        },
        "required": ["pair", "equal_rank", "parity", "n_noncompact_positive"],
    },
    "ds.induct": {
        "type": "object",
        "properties": {
            "pair": {"type": "string"},
            "mu": _WEIGHT,
            "ok": {"type": "boolean"},
            "exclusion": {"type": ["string", "null"]},
            "parameter": {"anyOf": [_PARAMETER, {"type": "null"}]},
        },
        "required": ["pair", "mu", "ok", "exclusion", "parameter"],
    },
    "ds.enumerate": {
        "type": "object",
        "properties": {
            "pair": {"type": "string"},
            "bound": _RATIONAL,
            "degree_roots": {"type": "string"},
            "count": {"type": "integer"},
            "parameters": {"type": "array", "items": _PARAMETER},
        },
        "required": ["pair", "bound", "degree_roots", "count", "parameters"],
    },
    "k0.class": {
        "type": "object",
        "properties": {
            "blocks": {"type": "array", "items": {"type": "integer"}},
            "ranks": {"type": "array", "items": {"type": "integer"}},
            "exact": {"type": "boolean"},
        },
        "required": ["blocks", "ranks", "exact"],
    },
    "k0.index": {
        "type": "object",
        "properties": {
            "blocks": {"type": "array", "items": {"type": "integer"}},
            "index": {"type": "array", "items": {"type": "integer"}},
            "kernel_cokernel": {"type": "array", "items": {"type": "integer"}},
            "agree": {"type": "boolean"},
        },
        "required": ["blocks", "index", "kernel_cokernel", "agree"],
    },
    "group.wedderburn": {
        "type": "object",
        "properties": {
            "group": {"type": "string"},
            "order": {"type": "integer"},
            "blocks": {"type": "array", "items": {"type": "integer"}},
            "classes": {"type": "array"},
            "seed": {"type": "integer"},
        },
        "required": ["group", "order", "blocks", "classes", "seed"],
    },
    "group.idempotent": {
        "type": "object",
        "properties": {
            "group": {"type": "string"},
            "block": {"type": "integer"},
            "idempotency_error": {"type": "number"},
            "trace": {"type": "number"},
            "block_dimension": {"type": "integer"},
            "k0_class": {"type": "array", "items": {"type": "integer"}},
            "coefficients": {"type": "array"},
            "seed": {"type": "integer"},
        },
        "required": ["group", "block", "idempotency_error", "trace", "k0_class"],
    },
    "rd.norms": {
        "type": "object",
        "properties": {
            "group": {"type": "string"},
            "s": {"type": "number"},
            "radius": {"type": "number"},
            "l1": {"type": "number"},
            "hs": {"type": "number"},
            "red_lower": {"type": "number"},
            "red_upper": {"type": "number"},
            "iterations": {"type": "integer"},
            "residual": {"type": "number"},
        },
        "required": ["group", "s", "radius", "l1", "hs", "red_lower", "red_upper"],
    },
    "rd.probe-unconditional": {
        "type": "object",
        "properties": {
            "group": {"type": "string"},
            "norm": {"type": "object"},
            "base_value": {"type": "number"},
            "max_deviation": {"type": "number"},
            "trials": {"type": "integer"},
            "seed": {"type": "integer"},
            "witness": {"type": ["array", "null"]},
        },
        "required": ["group", "norm", "base_value", "max_deviation", "trials", "seed"],
    },
    "rd.probe-rd": {
        "type": "object",
        "properties": {
            "group": {"type": "string"},
            "s": {"type": "number"},
            "samples": {"type": "integer"},
            "seed": {"type": "integer"},
            "max_ratio": {"type": "number"},
            "ratios": {"type": "array", "items": {"type": "number"}},
            "note": {"type": "string"},
        },
        "required": ["group", "s", "samples", "seed", "max_ratio", "ratios", "note"],
    },
}


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_rootsys_info(args, cfg: Config) -> dict:
    rs = rootsys.build_root_system(rootsys.parse_cartan(args.type))
    return {
        "cartan": str(rs.cartan),
        "rank": rs.rank,
        "num_positive_roots": len(rs.positive_roots),
        "weyl_order": rootsys.weyl_group_order(rs),
        "rootsys": rootsys.rootsys_to_json(rs),
    }


def _cmd_rep_irr(args, cfg: Config) -> dict:
    rs = rootsys.build_root_system(rootsys.parse_cartan(args.type))
    hw = _parse_weight_arg(args.hw)
    chi = repring.irr_character(hw, rs)
    dom = [
        {"weight": vec_str(w), "mult": m}
        for w, m in sorted(
            repring.dominant_multiplicities(hw, rs).items(),
            key=lambda t: rootsys.grlex_key(t[0]),
        )
    ]
    return {
        "type": str(rs.cartan),
        "highest_weight": vec_str(hw),
        "dimension": repring.dimension(chi),
        "weyl_dimension": fr_str(repring.weyl_dimension(hw, rs)),
        "dominant_multiplicities": dom,
    }


def _cmd_rep_tensor(args, cfg: Config) -> dict:
    rs = rootsys.build_root_system(rootsys.parse_cartan(args.type))
    hw1 = _parse_weight_arg(args.hw)
    hw2 = _parse_weight_arg(args.hw2)
    for hw in (hw1, hw2):
        repring.highest_weight(hw, rs)
    # Brauer-Klimyk runs over the weights of the smaller factor alone
    small, large = sorted((hw1, hw2), key=lambda hw: repring.weyl_dimension(hw, rs))
    decomp = repring.decompose(repring.irr_character(small, rs), tensor_with=large)
    return {
        "type": str(rs.cartan),
        "hw1": vec_str(hw1),
        "hw2": vec_str(hw2),
        "decomposition": [
            {"weight": vec_str(l.highest_weight), "mult": c} for l, c in decomp
        ],
    }


def _cmd_spin_info(args, cfg: Config) -> dict:
    pair = spinmod.get_pair(args.pair, cfg.catalog)
    payload = {
        "pair": args.pair,
        "cartan": str(pair.g.cartan),
        "k_cartan": str(pair.k.cartan),
        "equal_rank": pair.equal_rank,
        "parity": pair.parity,
        "n_noncompact_positive": pair.n_plus,
        "dim_s_plus": None,
        "dim_s_minus": None,
        "lifts_on_G": None,
        "lifts_on_double_cover": None,
    }
    if pair.equal_rank:
        sc = spinmod.spin_characters(pair)
        st = spinmod.check_spin_structure(pair)
        payload.update(
            dim_s_plus=repring.dimension(sc.s_plus),
            dim_s_minus=repring.dimension(sc.s_minus),
            lifts_on_G=st.lifts_on_G,
            lifts_on_double_cover=st.lifts_on_double_cover,
        )
    return payload


def _cmd_ds_induct(args, cfg: Config) -> dict:
    pair = spinmod.get_pair(args.pair, cfg.catalog)
    hw = _parse_weight_arg(args.hw)
    res = dirac.dirac_induct(hw, pair, cfg.degree_roots)
    return {
        "pair": args.pair,
        "mu": vec_str(hw),
        "ok": res.ok,
        "exclusion": res.exclusion,
        "parameter": dirac.parameter_to_json(res.parameter) if res.ok else None,
    }


def _cmd_ds_enumerate(args, cfg: Config) -> dict:
    pair = spinmod.get_pair(args.pair, cfg.catalog)
    bound = parse_fr(args.bound)
    params = dirac.enumerate_discrete_series(pair, bound, cfg.degree_roots)
    return {
        "pair": args.pair,
        "bound": fr_str(bound),
        "degree_roots": cfg.degree_roots,
        "count": len(params),
        "parameters": [dirac.parameter_to_json(p) for p in params],
    }


def _parse_matrix_entries(mat):
    """Nested JSON matrix: numbers, [re, im] pairs, or "p/q" strings.

    Exact when every entry is an integer, a "p/q" string or a pair of
    those; complex floats otherwise, with finite parts.
    """
    if not isinstance(mat, list) or not mat or any(not isinstance(row, list) or len(row) != len(mat) for row in mat):
        raise ValidationError(f"block matrix {mat!r} is not a nonempty square list of rows")

    def conv_exact(x):
        if isinstance(x, str):
            return parse_fr(x)
        if type(x) is int:
            return Fraction(x)
        if isinstance(x, list) and len(x) == 2 and all(isinstance(y, str) or type(y) is int for y in x):
            return (parse_fr(str(x[0])), parse_fr(str(x[1])))
        raise TypeError

    try:
        return [[conv_exact(x) for x in row] for row in mat]
    except TypeError:
        pass

    def conv_float(x):
        parts = x if isinstance(x, list) and len(x) == 2 else (x, 0)
        re, im = (finite_number(parse_fr(y) if isinstance(y, str) else y, f"matrix entry {x!r}") for y in parts)
        return complex(re, im)

    return np.array([[conv_float(x) for x in row] for row in mat], dtype=complex)


def _load_spec(path: str, what: str, int_keys: tuple[str, ...], matrix_key: str) -> dict:
    """A spec file of lists, one entry per block: int_keys (blocks first) hold integers.

    The matrices are refused past K0_ENTRY_CAP entries in all, counted
    from their list shapes before any entry is converted.
    """
    spec = load_json_file(path, "spec file")
    if not isinstance(spec, dict):
        raise ValidationError(f"{what} spec must hold a JSON object")
    for key in int_keys + (matrix_key,):
        val = spec.get(key)
        if not isinstance(val, list) or (key in int_keys and not all(type(x) is int for x in val)):
            raise ValidationError(f"{what} spec needs '{key}' as a list" + (" of integers" if key in int_keys else ""))
        if len(val) != len(spec["blocks"]):
            raise ValidationError(f"{what} spec needs one '{key}' entry per block")
    entries = sum(len(row) if isinstance(row, list) else 1 for m in spec[matrix_key] if isinstance(m, list) for row in m)
    if entries > ktheory.K0_ENTRY_CAP:
        raise DeskScaleError(f"{what} spec has {entries} matrix entries, over the desk-scale cap {ktheory.K0_ENTRY_CAP}")
    return spec


def _u_block(m, rows: int, cols: int) -> np.ndarray:
    """One block of u: a rows x cols complex matrix, [] when empty."""
    try:
        mat = np.array(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"k0 index spec: u block {m!r} is not a numeric matrix") from exc
    if not np.isfinite(mat).all():
        raise ValidationError(f"k0 index spec: u block {m!r} has non-finite entries")
    if mat.shape != (rows, cols) and not mat.size == rows * cols == 0:
        raise ValidationError(f"k0 index spec: u block of shape {mat.shape}, expected ({rows}, {cols})")
    return mat.reshape(rows, cols)


def _cmd_k0_class(args, cfg: Config) -> dict:
    spec = _load_spec(args.spec, "k0 class", ("blocks",), "matrices")
    alg = ktheory.FDAlgebra(tuple(spec["blocks"]))
    mats = [_parse_matrix_entries(m) for m in spec["matrices"]]
    elem = ktheory.AlgebraElement.from_blocks(alg, mats)
    cls = ktheory.k0_class(elem, alg, tol=cfg.tol, gap=cfg.rank_gap)
    return {"blocks": list(alg.blocks), "ranks": list(cls.ranks), "exact": elem.is_exact}


def _cmd_k0_index(args, cfg: Config) -> dict:
    spec = _load_spec(args.spec, "k0 index", ("blocks", "e0", "e1"), "u")
    alg = ktheory.FDAlgebra(tuple(spec["blocks"]))
    e0, e1 = spec["e0"], spec["e1"]
    u = [_u_block(m, b, a) for m, a, b in zip(spec["u"], e0, e1)]
    mod = ktheory.FredholmModule.build(e0, e1, u)
    idx = ktheory.fredholm_index(mod, alg, gap=cfg.rank_gap)
    oracle = ktheory.index_by_kernel_cokernel(mod, alg, gap=cfg.rank_gap)
    return {
        "blocks": list(alg.blocks),
        "index": list(idx.ranks),
        "kernel_cokernel": list(oracle.ranks),
        "agree": idx == oracle,
    }


def _require_seed(cfg: Config) -> int:
    if cfg.seed is None:
        raise ValidationError("this subcommand is randomized: --seed is required")
    if cfg.seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {cfg.seed}")
    return int(cfg.seed)


def _group_arg(args):
    """The group of a group subcommand, by --table or --name, and the
    label its output echoes as "group"."""
    if args.table:
        return ktheory.table_from_rows(load_json_file(args.table, "table file")), args.table
    if not args.name:
        raise ValidationError("give --name or --table")
    return args.name, args.name


def _cmd_group_wedderburn(args, cfg: Config) -> dict:
    seed = _require_seed(cfg)
    group, name = _group_arg(args)
    G = ktheory.wedderburn(group, seed=seed)
    return {
        "group": name,
        "order": G.order,
        "blocks": list(G.algebra.blocks),
        "classes": [list(c) for c in G.classes],
        "seed": seed,
    }


def _cmd_group_idempotent(args, cfg: Config) -> dict:
    seed = _require_seed(cfg)
    if args.block < 0:
        raise ValidationError("block index out of range")
    group, name = _group_arg(args)
    G = ktheory.wedderburn(group, seed=seed, block=args.block)
    p = ktheory.ds_idempotent(G, args.block)
    err = float(np.max(np.abs(ktheory.convolve(p, p, G) - p)))
    cls = ktheory.group_function_class(p, G)
    return {
        "group": name,
        "block": args.block,
        "block_dimension": G.algebra.blocks[args.block],
        "idempotency_error": err,
        "trace": ktheory.trace_pairing(p, G),
        "k0_class": list(cls.ranks),
        "coefficients": [[float(c.real), float(c.imag)] for c in p],
        "seed": seed,
    }


def _rd_group(args):
    """The marked group of an rd subcommand, after checking that --s and
    --radius, where given, are finite and nonnegative: a norm that
    does not read one of them still echoes it."""
    for name in ("s", "radius"):
        val = getattr(args, name, None)
        if val is not None and finite_number(val, f"--{name}") < 0:
            raise ValidationError(f"{name} must be a nonnegative finite number, got {val}")
    return rapid_decay.parse_group(args.group)


def _load_group_function(args, group):
    return rapid_decay.function_from_json(load_json_file(args.input, "input file"), group)


def _cmd_rd_norms(args, cfg: Config) -> dict:
    group = _rd_group(args)
    f = _load_group_function(args, group)
    report = rapid_decay.compute_norm_report(f, group, args.s, args.radius, tol=cfg.power_tol)
    return {"group": args.group, **asdict(report)}


def _default_probe_function(group) -> dict:
    """Sum of deltas over the unit ball: identity plus generators."""
    return {g: 1.0 + 0j for g in group.ball(1)}


def _cmd_rd_probe_unconditional(args, cfg: Config) -> dict:
    seed = _require_seed(cfg)
    group = _rd_group(args)
    f = _load_group_function(args, group) if args.input else _default_probe_function(group)
    radius = args.radius
    if args.norm == "reduced_truncated" and radius is None:
        radius = float(rapid_decay.support_radius(f, group) + 8)
    spec = rapid_decay.NormSpec(name=args.norm, s=args.s, radius=radius)
    rep = rapid_decay.unconditionality_probe(spec, f, group, args.trials, seed)
    return {
        "group": args.group,
        "norm": {"name": spec.name, "s": spec.s, "radius": spec.radius},
        "base_value": rep.base_value,
        "max_deviation": rep.max_deviation,
        "trials": rep.trials,
        "seed": rep.seed,
        "witness": rapid_decay.function_to_json(rep.witness) if rep.witness else None,
    }


def _cmd_rd_probe_rd(args, cfg: Config) -> dict:
    seed = _require_seed(cfg)
    group = _rd_group(args)
    rep = rapid_decay.rd_inequality_probe(
        group,
        args.s,
        args.samples,
        seed,
        sphere_supported=args.spheres,
    )
    return {
        "group": args.group,
        "s": rep.s,
        "samples": rep.samples,
        "seed": rep.seed,
        "max_ratio": rep.max_ratio,
        "ratios": list(rep.ratios),
        "note": rep.note,
    }


# ---------------------------------------------------------------------------
# Parser assembly


def _arg(*flags, **kwargs) -> tuple:
    return flags, kwargs  # one add_argument call, as data


_PAIR = _arg("--pair", required=True)
_DEGREE_ROOTS = _arg("--degree-roots", choices=dirac.DEGREE_ROOT_CHOICES, default=None)
_NAME = _arg("--name", default=None, help="z<n>, s3, s4, d4, q8")
_TABLE = _arg("--table", default=None, help="JSON file with a multiplication table")
_SEED = _arg("--seed", type=int, default=None)

# group -> (help, {leaf -> (help, handler, arguments)}): the one place a
# leaf's arguments are declared, for its own parser and for the tree.
_COMMANDS = {
    "rootsys": ("root system info", {
        "info": ("roots, form, rho, Weyl order", _cmd_rootsys_info, [
            _arg("type", help="Cartan type, e.g. A2 or A1xA1")]),
    }),
    "rep": ("representation ring", {
        "irr": ("irreducible character data", _cmd_rep_irr, [
            _arg("--type", required=True), _arg("--hw", required=True, help="highest weight coords, e.g. 1,0")]),
        "tensor": ("decompose a tensor product", _cmd_rep_tensor, [
            _arg("--type", required=True), _arg("--hw", required=True), _arg("--hw2", required=True)]),
    }),
    "spin": ("spin modules of catalog pairs", {
        "info": ("grading, spin dims, liftability", _cmd_spin_info, [_PAIR]),
    }),
    "ds": ("discrete series classification", {
        "induct": ("induce one K-type", _cmd_ds_induct, [
            _PAIR, _arg("--hw", required=True, help="K-type coords, e.g. 3/2"), _DEGREE_ROOTS]),
        "enumerate": ("all parameters within a norm bound", _cmd_ds_enumerate, [
            _PAIR, _arg("--bound", required=True, help="bound on (lambda,lambda), e.g. 60 or 9/2"), _DEGREE_ROOTS]),
    }),
    "k0": ("K0 classes and Fredholm indices", {
        "class": ("K0 class of an idempotent (JSON spec)", _cmd_k0_class, [
            _arg("--spec", required=True, help="JSON: {blocks, matrices}")]),
        "index": ("stabilized Fredholm index (JSON spec)", _cmd_k0_index, [
            _arg("--spec", required=True, help="JSON: {blocks, e0, e1, u}")]),
    }),
    "group": ("finite group convolution algebras", {
        "wedderburn": ("block decomposition of a group algebra", _cmd_group_wedderburn, [_NAME, _TABLE, _SEED]),
        "idempotent": ("matrix-coefficient idempotent of one block", _cmd_group_idempotent, [
            _NAME, _TABLE, _arg("--block", type=int, required=True), _SEED]),
    }),
    "rd": ("norms on discrete group algebras", {
        "norms": ("l1 / Sobolev / truncated reduced bracket", _cmd_rd_norms, [
            _arg("--group", required=True, help="z, z<d>, f<k>"), _arg("--s", type=float, required=True),
            _arg("--input", required=True, help="JSON group function"), _arg("--radius", type=float, required=True)]),
        "probe-unconditional": ("phase-flip deviation of a norm", _cmd_rd_probe_unconditional, [
            _arg("--group", required=True),
            _arg("--norm", choices=("l1", "hs", "reduced_truncated"), default="reduced_truncated"),
            _arg("--s", type=float, default=None), _arg("--radius", type=float, default=None),
            _arg("--input", default=None, help="JSON group function (default: unit-ball deltas)"),
            _arg("--trials", type=int, default=100), _SEED]),
        "probe-rd": ("empirical rapid-decay ratio probe", _cmd_rd_probe_rd, [
            _arg("--group", required=True), _arg("--s", type=float, required=True),
            _arg("--samples", type=int, default=50), _SEED,
            _arg("--spheres", action="store_true", help="sphere-supported samples")]),
    }),
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports a usage error on one stderr line, like every other failure."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _add_leaf(p: argparse.ArgumentParser, handler, arguments) -> argparse.ArgumentParser:
    for flags, kwargs in arguments:
        p.add_argument(*flags, **kwargs)
    p.add_argument("--format", choices=("json", "table"), default=None, help="output format")
    p.add_argument("--schema", action="store_true", help="print the output JSON schema and exit")
    p.add_argument("--catalog", default=None, help="pair catalog path (or DIRAC_ATLAS_CATALOG)")
    p.add_argument("--config", default=None, help="JSON config file; unknown keys are rejected")
    p.set_defaults(handler=handler)
    return p


@functools.cache
def _leaf_parser(group: str, leaf: str) -> argparse.ArgumentParser:
    """The parser of one leaf alone, with the prog and usage it has in the tree."""
    _, handler, arguments = _COMMANDS[group][1][leaf]
    return _add_leaf(_Parser(prog=f"dirac-atlas {group} {leaf}"), handler, arguments)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="dirac-atlas",
        description="Exact discrete-series classification and desk-scale K-theory/norm laboratories.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for group, (group_help, leaves) in _COMMANDS.items():
        ssub = sub.add_parser(group, help=group_help).add_subparsers(dest="subcommand", required=True)
        for leaf, (leaf_help, handler, arguments) in leaves.items():
            _add_leaf(ssub.add_parser(leaf, help=leaf_help), handler, arguments)
    return ap


def _parse(argv) -> argparse.Namespace:
    """The namespace of one call: a group and one of its leaves go to that
    leaf's parser alone, any other argv to the whole tree."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) < 2 or argv[1] not in _COMMANDS.get(argv[0], (None, ()))[1]:
        return build_parser().parse_args(argv)
    p = _leaf_parser(argv[0], argv[1])
    args, extra = p.parse_known_args(argv[2:])
    if extra:
        p.exit(EXIT_VALIDATION, f"dirac-atlas: error: unrecognized arguments: {' '.join(extra)}\n")
    args.command, args.subcommand = argv[:2]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if args.schema:
        print(render_json(SCHEMAS[f"{args.command}.{args.subcommand}"]))
        return EXIT_OK
    try:
        cfg = load_config(args.config, args)
        _emit(args.handler(args, cfg), cfg.format)
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalAmbiguityError as exc:
        print(f"numerical ambiguity: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
