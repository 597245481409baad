"""Output checks: exit codes, schemas, the recorded reference, invariants.

Every check here is independent of the code path that produced the
output: exact fields are compared with digests recorded once at the
benchmark's first commit (or with facts known by construction of the
generated inputs), and float outputs are tested by invariants.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import jsonschema

TAU = 1e-9


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def wedderburn_exact(payload: dict) -> str:
    """Digest of the exact fields of a Wedderburn output."""
    return digest(json.dumps([payload["order"], payload["blocks"], payload["classes"]]))


# --- Weyl dimension from Dynkin data -------------------------------------------

def _simple_gram(fam: str, n: int) -> list[list[Fraction]]:
    """(a_i, a_j) for Bourbaki-numbered simple roots, long roots of length^2 2."""
    half = Fraction(1, 2)
    if fam == "G":
        return [[Fraction(2, 3), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    length = {
        "A": [2] * n, "D": [2] * n, "E": [2] * n,
        "B": [2] * (n - 1) + [1], "C": [1] * (n - 1) + [2], "F": [2, 2, 1, 1],
    }[fam]
    if fam in "ABC":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif fam == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif fam == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        edges = [(a - 1, b - 1) for a, b in zip(chain, chain[1:])] + [(1, 3)]
    else:
        edges = [(0, 1), (1, 2), (2, 3)]
    gram = [[Fraction(length[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i, j in edges:
        val = -half if length[i] == length[j] == 1 else Fraction(-1)
        gram[i][j] = gram[j][i] = val
    return gram


def positive_roots(gram) -> list[tuple[Fraction, ...]]:
    """Positive roots in simple-root coordinates, by closure under reflections."""
    n = len(gram)
    simple = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    seen, frontier = set(simple), list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(n):
                c = 2 * sum(beta[j] * gram[j][i] for j in range(n)) / gram[i][i]
                img = tuple(b - (c if j == i else 0) for j, b in enumerate(beta))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return [r for r in seen if all(c >= 0 for c in r)]


_ROOTS: dict[str, tuple] = {}


def weyl_dimension(cartan: str, hw: list[str]) -> Fraction:
    """prod over a > 0 of (hw + rho, a) / (rho, a), for a simple type."""
    if cartan not in _ROOTS:
        gram = _simple_gram(cartan[0], int(cartan[1:]))
        _ROOTS[cartan] = (gram, positive_roots(gram))
    gram, roots = _ROOTS[cartan]
    lam = [Fraction(x) for x in hw]
    # fundamental-weight coordinate x_i = 2(x, a_i)/(a_i, a_i)
    half_len = [gram[i][i] / 2 for i in range(len(gram))]
    out = Fraction(1)
    for r in roots:
        num = sum(k * d * (x + 1) for k, d, x in zip(r, half_len, lam))
        den = sum(k * d for k, d in zip(r, half_len))
        out *= num / den
    return out


# --- per-request checks ----------------------------------------------------------

def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _word_length(group: str, g) -> int:
    return len(g) if group.startswith("f") else sum(abs(x) for x in g)


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _invariants(req: dict, out: dict) -> list[str]:
    kind, argv, chk = req["kind"], req["argv"], req["check"]
    bad = []
    if kind == "rep.irr":
        if str(out["dimension"]) != out["weyl_dimension"]:
            bad.append("dimension != weyl_dimension")
        if out["dimension"] != weyl_dimension(out["type"], out["highest_weight"]):
            bad.append("dimension != independent Weyl dimension")
    elif kind == "rep.tensor":
        t = out["type"]
        total = sum(d["mult"] * weyl_dimension(t, d["weight"]) for d in out["decomposition"])
        if total != weyl_dimension(t, out["hw1"]) * weyl_dimension(t, out["hw2"]):
            bad.append("sum mult*dim != dim1*dim2")
    elif kind == "spin.info":
        if out["equal_rank"] and out["dim_s_plus"] + out["dim_s_minus"] != 2 ** out["n_noncompact_positive"]:
            bad.append("dim S+ + dim S- != 2^n")
    elif kind in ("ds.induct", "ds.enumerate"):
        params = out["parameters"] if kind == "ds.enumerate" else [out["parameter"]] * bool(out["ok"])
        if kind == "ds.enumerate" and out["count"] != len(params):
            bad.append("count != len(parameters)")
        if kind == "ds.induct" and out["ok"] != (out["parameter"] is not None):
            bad.append("ok disagrees with parameter")
        for p in params:
            if Fraction(p["formal_degree"]) != abs(Fraction(p["signed_trace"])):
                bad.append("formal_degree != |signed_trace|")
                break
    elif kind == "k0.class":
        if out["ranks"] != chk["ranks"] or out["exact"] != chk["exact"]:
            bad.append(f"ranks {out['ranks']} exact {out['exact']}, built {chk['ranks']} exact {chk['exact']}")
    elif kind == "k0.index":
        if not (out["index"] == out["kernel_cokernel"] == chk["index"]) or not out["agree"]:
            bad.append(f"index {out['index']} / {out['kernel_cokernel']}, built {chk['index']}")
    elif kind == "group.wedderburn":
        blocks, classes = out["blocks"], out["classes"]
        if sum(d * d for d in blocks) != out["order"]:
            bad.append("sum d^2 != |G|")
        if len(blocks) != len(classes):
            bad.append("blocks != conjugacy classes")
        if sorted(x for c in classes for x in c) != list(range(out["order"])):
            bad.append("classes do not partition G")
        if "blocks" in chk and (blocks != chk["blocks"] or len(classes) != chk["classes"]):
            bad.append("blocks or class count differ from the known group")
    elif kind == "group.idempotent":
        dims = chk["block_dims"]
        block = out["block"]
        if out["block_dimension"] != dims[block]:
            bad.append("block_dimension differs from the known group")
        if out["k0_class"] != [int(i == block) for i in range(len(dims))]:
            bad.append("k0_class is not the unit vector of the block")
        if not out["idempotency_error"] <= TAU:
            bad.append(f"idempotency_error {out['idempotency_error']:.3e} > {TAU}")
        if not abs(out["trace"] - out["block_dimension"]) <= TAU:
            bad.append("|trace - block dimension| > 1e-9")
        if len(out["coefficients"]) != sum(d * d for d in dims):
            bad.append("coefficient vector has the wrong length")
    elif kind == "rd.norms":
        if not out["red_lower"] <= out["red_upper"] * (1 + 1e-12):
            bad.append("red_lower > red_upper")
        group, s = out["group"], chk["s"]
        coeffs = [(it["g"], complex(it["re"], it["im"])) for it in chk["items"]]
        l1 = sum(abs(c) for _, c in coeffs)
        hs = math.sqrt(sum(((1 + _word_length(group, g)) ** s * abs(c)) ** 2 for g, c in coeffs))
        if not (_close(out["l1"], l1) and _close(out["red_upper"], l1) and _close(out["hs"], hs)):
            bad.append("l1 / hs differ from the input function")
    elif kind == "rd.probe-unconditional":
        if out["trials"] != int(_arg(argv, "--trials", 100)) or out["seed"] != int(_arg(argv, "--seed")):
            bad.append("trials or seed not echoed")
        if not out["max_deviation"] >= 0:
            bad.append("negative deviation")
        if out["norm"]["name"] in ("l1", "hs") and out["max_deviation"] > TAU * max(1.0, out["base_value"]):
            bad.append("phase flips moved a norm that only sees |f|")
    elif kind == "rd.probe-rd":
        ratios = out["ratios"]
        if len(ratios) != out["samples"] or out["max_ratio"] != max(ratios) or min(ratios) <= 0:
            bad.append("ratios inconsistent with samples / max_ratio")
        if "--spheres" in argv and out["s"] == 1.0 and out["group"].startswith("f"):
            if out["max_ratio"] > 1 + 1e-9:
                bad.append(f"Haagerup bound violated: max_ratio {out['max_ratio']} > 1")
    return bad


def check_request(req: dict, res: dict, schemas: dict, reference: dict) -> tuple[str, str] | None:
    """None if the request met its contract, else (category, reason).

    Category "exit" is a wrong exit code; "output" is a wrong answer.
    """
    rc, stdout, stderr = res["rc"], res["stdout"], res["stderr"]
    if rc != req["expect"]:
        how = " with a traceback" if res["traceback"] else ""
        return "exit", f"exit {rc}{how}, expected {req['expect']}"
    if rc != 0:
        lines = stderr.strip().splitlines()
        if len(lines) != 1 or "Traceback" in stderr or stdout:
            return "exit", f"exit {rc} without a one-line message"
        return None
    try:
        out = json.loads(stdout)
        jsonschema.validate(out, schemas[req["kind"]])
    except (ValueError, jsonschema.ValidationError) as exc:
        return "output", f"schema: {str(exc).splitlines()[0]}"
    key = req["ref"]
    if key is not None:
        want = reference["outputs"].get(key)
        got = wedderburn_exact(out) if req["kind"] == "group.wedderburn" else digest(stdout)
        if want is None:
            return "output", f"no reference for {key!r}"
        if got != want:
            return "output", "exact fields differ from the reference"
    try:
        bad = _invariants(req, out)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        bad = [f"malformed output: {exc!r}"]
    if bad:
        return "output", "; ".join(bad)
    return None
