"""Desk rows: cold, digest-checked runs of the ROADMAP Baseline requests.

    python3 tools/desk_rows.py [--runs 3] [--timeout 60] [--only rep] [--out rows.json]

Run from the root of a checkout. Each row of ROWS is one `dirac-atlas`
request. Its inputs (a catalog of Hermitian and compact exceptional
pairs, rd group functions, the order-1000 dihedral table) are written to
a scratch directory first. Every run is a fresh `python -m
dirac_atlas.cli` interpreter on the checkout's `src/`, started by a small
parent interpreter of its own, so that the parent's RUSAGE_CHILDREN peak
is the run's peak RSS. The environment pins OPENBLAS_NUM_THREADS=1,
PYTHONHASHSEED=0 and MALLOC_MMAP_THRESHOLD_=131072 (the glibc mmap
threshold, which otherwise moves the peak of large runs by several MB
with allocation order). A run that passes --timeout is killed and
reported as "timeout". Each row checks its exit code and the sha256 of
its stdout against the table. The last line printed is one JSON object:
per row, the wall seconds and peak MB of every run, their median and
range, and the status.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENV = {"OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": "131072"}
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


class Row(NamedTuple):
    """One Baseline request: argv after `dirac-atlas`, the generated
    inputs it reads (names of INPUTS), its exit code, the sha256 of its
    stdout, and the ROADMAP item that owns it."""

    argv: tuple[str, ...]
    inputs: tuple[str, ...]
    exit: int
    sha256: str
    owner: int


def _row(argv: str, exit: int, owner: int, sha256: str) -> Row:
    """A row from its argv as one space-separated string; its inputs are
    the argv words that name an entry of INPUTS."""
    words = tuple(argv.split())
    return Row(words, tuple(w for w in words if w.endswith(".json")), exit, sha256, owner)


# The stdout digests were recorded at the parent of the change that added
# this file, except two rows that the parent did not admit in desk time:
# E8 3875 (x) 3875, which it refused with exit 2 after building the
# product, and the E7 row, whose smaller factor has 98 157 weights, the
# largest support found under SUPPORT_CAP. Brauer-Klimyk admits both.
# The last three ds rows were recorded when chamber ids came to be ranked
# without building W (item 18): before, every ds request on an E7 or E8
# pair exited 2 from WEYL_MATERIALIZE_CAP. Bound 4 is the largest that the
# lattice box admits on compact E8, and it holds no parameter; the e7h
# K-type lies in chamber 881 303, a breadth-first position of length 27.
ROWS = (
    _row("rep tensor --type D4 --hw 2,2,2,2 --hw2 2,2,2,2", 0, 2,
         "62e46d9ae285409ee4a5510e69eb37e81622827d61ded9938636965bb3e0eb3f"),
    _row("rep tensor --type D4 --hw 2,2,2,2 --hw2 1,1,1,1", 0, 2,
         "1548cf61f47a79e3365a5fad4fd8b4850ef056b9d22a2c11aec414ae731270bb"),
    _row("rep tensor --type F4 --hw 1,1,1,1 --hw2 1,0,0,1", 0, 2,
         "b9d8a2f0b422100a05ffdbdbfb583df840df83ae779cf1ee092b1ca6ba056a1b"),
    _row("rep tensor --type B4 --hw 1,1,1,1 --hw2 1,1,1,1", 0, 2,
         "0d9f3077dba7ac8a73aefc33f2a1e062f7fa8c69ee13b96b5fc6f07d93d5087c"),
    _row("rep tensor --type E8 --hw 1,0,0,0,0,0,0,0 --hw2 1,0,0,0,0,0,0,0", 0, 2,
         "88dd1a4e42bd66dd5ae278c9a17a139e967e464aeb24d8cd38d900a8b13315c0"),
    _row("rep tensor --type E8 --hw 0,0,0,0,0,0,0,1 --hw2 0,0,0,0,0,0,0,1", 0, 2,
         "26c11e88b20d7ad8eeb7dd1cca9469a131ee0efd90e8f82cd971b9db3ff72de2"),
    _row("rep tensor --type E7 --hw 0,0,1,0,0,1,0 --hw2 0,0,1,0,0,1,0", 0, 14,
         "f57773de465013132a8e11ac7a0a34265c4294707cabdb150a624801521020dd"),
    _row("spin info --pair e6h --catalog pairs.json", 0, 6,
         "b28c762983848b1e3f3b750c47443df29c97408f2becaf8a87401f5405af9749"),
    _row("spin info --pair e7h --catalog pairs.json", 2, 6, EMPTY),
    _row("spin info --pair e8h --catalog pairs.json", 2, 6, EMPTY),
    _row("ds enumerate --pair e6h --bound 24 --catalog pairs.json", 0, 13,
         "aaba1b361f73889460baf247695a90fba73849e814b980768a71d38d38653a66"),
    _row("ds enumerate --pair e6h --bound 25 --catalog pairs.json", 2, 13, EMPTY),
    _row("ds enumerate --pair c5h --bound 30 --catalog pairs.json", 0, 13,
         "a5b3d2a9f34b9b7f44214601329b1befe31ec71beef0b6e14d195e5bbb596046"),
    _row("ds enumerate --pair compact_d4 --bound 150", 0, 13,
         "ce3e0882c011ad5915ebbd4ea325c0bf61b5e8adeab4c9802b304dc330c27039"),
    _row("ds induct --pair compact_e6 --hw 0,0,0,0,0,0 --catalog pairs.json", 0, 18,
         "7723197fc328b8e88f3cf2001aa0302af81a81e751124931e79f60961085b713"),
    _row("ds induct --pair compact_e8 --hw 0,0,0,0,0,0,0,0 --catalog pairs.json", 0, 18,
         "66290de97765e5aac9a0772de8c0217534f2499033fbe446c40821313dec9a87"),
    _row("ds enumerate --pair compact_e8 --bound 4 --catalog pairs.json", 0, 18,
         "dde814decc8ed958346fcb2503f9fba5f870b7c9a0aed1f42eeea58cc07ad52c"),
    _row("ds induct --pair e7h --hw 0,0,0,0,0,0,-9 --catalog pairs.json", 0, 18,
         "836aca86b94571d9b6669ea1dff3f2504f70fd4c7eb1a6edcdaaea09c3178950"),
    _row("rd probe-unconditional --group f2 --seed 1", 0, 4,
         "2373c29504a689a09de8c1355b54a9df22efd3a0ddcd33593e032b55c318e8dd"),
    _row("rd norms --group z --radius 200000 --s 1 --input zf.json", 0, 4,
         "9fabf977f230e66d69d45d35454cd911b5d89df37649f0b27eb1504fa931cafa"),
    _row("rd norms --group z3 --radius 60 --s 1 --input z3f.json", 0, 4,
         "7d7a23f51ac657eef45465912ff49ff973f3b90567c2c1e1a9b734aa500e826a"),
    _row("rd norms --group f2 --radius 11 --s 1 --input f2f.json", 0, 4,
         "08de26f1f0f182658c45a6ae5b417f3452d5870bd168c6066443a8e61a315dac"),
    _row("group wedderburn --name z1000 --seed 0", 0, 8,
         "ec4f9703f61f5a6273c3568d68216e8fa5af46556506140cb136b4dd9a432a69"),
    _row("group wedderburn --table d1000.json --seed 0", 0, 8,
         "5c89e2718eea9a4795c9e3a78d586fe535a12b737cc2c5492cb2725d7dc81f0b"),
    _row("group idempotent --name z1000 --block 7 --seed 0", 0, 8,
         "d85534d89f1b5eb7e66a55cead09aae4ec69d92766f37059907b98c51544c89b"),
    _row("group wedderburn --name z1000 --seed 12", 3, 8, EMPTY),
)


def _pairs_catalog() -> dict:
    """One pair per Hermitian grading (C5 at node 5, E6 at node 2, E7 at
    node 7, E8 at node 1: a root is compact when its simple-root
    coefficient at the node is even), and the compact E6 and E8 pairs."""
    from dirac_atlas.jsonutil import vec_str
    from dirac_atlas.rootsys import build_root_system, fw_to_simple_coords, parse_cartan

    pairs = {}
    for name, cartan, node in (("c5h", "C5", 5), ("e6h", "E6", 2), ("e7h", "E7", 7), ("e8h", "E8", 1)):
        g = build_root_system(parse_cartan(cartan))
        compact = [r for r in g.positive_roots if fw_to_simple_coords(r, g)[node - 1] % 2 == 0]
        pairs[name] = {"cartan": cartan, "compact": [vec_str(r) for r in compact]}
    for cartan in ("E6", "E8"):
        pairs[f"compact_{cartan.lower()}"] = {"cartan": cartan, "compact": "all"}
    return {"version": 1, "pairs": pairs}


def _dihedral_1000() -> list:
    from dirac_atlas.ktheory import dihedral_table

    return dihedral_table(500).tolist()


# name -> JSON content, built on demand
INPUTS = {
    "pairs.json": _pairs_catalog,
    "zf.json": lambda: [{"g": [0], "re": 1.0}, {"g": [1], "re": 1.0}],
    "z3f.json": lambda: [{"g": [0, 0, 0], "re": 1.0}, {"g": [1, 0, 0], "re": 0.5, "im": 0.5},
                         {"g": [0, -1, 0], "re": -0.75}, {"g": [0, 0, 2], "im": 0.25}],
    "f2f.json": lambda: [{"g": [], "re": 0.5}, {"g": [1], "re": 1.5, "im": 1.5}, {"g": [-1], "re": -1, "im": -1},
                         {"g": [2, 1], "im": 0.25}],
    "d1000.json": _dihedral_1000,
}

# The small parent of one run: it starts the CLI, and reports its exit
# code, wall seconds, peak RSS and stdout digest as one JSON line.
_MEASURE = r"""
import hashlib, json, resource, subprocess, sys, time
argv, timeout = json.loads(sys.argv[1])
t0 = time.perf_counter()
try:
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout)
except subprocess.TimeoutExpired:
    print(json.dumps({"timeout": True, "wall_s": round(time.perf_counter() - t0, 3)}))
    sys.exit(0)
wall = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps({"exit": done.returncode, "wall_s": round(wall, 3), "peak_mb": round(peak, 1),
                  "sha256": hashlib.sha256(done.stdout).hexdigest(), "stderr": done.stderr.decode()[-300:]}))
"""


def row_name(row: Row) -> str:
    return " ".join(row.argv)


def write_inputs(directory: Path, names) -> None:
    for name in sorted(set(names)):
        (directory / name).write_text(json.dumps(INPUTS[name]()))


def run_once(row: Row, cwd: Path, timeout: float) -> dict:
    env = dict(os.environ, **ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("DIRAC_ATLAS_CATALOG", None)
    argv = [sys.executable, "-m", "dirac_atlas.cli", *row.argv]
    done = subprocess.run([sys.executable, "-c", _MEASURE, json.dumps([argv, timeout])],
                          cwd=cwd, env=env, stdout=subprocess.PIPE, check=True, timeout=timeout + 30)
    return json.loads(done.stdout)


def _spread(values: list) -> dict:
    return {"median": round(statistics.median(values), 3), "min": min(values), "max": max(values)}


def run_row(row: Row, cwd: Path, runs: int, timeout: float) -> dict:
    results = []
    for _ in range(runs):
        res = run_once(row, cwd, timeout)
        results.append(res)
        if res.get("timeout"):
            break
    out = {"argv": list(row.argv), "owner": row.owner, "wall_s": [r["wall_s"] for r in results]}
    if any(r.get("timeout") for r in results):
        out["status"] = "timeout"
        return out
    out["peak_mb"] = [r["peak_mb"] for r in results]
    out["wall"], out["peak"] = _spread(out["wall_s"]), _spread(out["peak_mb"])
    exits = {r["exit"] for r in results}
    digests = {r["sha256"] for r in results}
    out["exit"], out["sha256"] = sorted(exits), sorted(digests)
    if exits != {row.exit}:
        out["status"] = "exit mismatch"
        out["stderr"] = results[-1]["stderr"]
    elif digests != {row.sha256}:
        out["status"] = "digest mismatch"
    else:
        out["status"] = "ok"
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=3, help="cold runs per row")
    ap.add_argument("--timeout", type=float, default=60.0, help="seconds per run before it is killed")
    ap.add_argument("--only", default="", help="run only the rows whose argv contains this text")
    ap.add_argument("--out", default=None, help="also write the JSON result to this file")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    rows = [row for row in ROWS if args.only in row_name(row)]
    report = {"env": ENV, "runs": args.runs, "timeout_s": args.timeout, "python": sys.version.split()[0], "rows": {}}
    with tempfile.TemporaryDirectory(prefix="desk-rows-") as tmp:
        write_inputs(Path(tmp), [name for row in rows for name in row.inputs])
        for row in rows:
            res = run_row(row, Path(tmp), args.runs, args.timeout)
            report["rows"][row_name(row)] = res
            print(f"{res['status']:>15}  {res.get('wall', {}).get('median', '-'):>8}  {row_name(row)}", flush=True)
    text = json.dumps(report)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0 if all(r["status"] == "ok" for r in report["rows"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
