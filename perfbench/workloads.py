"""Seeded request streams for the three benchmark workloads.

A stream is a list of requests. Each request carries the argv handed to
`dirac_atlas.cli.main`, the schema key of its output, the exit code the
README contract demands, and whatever the checker needs to verify the
output independently (a reference key, or facts known by construction).

The seed decides the order of the stream, the light parameters (in labs
only their contents, not their sizes) and the generated input files. The
heavy requests and the count of requests in each class are fixed, so
every seed asks for about the same work and the run-to-run spread
measures the program, not the draw.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

WORKLOADS = ("classify", "characters", "labs")

# --- classify ---------------------------------------------------------------

INFO_TYPES = ("A1", "A1xA1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4")
CATALOG_PAIRS = (
    "sl2r", "su21", "sp4r", "sl2c",
    "compact_a1", "compact_a2", "compact_a3", "compact_a4",
    "compact_b2", "compact_b3", "compact_b4",
    "compact_c2", "compact_c3", "compact_c4",
    "compact_d4", "compact_f4", "compact_g2",
)
ENUM_SMALL = (
    ("sl2r", 30), ("su21", 30), ("sp4r", 20), ("compact_a2", 30), ("compact_b2", 25), ("compact_g2", 25),
    ("compact_a3", 20), ("compact_b3", 20), ("compact_c3", 20),
)
ENUM_HEAVY = (("compact_d4", 30),)
# Many enumerations of about the same cost, on every seed, so that
# latency_p90_s falls on a plateau and does not jump with the seed.
ENUM_PLATEAU = (("su21", (28, 30, 32)), ("sp4r", (18, 20, 22)))
ENUM_PLATEAU_EACH = 2
# ds induct: (pair, category, count per stream). Categories come from
# the reference, which classified a box of K-types at the seed commit.
INDUCT_PLAN = (
    ("sl2r", "regular", 4), ("sl2r", "singular", 1),
    ("su21", "regular", 5), ("su21", "singular", 3),
    ("sp4r", "regular", 5), ("sp4r", "singular", 3),
    ("sl2c", "unequal", 4),
    ("su21", "refused", 2), ("sp4r", "refused", 1),
) + tuple((p, "regular", 2) for p in CATALOG_PAIRS if p.startswith("compact_"))


def induct_box(pair: str) -> list[str]:
    """K-type coordinates the reference classifies for one pair."""
    rank = {"sl2r": 1, "su21": 2, "sp4r": 2, "sl2c": 2, "compact_a1": 1}.get(pair)
    if rank is None:
        rank = 2 if pair[-1] == "2" else int(pair[-1])
    if rank <= 2:
        vals = [Fraction(k, 2) for k in range(-6, 7)]
    else:
        vals = [Fraction(k) for k in range(-1, 3)]
    out = [()]
    for _ in range(rank):
        out = [t + (v,) for t in out for v in vals]
    return [",".join(str(c) for c in t) for t in out]


# --- characters -------------------------------------------------------------

IRR_HEAVY = (("E6", "0,1,0,0,0,0"), ("E6", "1,0,0,0,0,0"), ("F4", "1,0,0,0"), ("F4", "0,0,0,1"))
# Every fundamental weight of these types, and every product of two of
# them for rank 3, on every seed and in a fixed order: the tail where
# latency_p90_s falls. The seeded light traffic uses other types, so it
# never warms the caches these requests read.
IRR_FUNDAMENTAL_TYPES = ("A3", "B3", "C3", "A4", "B4", "C4", "D4")
TENSOR_PLATEAU_TYPES = ("A3", "B3", "C3")
TENSOR_HEAVY = (("B3", "1,1,1", "1,0,1"),)
LIGHT_TYPES = ("A1", "A2", "B2", "C2", "G2")
IRR_DISTINCT, IRR_REPEATS = 4, 2
TENSORS_PER_TYPE = 3


def fundamentals(cartan: str) -> list[str]:
    return [w for w in light_weights(cartan) if sum(map(int, w.split(","))) == 1]


def light_weights(cartan: str) -> list[str]:
    """Dominant weights with coordinate sum 1 to 4 (A1), 1 to 2 (rank 2) or 1 (fundamental)."""
    rank = int(cartan[1:])
    top = 4 if rank == 1 else 2 if rank == 2 else 1
    out = [()]
    for _ in range(rank):
        out = [t + (v,) for t in out for v in range(top + 1)]
    return [",".join(map(str, t)) for t in out if 1 <= sum(t) <= top]


# --- labs -------------------------------------------------------------------

CATALOG_GROUPS = {"s3": (1, 1, 2), "s4": (1, 1, 2, 3, 3), "d4": (1, 1, 1, 1, 2), "q8": (1, 1, 1, 1, 2)}
# The sizes of the light labs requests are fixed, so that every seed has
# the same spread of request costs and latency_p50_s, which falls among
# them, does not move with the draw. The seed picks the order, the
# idempotent --block, the ranks and entries of the generated inputs, and
# the program seeds.
CYCLIC_WEDDERBURN = (6, 9, 12, 15, 18, 21)
CYCLIC_IDEMPOTENT = (8, 12, 16, 20)
K0_CLASS_BLOCKS = ((2,), (4,), (1, 3), (2, 2), (3, 4), (4, 1), (1, 2, 3), (2, 4, 3))
K0_INDEX_BLOCKS = ((1,), (2,), (3,), (1, 2), (2, 3), (3, 1), (2, 2), (1, 2, 3), (3, 2, 1), (2, 3, 3))
WEDDERBURN_HEAVY = "z128"
DIHEDRAL_N = 50  # order 100
PROBE_RD_HEAVY = ("f2", 4, 3)  # group, samples, program seed
# The probes' cost depends on their program seed, so they keep fixed seeds:
# the tail of the latency distribution is then the same on every stream seed.
PROBE_SEED = 7


# --- shared -----------------------------------------------------------------

def hw_args(hw: str) -> list[str]:
    """--hw with its value; a leading minus would read as a flag, so join it."""
    return [f"--hw={hw}"] if hw.startswith("-") else ["--hw", hw]


def _req(argv, kind, expect=0, ref=None, **check):
    return {"argv": list(argv), "kind": kind, "expect": expect, "ref": ref, "check": check}


def ref_key(argv) -> str:
    """Reference key: the argv with randomization seeds dropped."""
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a == "--seed":
            skip = True
        else:
            out.append(a)
    return " ".join(out)


class _Files:
    """Writes the generated input files under one work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.n = 0

    def write(self, stem: str, payload, raw: bool = False) -> str:
        self.n += 1
        path = os.path.join(self.workdir, f"{stem}-{self.n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload if raw else json.dumps(payload))
        return path

    def missing(self) -> str:
        return os.path.join(self.workdir, "does-not-exist.json")


def _background(files: _Files) -> list[dict]:
    """One tiny request per subcommand, so every layer is reached."""
    return [
        _req(["rootsys", "info", "A2"], "rootsys.info", ref=True),
        _req(["rep", "irr", "--type", "A2", "--hw", "1,0"], "rep.irr", ref=True),
        _req(["rep", "tensor", "--type", "A2", "--hw", "1,0", "--hw2", "0,1"], "rep.tensor", ref=True),
        _req(["spin", "info", "--pair", "su21"], "spin.info", ref=True),
        _req(["ds", "induct", "--pair", "sl2r", "--hw", "3/2"], "ds.induct", ref=True),
        _req(["ds", "enumerate", "--pair", "sl2r", "--bound", "10"], "ds.enumerate", ref=True),
        _k0_class_float(files, random.Random(1), (1, 2)),
        _k0_index(files, random.Random(1), (1, 2)),
        _req(["group", "wedderburn", "--name", "s3", "--seed", "1"], "group.wedderburn", ref=True),
        _req(["group", "idempotent", "--name", "s3", "--block", "2", "--seed", "1"], "group.idempotent",
             block_dims=list(CATALOG_GROUPS["s3"])),
        _rd_norms(files, random.Random(1), "z", 6),
        _req(["rd", "probe-unconditional", "--group", "z", "--norm", "l1", "--trials", "3", "--seed", "1"],
             "rd.probe-unconditional"),
        _req(["rd", "probe-rd", "--group", "z", "--s", "1", "--samples", "2", "--seed", "1"], "rd.probe-rd"),
    ]


def _error_paths(files: _Files) -> list[dict]:
    """Inputs the README contract says must end in exit 2 with one line."""
    return [
        _req(["ds", "induct", "--pair", "su21", "--hw", "1,-3"], "ds.induct", expect=2),
        _req(["rootsys", "info", "H3"], "rootsys.info", expect=2),
        _req(["group", "wedderburn", "--name", "s4"], "group.wedderburn", expect=2),
        _req(["k0", "class", "--spec", files.missing()], "k0.class", expect=2),
        _req(["k0", "class", "--spec", files.write("malformed", '{"blocks": [1], "matrices": ', raw=True)],
             "k0.class", expect=2),
        _req(["group", "wedderburn", "--name", "s3", "--config", files.write("config", {"seed": "abc"})],
             "group.wedderburn", expect=2),
    ]


# --- generated numerical inputs -----------------------------------------------

def _complex_entry(z: complex):
    return [z.real, z.imag]


def _k0_class_float(files: _Files, rng: random.Random, blocks) -> dict:
    """Float idempotent P = S D S^-1 per block with a chosen rank."""
    import numpy as np

    nrng = np.random.default_rng(rng.randrange(2**32))
    mats, ranks = [], []
    for n in blocks:
        r = rng.randrange(n + 1)
        s = np.eye(n) + 0.3 * (nrng.normal(size=(n, n)) + 1j * nrng.normal(size=(n, n))) / n
        d = np.diag([1.0] * r + [0.0] * (n - r))
        p = s @ d @ np.linalg.inv(s)
        mats.append([[_complex_entry(complex(x)) for x in row] for row in p])
        ranks.append(r)
    path = files.write("k0class", {"blocks": list(blocks), "matrices": mats})
    return _req(["k0", "class", "--spec", path], "k0.class", ranks=ranks, exact=False)


def _gq_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gq_matmul(x, y):
    n, m, k = len(x), len(y), len(y[0])
    out = []
    for i in range(n):
        row = []
        for j in range(k):
            re = im = Fraction(0)
            for t in range(m):
                pr = _gq_mul(x[i][t], y[t][j])
                re += pr[0]
                im += pr[1]
            row.append((re, im))
        out.append(row)
    return out


def _k0_class_exact(files: _Files, rng: random.Random, blocks) -> dict:
    """Exact Gaussian-rational idempotent P = U D U^-1, U unitriangular."""
    mats, ranks = [], []
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    for n in blocks:
        r = rng.randrange(n + 1)
        nil = [[(Fraction(rng.randint(-2, 2), rng.choice((1, 2))), Fraction(rng.randint(-1, 1)))
                if j > i else zero for j in range(n)] for i in range(n)]
        eye = [[one if i == j else zero for j in range(n)] for i in range(n)]
        u = [[(eye[i][j][0] + nil[i][j][0], eye[i][j][1] + nil[i][j][1]) for j in range(n)] for i in range(n)]
        # (I + N)^-1 = sum_k (-N)^k, finite because N is nilpotent
        neg = [[(-a, -b) for a, b in row] for row in nil]
        inv, term = eye, eye
        for _ in range(n):
            term = _gq_matmul(term, neg)
            inv = [[(inv[i][j][0] + term[i][j][0], inv[i][j][1] + term[i][j][1]) for j in range(n)]
                   for i in range(n)]
        d = [[one if i == j and i < r else zero for j in range(n)] for i in range(n)]
        p = _gq_matmul(_gq_matmul(u, d), inv)
        mats.append([[[str(a), str(b)] for a, b in row] for row in p])
        ranks.append(r)
    path = files.write("k0exact", {"blocks": list(blocks), "matrices": mats})
    return _req(["k0", "class", "--spec", path], "k0.class", ranks=ranks, exact=True)


def _k0_index(files: _Files, rng: random.Random, blocks) -> dict:
    """Fredholm module with a random low-rank u per block; index e0 - e1."""
    import numpy as np

    nrng = np.random.default_rng(rng.randrange(2**32))
    e0 = [rng.randint(0, 4) for _ in blocks]
    e1 = [rng.randint(0, 4) for _ in blocks]
    u = []
    for a, b in zip(e0, e1):
        # singular values in [1, 2]: far from the rank gap on either side
        r = rng.randint(0, min(a, b))
        left = np.linalg.qr(nrng.normal(size=(b, b)))[0][:, :r]
        right = np.linalg.qr(nrng.normal(size=(a, a)))[0][:r, :]
        u.append((left @ np.diag(nrng.uniform(1, 2, size=r)) @ right).tolist())
    path = files.write("k0index", {"blocks": list(blocks), "e0": e0, "e1": e1, "u": u})
    return _req(["k0", "index", "--spec", path], "k0.index", index=[a - b for a, b in zip(e0, e1)])


def _random_element(rng: random.Random, group: str, radius: int):
    if group.startswith("f"):
        k = int(group[1:])
        word = []
        for _ in range(rng.randint(0, radius)):
            choices = [x for s in range(1, k + 1) for x in (s, -s) if not word or x != -word[-1]]
            word.append(rng.choice(choices))
        return word
    d = 1 if group == "z" else int(group[1:])
    pt = [0] * d
    for _ in range(rng.randint(0, radius)):
        pt[rng.randrange(d)] += rng.choice((-1, 1))
    return pt


def _rd_norms(files: _Files, rng: random.Random, group: str, radius: int) -> dict:
    support = {}
    for _ in range(rng.randint(1, 6)):
        g = tuple(_random_element(rng, group, 2))
        support[g] = (round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6))
    items = [{"g": list(g), "re": re, "im": im} for g, (re, im) in support.items()]
    path = files.write("rdfn", items)
    s = rng.choice((0.5, 1.0, 2.0))
    return _req(["rd", "norms", "--group", group, "--s", str(s), "--input", path, "--radius", str(radius)],
                "rd.norms", items=items, s=s)


# --- streams -------------------------------------------------------------------

def _classify(rng: random.Random, files: _Files, reference: dict) -> tuple[list[dict], list[dict]]:
    core = [_req(["rootsys", "info", t], "rootsys.info", ref=True) for t in INFO_TYPES]
    core += [_req(["ds", "enumerate", "--pair", p, "--bound", str(b)], "ds.enumerate", ref=True)
             for p, b in ENUM_SMALL + ENUM_HEAVY]
    core += [_req(["ds", "enumerate", "--pair", p, "--bound", str(b)], "ds.enumerate", ref=True)
             for p, bounds in ENUM_PLATEAU for b in bounds for _ in range(ENUM_PLATEAU_EACH)]
    light = [_req(["spin", "info", "--pair", p], "spin.info", ref=True) for p in CATALOG_PAIRS]
    pools = reference["induct"]
    for pair, cat, count in INDUCT_PLAN:
        # a rank-4 chamber lookup may materialize a Weyl group: keep its place fixed
        dest = core if pair[-1] == "4" else light
        for hw in rng.sample(pools[pair][cat], count):
            dest.append(_req(["ds", "induct", "--pair", pair, *hw_args(hw)], "ds.induct",
                             expect=2 if cat == "refused" else 0, ref=cat != "refused"))
    return core, light


def _characters(rng: random.Random, files: _Files, reference: dict) -> tuple[list[dict], list[dict]]:
    core = [_req(["rep", "irr", "--type", t, "--hw", hw], "rep.irr", ref=True) for t, hw in IRR_HEAVY]
    core += [_req(["rep", "irr", "--type", t, "--hw", hw], "rep.irr", ref=True)
             for t in IRR_FUNDAMENTAL_TYPES for hw in light_weights(t)]
    core += [_req(["rep", "tensor", "--type", t, "--hw", a, "--hw2", b], "rep.tensor", ref=True)
             for t, a, b in TENSOR_HEAVY]
    for t in TENSOR_PLATEAU_TYPES:
        fund = fundamentals(t)
        core += [_req(["rep", "tensor", "--type", t, "--hw", a, "--hw2", b], "rep.tensor", ref=True)
                 for i, a in enumerate(fund) for b in fund[i:]]
    light = []
    for t in LIGHT_TYPES:
        picks = rng.sample(light_weights(t), IRR_DISTINCT)
        picks += [rng.choice(picks) for _ in range(IRR_REPEATS)]
        light += [_req(["rep", "irr", "--type", t, "--hw", hw], "rep.irr", ref=True) for hw in picks]
    for t in LIGHT_TYPES:
        for _ in range(TENSORS_PER_TYPE):
            a, b = rng.choice(fundamentals(t)), rng.choice(fundamentals(t))
            light.append(_req(["rep", "tensor", "--type", t, "--hw", a, "--hw2", b], "rep.tensor", ref=True))
    return core, light


def dihedral_table(n: int) -> list[list[int]]:
    """Multiplication table of the dihedral group of order 2n.

    Element k < n is the rotation r^k, element n + k is r^k s, with
    s r = r^-1 s.
    """
    def mul(a, b):
        ka, fa = a % n, a // n
        kb, fb = b % n, b // n
        k = (ka + (-kb if fa else kb)) % n
        return k + n * (fa ^ fb)

    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def dihedral_facts(n: int) -> dict:
    """Block dimensions and class count of the dihedral group of order 2n."""
    ones = 4 if n % 2 == 0 else 2
    twos = (n - 2) // 2 if n % 2 == 0 else (n - 1) // 2
    return {"blocks": [1] * ones + [2] * twos, "classes": ones + twos}


def _labs(rng: random.Random, files: _Files, reference: dict) -> tuple[list[dict], list[dict]]:
    def seed():
        return str(rng.randrange(1000))

    core, out = [], []
    for name in sorted(CATALOG_GROUPS) * 2:
        out.append(_req(["group", "wedderburn", "--name", name, "--seed", seed()], "group.wedderburn", ref=True))
    for n in CYCLIC_WEDDERBURN:
        out.append(_req(["group", "wedderburn", "--name", f"z{n}", "--seed", seed()], "group.wedderburn",
                        blocks=[1] * n, classes=n))
    n = int(WEDDERBURN_HEAVY[1:])
    core.append(_req(["group", "wedderburn", "--name", WEDDERBURN_HEAVY, "--seed", seed()], "group.wedderburn",
                     blocks=[1] * n, classes=n))
    table = files.write("dihedral", dihedral_table(DIHEDRAL_N))
    core.append(_req(["group", "wedderburn", "--table", table, "--seed", seed()], "group.wedderburn",
                    **dihedral_facts(DIHEDRAL_N)))
    for _ in range(2):
        for name, dims in sorted(CATALOG_GROUPS.items()):
            block = rng.randrange(len(dims))
            out.append(_req(["group", "idempotent", "--name", name, "--block", str(block), "--seed", seed()],
                            "group.idempotent", block_dims=list(dims)))
    for n in CYCLIC_IDEMPOTENT:
        out.append(_req(["group", "idempotent", "--name", f"z{n}", "--block", str(rng.randrange(n)),
                         "--seed", seed()], "group.idempotent", block_dims=[1] * n))
    for blocks in K0_CLASS_BLOCKS:
        out.append(_k0_class_float(files, rng, blocks))
        out.append(_k0_class_exact(files, rng, tuple(min(b, 3) for b in blocks)))
    for blocks in K0_INDEX_BLOCKS:
        out.append(_k0_index(files, rng, blocks))
    for group, radius in (("z", 40), ("z2", 12), ("f2", 5)):
        for _ in range(4):
            out.append(_rd_norms(files, rng, group, radius))
    for group, extra in (("z", ["--trials", "20"]), ("z", ["--norm", "hs", "--s", "1", "--trials", "20"]),
                         ("z", ["--norm", "l1", "--trials", "20"]), ("z", ["--radius", "30", "--trials", "10"]),
                         ("z2", ["--trials", "8"]), ("z2", ["--norm", "hs", "--s", "2", "--trials", "20"]),
                         ("z2", ["--radius", "10", "--trials", "8"]), ("f2", ["--radius", "4", "--trials", "4"]),
                         ("f2", ["--norm", "l1", "--trials", "20"]), ("f2", ["--norm", "hs", "--s", "1"])):
        core.append(_req(["rd", "probe-unconditional", "--group", group, *extra, "--seed", str(PROBE_SEED)],
                        "rd.probe-unconditional"))
    for group, samples, spheres in (("z", 20, False), ("z", 10, True), ("z", 30, False), ("z", 8, False),
                                    ("z2", 10, False), ("z2", 6, True), ("z2", 8, False),
                                    ("f2", 2, True), ("f2", 2, False)):
        argv = ["rd", "probe-rd", "--group", group, "--s", "1", "--samples", str(samples), "--seed", str(PROBE_SEED)]
        core.append(_req(argv + (["--spheres"] if spheres else []), "rd.probe-rd"))
    group, samples, pseed = PROBE_RD_HEAVY
    core.append(_req(["rd", "probe-rd", "--group", group, "--s", "1", "--samples", str(samples),
                      "--seed", str(pseed), "--spheres"], "rd.probe-rd"))
    return core, out


_GENERATORS = {"classify": _classify, "characters": _characters, "labs": _labs}


def build_stream(workload: str, seed: int, workdir: str, reference: dict) -> list[dict]:
    """The request stream of one workload for one seed, in send order.

    The core requests (the heavy ones and the plateaus the tail
    percentile falls on) keep a fixed relative order and are spread evenly
    through the stream; the seed shuffles the light requests around them.
    Which request pays a cold cache, and the peak memory, then do not
    depend on the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    files = _Files(workdir)
    core, light = _GENERATORS[workload](rng, files, reference)
    light += _background(files) + _error_paths(files)
    rng.shuffle(light)
    stream = list(light)
    step = (len(light) + len(core)) / len(core)
    for i, req in enumerate(core):
        stream.insert(int(i * step), req)
    for i, req in enumerate(stream):
        req["id"] = i
        if req["ref"] is True:
            req["ref"] = ref_key(req["argv"])
    return stream


def reference_argvs(reference_induct: dict) -> list[list[str]]:
    """Every exact request any seed can generate, for recording the reference."""
    out = [["rootsys", "info", t] for t in INFO_TYPES + ("A2",)]
    out += [["spin", "info", "--pair", p] for p in CATALOG_PAIRS]
    out += [["ds", "enumerate", "--pair", p, "--bound", str(b)] for p, b in ENUM_SMALL + ENUM_HEAVY]
    out += [["ds", "enumerate", "--pair", p, "--bound", str(b)] for p, bounds in ENUM_PLATEAU for b in bounds]
    out.append(["ds", "enumerate", "--pair", "sl2r", "--bound", "10"])
    out.append(["ds", "induct", "--pair", "sl2r", "--hw", "3/2"])
    for pair, cats in reference_induct.items():
        for cat, hws in cats.items():
            if cat != "refused":
                out += [["ds", "induct", "--pair", pair, *hw_args(hw)] for hw in hws]
    out += [["rep", "irr", "--type", t, "--hw", hw] for t, hw in IRR_HEAVY]
    out += [["rep", "irr", "--type", t, "--hw", hw]
            for t in IRR_FUNDAMENTAL_TYPES + LIGHT_TYPES for hw in light_weights(t)]
    out += [["rep", "tensor", "--type", t, "--hw", a, "--hw2", b]
            for t in TENSOR_PLATEAU_TYPES for a in fundamentals(t) for b in fundamentals(t)]
    out += [["rep", "tensor", "--type", t, "--hw", a, "--hw2", b] for t, a, b in TENSOR_HEAVY]
    out += [["rep", "tensor", "--type", t, "--hw", a, "--hw2", b]
            for t in LIGHT_TYPES for a in fundamentals(t) for b in fundamentals(t)]
    out += [["group", "wedderburn", "--name", g] for g in CATALOG_GROUPS]
    unique = {}
    for argv in out:
        unique.setdefault(" ".join(argv), argv)
    return list(unique.values())
