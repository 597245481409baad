"""The dirac-atlas benchmark.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each workload is a seeded stream of CLI
requests (see workloads.py and NOTES.md) sent in process to
`dirac_atlas.cli.main` by one client in a closed loop. Every stream runs
in a fresh worker interpreter, because every layer of the program caches
without bound and a CLI user pays the cold cost on each invocation. The
run repeats the stream, one fresh worker each time, for --seconds and
reports medians. End-to-end times are scaled to a reference machine
speed by the probe in probe.py, which the worker runs between requests.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced streams and prints the per-layer metrics. `--workload all`
runs the three workloads one after the other. A human-readable report
goes to stdout first; the last line is one JSON object with the keys
correct, attempted, failed and metrics. Raw results and spans are
written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

from checks import check_request, digest
from probe import PROBE_REF_S, speed_probe
from workloads import WORKLOADS, build_stream

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench"
SETUP_STARTS = 8  # dedicated cold starts per run, besides one per stream
WORKER_TIMEOUT_S = 170
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SUBCOMMANDS = (
    "rootsys_info", "rep_irr", "rep_tensor", "spin_info", "ds_induct", "ds_enumerate",
    "k0_class", "k0_index", "group_wedderburn", "group_idempotent",
    "rd_norms", "rd_probe_unconditional", "rd_probe_rd",
)
TRACED = {
    "spinmod": ("load_catalog", "spin_characters", "check_spin_structure"),
    "rootsys": ("weyl_elements", "weyl_orbit", "make_dominant", "inner", "coroot_pairing", "build_root_system"),
    "repring": ("irr_character", "decompose", "weyl_dimension", "product"),
    "dirac": ("enumerate_discrete_series", "dirac_induct", "chamber_of", "trace_product"),
    "ktheory": ("wedderburn", "k0_class", "fredholm_index", "index_by_kernel_cokernel", "convolve",
                "ds_idempotent", "group_function_class"),
    "rapid_decay": ("reduced_norm_truncated", "ball", "rd_inequality_probe", "unconditionality_probe", "hs_norm"),
}
# The layers a workload is built to load, and the ones it leaves idle.
DESIGN = {
    "classify": (("dirac", "rootsys"), ("repring", "ktheory", "rapid_decay")),
    "characters": (("repring", "rootsys"), ("dirac", "ktheory", "rapid_decay")),
    "labs": (("ktheory", "rapid_decay"), ("rootsys", "repring", "dirac")),
}
IDLE_SHARE = 0.10
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_s": "s", "latency_p90_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


# --- workers ---------------------------------------------------------------------

def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("DIRAC_ATLAS_CATALOG", None)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def _run_worker(args: list[str]) -> tuple[float, float, str]:
    """Start a worker, time it up to its "ready" line, wait for it to end.

    Returns the set-up time, a speed probe run here just before the
    start, and the rest of the worker's stdout.
    """
    probe = speed_probe()
    t0 = time.perf_counter()
    # Unbuffered binary pipes: readline() must not read past the "ready"
    # line, or communicate(), which reads the pipe itself, misses the rest.
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, bufsize=0, env=_worker_env())
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed (exit {proc.returncode}):\n"
                         f"{err.decode(errors='replace')[-2000:]}")
    return setup, probe, rest.decode()


def _cold_start() -> tuple[float, float]:
    """Set-up time of one fresh worker, and the mean of the speed probes
    run just before it and, by the worker, just after it."""
    setup, before, rest = _run_worker(["--setup-only"])
    return setup, (before + float(rest)) / 2


def _run_stream(workdir: str, index: int, traced: bool) -> dict:
    result = os.path.join(workdir, f"result-{index}.json")
    args = [os.path.join(workdir, "stream.json"), result]
    if traced:
        args += ["--trace", os.path.join(workdir, f"spans-{index}.json")]
    setup, before, _ = _run_worker(args)
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    os.remove(result)
    res["setup_s"] = setup
    res["setup_probe_s"] = (before + res["probe_s"][0]) / 2
    res["traced"] = traced
    return res


# --- statistics --------------------------------------------------------------------

def _nearest_rank(sorted_vals: list[float], q: float) -> tuple[float, int]:
    """Value at quantile q (nearest rank) and how many samples lie beyond it."""
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[rank - 1], len(sorted_vals) - rank


def _scaled_latencies(stream: dict) -> list[float]:
    """Latencies of one stream at the reference speed of probe.py.

    Each latency is scaled by PROBE_REF_S over the mean of the speed
    probes run just before and just after the request.
    """
    probes = stream["probe_s"]
    return [r["latency_s"] * PROBE_REF_S / ((probes[i] + probes[i + 1]) / 2)
            for i, r in enumerate(stream["requests"])]


def _end_to_end(streams: list[dict], setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced streams of one run.

    Times are scaled to the reference speed of probe.py (see
    _scaled_latencies). Every stream of a run sends the same requests, so
    each request has one scaled latency per stream; its median across
    streams is robust against a burst of contention that slows one
    stream. wall_s sums those medians over the stream, and the
    percentiles are taken over them. A cold start is scaled by the mean
    of the probes run just before and just after it.
    """
    lat = [statistics.median(per) for per in zip(*(_scaled_latencies(s) for s in streams))]
    ordered = sorted(lat)
    p50, _ = _nearest_rank(ordered, 0.5)
    p90, beyond = _nearest_rank(ordered, 0.9)
    values = {
        "setup_s": statistics.median(t * PROBE_REF_S / probe for t, probe in setups),
        "wall_s": sum(lat),
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "peak_rss_mb": statistics.median(s["maxrss_mb"] for s in streams),
    }
    per_stream = f"{len(lat)} requests, median of {len(streams)} streams each"
    samples = {
        "setup_s": f"median of {len(setups)} cold starts",
        "wall_s": f"sum over {per_stream}",
        "latency_p50_s": per_stream,
        "latency_p90_s": f"{per_stream}, {beyond} beyond",
        "peak_rss_mb": f"median of {len(streams)} streams",
    }
    return values, samples


def _subcommand(argv: list[str]) -> str:
    return "_".join(argv[:2]).replace("-", "_")


def _per_layer(stream: list[dict], untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (median over traced streams) and their units."""
    def one(summary: dict) -> dict:
        calls, incl, counts = summary["calls"], summary["incl_s"], summary["counts"]
        m = {f"{layer}.self_s": s for layer, s in summary["self_s"].items()}
        for layer, fns in TRACED.items():
            for fn in fns:
                m[f"{layer}.{fn}.s"] = incl[f"{layer}.{fn}"]
                m[f"{layer}.{fn}.calls"] = calls[f"{layer}.{fn}"]
        m["rootsys.weyl_elements.hit_ratio"] = summary["hit_ratio"]["rootsys.weyl_elements"]
        m["rootsys.weyl_orbit.hit_ratio"] = summary["hit_ratio"]["rootsys.weyl_orbit"]
        m["repring.product.terms"] = counts.get("repring.product.terms", 0)
        m["repring.decompose.irr_calls"] = (
            counts.get("repring.decompose.irr_calls", 0) / max(1, calls["repring.decompose"]))
        params = counts.get("dirac.enumerate_discrete_series.params", 0)
        m["dirac.params_per_induct"] = counts.get("dirac.dirac_induct.ok", 0) / max(1, calls["dirac.dirac_induct"])
        m["dirac.inner_per_param"] = counts.get("dirac.enumerate_discrete_series.inner_calls", 0) / max(1, params)
        m["ktheory.wedderburn.rss_growth_mb"] = counts.get("ktheory.wedderburn.rss_growth_mb", 0.0)
        m["rapid_decay.ball.elements"] = counts.get("rapid_decay.ball.elements", 0)
        return m

    per = [one(s["trace"]) for s in traced]
    metrics = {k: statistics.median(p[k] for p in per) for k in per[0]}
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}.s"] = statistics.median(
            sum(lat for req, lat in zip(stream, _scaled_latencies(s)) if _subcommand(req["argv"]) == sub)
            for s in untraced)
    metrics["trace.overhead"] = (statistics.median(sum(_scaled_latencies(s)) for s in traced)
                                 / statistics.median(sum(_scaled_latencies(s)) for s in untraced))

    def unit(name: str) -> str:
        if name.endswith(".s") or name.endswith(".self_s"):
            return "s"
        if name.endswith("_mb"):
            return "MB"
        if name.endswith(("hit_ratio", "overhead", "per_induct", "per_param", "irr_calls")):
            return "ratio"
        return "count"

    return metrics, {k: unit(k) for k in metrics}


def _coverage(traced: list[dict]) -> None:
    """Fail loudly when a wrapped function the workload must reach was never
    called, or when the tracer had to drop spans."""
    for s in traced:
        if s["trace"]["dropped_spans"]:
            raise BenchError(f"tracer dropped {s['trace']['dropped_spans']} spans past its limit")
        calls = s["trace"]["calls"]
        missing = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns if not calls.get(f"{layer}.{fn}")]
        if missing:
            raise BenchError(f"wrapper coverage: zero calls recorded for {', '.join(missing)}")


def _design(workload: str, traced: list[dict]) -> list[str]:
    """Shares of traced self time by layer, against the workload's design."""
    self_s = {k: statistics.median(s["trace"]["self_s"][k] for s in traced) for k in traced[0]["trace"]["self_s"]}
    total = sum(self_s.values())
    share = {k: v / total for k, v in self_s.items()}
    busy, idle = DESIGN[workload]
    busy_share = sum(share[k] for k in busy)
    lines = ["  self-time share: " + ", ".join(f"{k} {share[k]:.1%}" for k in sorted(share, key=share.get, reverse=True))]
    ok = busy_share > 0.5 and all(share[k] < IDLE_SHARE for k in idle)
    lines.append(f"  design check: {'+'.join(busy)} take {busy_share:.1%} (> 50%), idle "
                 + ", ".join(f"{k} {share[k]:.1%}" for k in idle) + f" (< {IDLE_SHARE:.0%} each): "
                 + ("confirmed" if ok else "NOT confirmed"))
    return lines


# --- one workload ---------------------------------------------------------------------

def _environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "jsonschema": version("jsonschema")}


def _verify(stream: list[dict], untraced: list[dict], traced: list[dict], reference: dict):
    """Check outputs and determinism; returns (correct, attempted, failed, problems)."""
    schemas = untraced[0]["schemas"]
    first = untraced[0]["requests"]
    verdicts = [check_request(req, res, schemas, reference) for req, res in zip(stream, first)]
    problems = [f"request {req['id']} ({' '.join(req['argv'])}): {v[0]}: {v[1]}"
                for req, v in zip(stream, verdicts) if v]
    correct = not any(v and v[0] == "output" for v in verdicts)
    base = [(r["rc"], digest(r["stdout"])) for r in first]
    attempted = failed = 0
    for s in untraced + traced:
        for req, v, want, r in zip(stream, verdicts, base, s["requests"]):
            attempted += 1
            if (r["rc"], digest(r["stdout"])) != want:
                correct = False
                failed += 1
                what = "traced and untraced" if s["traced"] else "two untraced"
                problems.append(f"request {req['id']} ({' '.join(req['argv'])}): {what} runs differ")
            elif v:
                failed += 1
    return correct, attempted, failed, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    t_begin = time.perf_counter()
    deadline = t_begin + seconds
    workdir = os.path.join(OUT_DIR, "work", f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    stream = build_stream(workload, seed, workdir, reference)
    with open(os.path.join(workdir, "stream.json"), "w", encoding="utf-8") as fh:
        json.dump(stream, fh)
    try:
        _cold_start()  # warm the bytecode and page caches; not counted
        # Half the cold starts come before the streams and half after, so
        # that a slow period of the machine does not catch all of them.
        setups = [_cold_start() for _ in range(SETUP_STARTS // 2)]
        reserve = statistics.median(t for t, _ in setups) * (SETUP_STARTS - len(setups))
        untraced, traced, cycles = [], [], []
        min_cycles = 1 if trace else 3
        while True:
            t0 = time.perf_counter()
            untraced.append(_run_stream(workdir, len(untraced) + len(traced), False))
            if trace:
                traced.append(_run_stream(workdir, len(untraced) + len(traced), True))
            cycles.append(time.perf_counter() - t0)
            # start another stream if it is expected to end within half a stream of the deadline
            if len(cycles) >= min_cycles and time.perf_counter() + statistics.median(cycles) / 2 + reserve > deadline:
                break
        setups += [_cold_start() for _ in range(SETUP_STARTS - len(setups))]
        if trace:
            _coverage(traced)
            os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
            for name in os.listdir(workdir):
                if name.startswith("spans-"):
                    os.replace(os.path.join(workdir, name),
                               os.path.join(OUT_DIR, "spans", f"{workload}-seed{seed}-{name}"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct, attempted, failed, problems = _verify(stream, untraced, traced, reference)
    setups += [(s["setup_s"], s["setup_probe_s"]) for s in untraced]
    e2e, samples = _end_to_end(untraced, setups)
    result = {
        "workload": workload, "seed": seed, "trace": int(trace), "environment": _environment(),
        "requests_per_stream": len(stream), "streams": len(untraced), "traced_streams": len(traced),
        "correct": correct, "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "problems": problems, "end_to_end": e2e, "samples": samples,
        "stream_wall_s": [s["wall_s"] for s in untraced], "setup_samples_s": setups,
        "probe_median_s": [statistics.median(s["probe_s"]) for s in untraced],
        "repeat_share": _repeat_share(stream),
    }
    if trace:
        result["per_layer"], result["per_layer_units"] = _per_layer(stream, untraced, traced)
        result["design"] = _design(workload, traced)
        result["spans_per_stream"] = statistics.median(s["trace"]["spans"] for s in traced)
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", f"{workload}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def _repeat_share(stream: list[dict]) -> float:
    """Share of rep irr requests whose (type, weight) came earlier in the stream."""
    seen, repeats, total = set(), 0, 0
    for req in stream:
        if req["argv"][:2] == ["rep", "irr"]:
            key = tuple(req["argv"][2:])
            total += 1
            repeats += key in seen
            seen.add(key)
    return repeats / total if total else 0.0


def _report(res: dict) -> None:
    env = res["environment"]
    print(f"{res['workload']} seed {res['seed']} trace {res['trace']}: {res['streams']} untraced "
          f"+ {res['traced_streams']} traced streams of {res['requests_per_stream']} requests; "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}")
    for name, val in res["end_to_end"].items():
        print(f"  {name:<15} {val:12.6f} {END_TO_END_UNITS[name]:<3} ({res['samples'][name]})")
    print(f"  {'fail_frac':<15} {res['fail_frac']:12.6f}     ({res['failed']} failed of {res['attempted']} attempted)")
    if res["workload"] == "characters":
        print(f"  rep irr repeat share {res['repeat_share']:.3f}")
    print(f"  outputs correct and deterministic: {res['correct']}")
    for line in sorted(set(res["problems"]))[:20]:
        print(f"  ! {line}")
    if res["trace"]:
        for name, val in sorted(res["per_layer"].items()):
            print(f"  {name:<52} {val:14.6f} {res['per_layer_units'][name]}")
        print(f"  spans kept per traced stream: {res['spans_per_stream']:.0f} (none dropped)")
        for line in res["design"]:
            print(line)


def _metrics(res: dict, prefix: str = "") -> dict:
    if res["trace"]:
        values, units = res["per_layer"], res["per_layer_units"]
    else:
        values, units = res["end_to_end"], END_TO_END_UNITS
    return {prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "dirac_atlas", "cli.py")):
        print("perfbench: run from the root of a dirac-atlas checkout (src/dirac_atlas is missing)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), reference) for w in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for res in results:
        _report(res)
    many = len(results) > 1
    metrics = {}
    for res in results:
        metrics.update(_metrics(res, f"{res['workload']}." if many else ""))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
