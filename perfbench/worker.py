"""Runs one request stream in a fresh interpreter, closed loop.

    python3 perfbench/worker.py STREAM.json RESULT.json [--trace SPANS.json]
    python3 perfbench/worker.py --setup-only

Imports the CLI and loads the pair catalog, prints "ready" (the parent
times set-up up to that line), then sends each request to
`dirac_atlas.cli.main` in process, one after the other. Every layer
caches without bound, so the worker runs exactly one stream and exits.
The speed probe (probe.py) runs right after "ready", before every
request and after the last one, outside the timed requests; with
--setup-only its one timing is printed on a second line.

Before each request, also outside the timing, the worker runs a full
garbage collection and freezes what survives. A real invocation starts
with a small heap and zeroed collector counters; in one long worker the
caches of earlier requests make a full collection cost about 20 ms, and
which request pays it would depend on the seeded order of the light
requests before it.
"""

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback


def invoke(main, argv):
    """One CLI invocation: (exit code, stdout, stderr, raised a traceback)."""
    out, err = io.StringIO(), io.StringIO()
    tb = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse errors and --help
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # what an uncaught exception does to a real invocation
            traceback.print_exc()
            rc, tb = 1, True
    return rc, out.getvalue(), err.getvalue(), tb


def _check_source(module) -> None:
    src = os.path.abspath("src")
    if not os.path.abspath(module.__file__).startswith(src + os.sep):
        sys.exit(f"worker: dirac_atlas imported from {module.__file__}, not from {src}")


def main() -> None:
    trace = "--trace" in sys.argv
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from dirac_atlas import cli, spinmod

    spinmod.load_catalog()
    print("ready", flush=True)
    from probe import speed_probe

    probes = [speed_probe()]
    _check_source(cli)
    if sys.argv[1:] == ["--setup-only"]:
        print(probes[0], flush=True)
        return
    stream_path, result_path = sys.argv[1], sys.argv[2]
    main_fn = cli.main
    with open(stream_path, encoding="utf-8") as fh:
        stream = json.load(fh)

    results = []
    clock = time.perf_counter
    for req in stream:
        argv = req["argv"]
        gc.collect()
        gc.freeze()
        t0 = clock()
        if tracer is None:
            rc, out, err, tb = invoke(main_fn, argv)
        else:
            name = "_".join(argv[:2]).replace("-", "_")
            rc, out, err, tb = tracer.run_request(req["id"], name, lambda: invoke(main_fn, argv))
        results.append({"rc": rc, "latency_s": clock() - t0, "stdout": out, "stderr": err, "traceback": tb})
        probes.append(speed_probe())
    wall = sum(r["latency_s"] for r in results)  # without the probes
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    payload = {"wall_s": wall, "maxrss_mb": maxrss_mb, "requests": results, "probe_s": probes,
               "trace": None, "schemas": {}}
    if tracer is None:
        for req in stream:
            if req["kind"] not in payload["schemas"]:
                _, out, _, _ = invoke(main_fn, req["argv"] + ["--schema"])
                payload["schemas"][req["kind"]] = json.loads(out)
    else:
        payload["trace"] = tracer.summary()
        spans_path = sys.argv[sys.argv.index("--trace") + 1]
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"names": ["id", "name", "start", "end", "parent", "request"], "spans": tracer.spans}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    main()
