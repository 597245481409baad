"""Per-layer tracing of dirac_atlas from outside the package.

Layers are the package's modules. The tracer replaces each public
function of a layer with a timing wrapper, everywhere the function is
bound: in its own module, in every module that imported it with
`from .x import name`, and on the class for the two methods traced
(`RootSystem.coroot_pairing`, `MarkedGroup.ball`). Time in the helper
modules `jsonutil` and `_linalg`, and in the tuple-arithmetic helpers
of `rootsys`, counts toward whichever layer called them.

A layer's self time is the time its wrapped calls take minus the time
their wrapped callees take. A call that crosses into another layer is
kept as a span (name, start, end, parent span, request id); calls that
stay inside one layer, and the hot kernels, only update counters, so
memory stays bounded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import time

LAYERS = ("cli", "spinmod", "rootsys", "repring", "dirac", "ktheory", "rapid_decay")
PACKAGE_MODULES = LAYERS + ("jsonutil", "_linalg", "errors")

# Called per weight, per pairing or per Weyl element; no spans, only counters.
HOT = frozenset({
    "rootsys.inner", "rootsys.coroot_pairing", "rootsys.make_dominant", "rootsys.make_antidominant",
    "rootsys.apply_matrix", "rootsys.is_regular", "rootsys.is_dominant", "rootsys.reflect",
    "rootsys.fw_to_simple_coords", "rapid_decay.reduce_word",
})
# Tuple arithmetic: too small to time, charged to the caller.
UNTRACED = frozenset({"weight", "wzero", "wadd", "wsub", "wneg", "wscale", "grlex_key"})
METHODS = {"rootsys.coroot_pairing": ("RootSystem", "coroot_pairing"), "rapid_decay.ball": ("MarkedGroup", "ball")}
MAX_SPANS = 500_000


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Counters, self times and spans of one traced stream."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts: dict[str, float] = {}
        self.depth: dict[str, list[int]] = {}
        self.frames: list[list[float]] = [[0.0]]
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.span_names: list[str] = []
        self.current = -1  # span id of the innermost open span
        self.layer_stack = ["cli"]
        self.request = -1
        self.originals: dict[str, object] = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"dirac_atlas.{name}") for name in PACKAGE_MODULES}
        wrapped: dict[int, object] = {}
        for layer in LAYERS[1:]:
            mod = mods[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in UNTRACED or inspect.isclass(obj):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue
                key = f"{layer}.{name}"
                self.originals[key] = obj
                wrapped[id(obj)] = self._wrap(layer, key, obj)
        for key, (cls_name, meth) in METHODS.items():
            layer = key.split(".")[0]
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[meth]
            self.originals[key] = orig
            setattr(cls, meth, self._wrap(layer, key, orig))
        # rebind every module-level name that refers to a wrapped function
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not inspect.isclass(obj):
                    setattr(mod, name, wrapped[id(obj)])

    def _wrap(self, layer: str, key: str, fn):
        self.calls[key] = 0
        self.incl[key] = 0.0
        depth = self.depth.setdefault(key, [0])
        hot = key in HOT
        frames, self_s, calls, incl = self.frames, self.self_s, self.calls, self.incl
        layer_stack = self.layer_stack
        clock = time.perf_counter
        before, after = _BEFORE.get(key), _AFTER.get(key)
        nested = [(self.depth.setdefault(outer, [0]), counter) for outer, counter in _NESTED.get(key, ())]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for outer_depth, counter in nested:
                if outer_depth[0]:
                    tracer.counts[counter] = tracer.counts.get(counter, 0) + 1
            span = None
            if not hot and layer_stack[-1] != layer:
                span = tracer._open(key)
            token = before() if before else None
            frame = [0.0]
            frames.append(frame)
            layer_stack.append(layer)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                layer_stack.pop()
                frames.pop()
                frames[-1][0] += dt
                self_s[layer] += dt - frame[0]
                calls[key] += 1
                if not depth[0]:
                    incl[key] += dt
                if span is not None:
                    tracer._close(span, t0, t0 + dt)
            if after:
                after(tracer, result, token)
            return result

        return wrapper

    # -- spans ------------------------------------------------------------------

    def _open(self, key: str):
        parent = self.current
        span = (len(self.span_names), parent)
        self.span_names.append(key)
        self.current = span[0]
        return span

    def _close(self, span, start: float, end: float) -> None:
        sid, parent = span
        self.current = parent
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, self.span_names[sid], start, end, parent, self.request))
        else:
            self.dropped_spans += 1

    def run_request(self, request_id: int, name: str, call):
        """Run one request as a root span of the cli layer."""
        self.request = request_id
        span = self._open(f"cli.{name}")
        frame = [0.0]
        self.frames.append(frame)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            dt = time.perf_counter() - t0
            self.frames.pop()
            self.self_s["cli"] += dt - frame[0]
            self._close(span, t0, t0 + dt)

    # -- results ------------------------------------------------------------------

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def summary(self) -> dict:
        caches = {}
        for key in ("rootsys.weyl_elements", "rootsys.weyl_orbit"):
            info = self.originals[key].cache_info()
            total = info.hits + info.misses
            caches[key] = info.hits / total if total else 0.0
        return {
            "calls": dict(self.calls),
            "incl_s": dict(self.incl),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "hit_ratio": caches,
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
        }


def _count_ok(tracer: Tracer, result, _token) -> None:
    if result.ok:
        tracer.count("dirac.dirac_induct.ok", 1)


def _count_len(counter: str):
    def after(tracer: Tracer, result, _token) -> None:
        tracer.count(counter, len(result))
    return after


def _count_terms(tracer: Tracer, result, _token) -> None:
    tracer.count("repring.product.terms", len(result.terms))


def _rss_growth(tracer: Tracer, _result, before: float) -> None:
    tracer.count("ktheory.wedderburn.rss_growth_mb", _maxrss_mb() - before)


# key -> hook run before the call; its value reaches the after hook
_BEFORE = {"ktheory.wedderburn": _maxrss_mb}
# key -> hook run after the call, with the call's result
_AFTER = {
    "dirac.dirac_induct": _count_ok,
    "dirac.enumerate_discrete_series": _count_len("dirac.enumerate_discrete_series.params"),
    "repring.product": _count_terms,
    "ktheory.wedderburn": _rss_growth,
    "rapid_decay.ball": _count_len("rapid_decay.ball.elements"),
}
# inner key -> ((outer key, counter), ...): count inner calls made while outer runs
_NESTED = {
    "repring.irr_character": (("repring.decompose", "repring.decompose.irr_calls"),),
    "rootsys.inner": (("dirac.enumerate_discrete_series", "dirac.enumerate_discrete_series.inner_calls"),),
}
