"""The benchmark's trace contract, read from perfbench/ without importing it.

perfbench/run.py names the functions its traced run must reach (TRACED)
and perfbench/tracer.py the methods it wraps (METHODS); the tracer wraps
public, module-level, non-generator callables of each dirac_atlas layer
and reads cache_info of the two Weyl caches. A refactor that renames,
hides or moves one of them breaks `run.py --trace 1`; these tests fail
first.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assigned(path: Path, name: str):
    """The literal value assigned to a module-level name."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


TRACED = _assigned(PERFBENCH / "run.py", "TRACED")
METHODS = _assigned(PERFBENCH / "tracer.py", "METHODS")


@pytest.mark.parametrize(
    "layer,name",
    [(layer, name) for layer, names in sorted(TRACED.items()) for name in names if f"{layer}.{name}" not in METHODS],
)
def test_traced_function_is_a_public_module_level_callable(layer, name):
    mod = importlib.import_module(f"dirac_atlas.{layer}")
    obj = getattr(mod, name, None)
    assert obj is not None, f"dirac_atlas.{layer} has no {name}"
    assert not name.startswith("_")
    assert callable(obj) and not inspect.isclass(obj)
    assert getattr(obj, "__module__", None) == mod.__name__
    assert not inspect.isgeneratorfunction(obj)


@pytest.mark.parametrize("key", sorted(METHODS))
def test_traced_method_is_on_its_class(key):
    layer = key.split(".")[0]
    cls_name, meth = METHODS[key]
    cls = getattr(importlib.import_module(f"dirac_atlas.{layer}"), cls_name)
    assert inspect.isclass(cls)
    assert callable(cls.__dict__.get(meth))


@pytest.mark.parametrize("name", ["weyl_elements", "weyl_orbit"])
def test_weyl_caches_expose_cache_info(name):
    fn = getattr(importlib.import_module("dirac_atlas.rootsys"), name)
    info = fn.cache_info()
    assert info.hits >= 0 and info.misses >= 0
