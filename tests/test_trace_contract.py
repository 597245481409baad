"""The benchmark's trace contract, read from perfbench/ without importing it.

perfbench/run.py names the functions its traced run must reach (TRACED)
and perfbench/tracer.py the methods it wraps (METHODS); the tracer wraps
public, module-level, non-generator callables of each dirac_atlas layer
and reads cache_info of the two Weyl caches. A refactor that renames,
hides or moves one of them breaks `run.py --trace 1`; these tests fail
first. So does a traced function that the streams stop calling: the
classify stream's ds requests reach rootsys.weyl_elements, and the
characters and labs streams reach it only through their sl2r ds
requests, so those requests must call it through the module attribute
that the tracer replaces.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from dirac_atlas import rootsys
from dirac_atlas.cli import EXIT_OK, main

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


@pytest.mark.parametrize(
    "argv",
    [
        ["ds", "induct", "--pair", "sl2r", "--hw", "3/2"],
        ["ds", "enumerate", "--pair", "sl2r", "--bound", "10"],
        ["ds", "induct", "--pair", "compact_f4", "--hw", "1,0,0,0"],
    ],
)
def test_ds_requests_call_weyl_elements_and_read_no_element(argv, monkeypatch, capsys):
    calls = []
    weyl_elements = rootsys.weyl_elements

    def spy(rs):
        calls.append(rs.cartan)
        return weyl_elements(rs)

    def never(order):
        pytest.fail(f"an element of the Weyl group of {order.rs.cartan} was read")

    monkeypatch.setattr(rootsys, "weyl_elements", spy)
    monkeypatch.setattr(rootsys.WeylOrder, "_elements", never)
    assert main(argv) == EXIT_OK
    assert calls, argv
