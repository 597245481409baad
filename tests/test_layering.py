"""Import layering and public surface of dirac_atlas, read from the
source without importing it.

Finite groups live in ktheory only: the rapid-decay lab serves the
infinite groups F_k and Z^d with their word length, so it imports
nothing from ktheory. Discrete-series classification needs only
labels and the pair from the character and spin layers.

The public library is what the CLI and the acceptance suite use: every
public module-level function or class must be reached by an AST call
graph from cli.main and module-level code, or from an allowed root.
Names resolve per module (`from .m import x`, `m.x`), so two modules
defining the same name are told apart.

A root system holds its Cartan type and integer data only; its Fraction
roots, form and rho are views, and the three constructors of root data
make no Fraction. That guard imports rootsys for the dataclass fields.
"""

import ast
import dataclasses
from pathlib import Path

from dirac_atlas.rootsys import IntegralForm, RootSystem
from test_trace_contract import TRACED

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dirac_atlas"
DEFS = (ast.FunctionDef, ast.ClassDef)

# Test tools README names; no production path calls them.
README_TOOLS = {
    ("rootsys", "apply_matrix"): "acts by a weyl_elements matrix; the chamber and Kostant checks apply Weyl elements with it",
    ("rootsys", "is_dominant"): "the simple-coroot dominance test that the Dirac-index and Weyl tests check images with",
    ("rootsys", "fw_to_simple_coords"): "the Bareiss solve to simple-root coordinates, which grade roots in the tests",
}


def _imported_modules(path: Path) -> set[str]:
    """Every module an import statement in the file names, relative ones
    resolved within dirac_atlas, including `from . import name`."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "dirac_atlas" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            out.add(module)
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


def _names_from(path: Path, module: str) -> set[str]:
    prefix = f"dirac_atlas.{module}."
    return {m[len(prefix):] for m in _imported_modules(path) if m.startswith(prefix)}


def test_rapid_decay_imports_nothing_from_ktheory():
    modules = _imported_modules(PACKAGE / "rapid_decay.py")
    assert "dirac_atlas.errors" in modules  # the reader sees the relative imports
    assert not {m for m in modules if m == "dirac_atlas.ktheory" or m.startswith("dirac_atlas.ktheory.")}


def test_dirac_takes_only_labels_and_the_pair():
    assert _names_from(PACKAGE / "dirac.py", "repring") == {"IrrLabel", "label_weight"}
    assert _names_from(PACKAGE / "dirac.py", "spinmod") == {"RealPair"}


def _namespace(tree: ast.Module) -> dict:
    """Local name -> ("def",), ("module", m) or ("name", m, x), from the
    module's definitions and its relative imports."""
    ns = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                ns[local] = ("module", alias.name) if node.module is None else ("name", node.module, alias.name)
    for node in tree.body:
        if isinstance(node, DEFS):
            ns[node.name] = ("def",)
    return ns


def unreached(package: Path, entry: tuple[str, str], roots) -> list[str]:
    """Public module-level definitions of the package that neither the
    entry point, module-level code nor a root (module, name) reaches."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    spaces = {m: _namespace(tree) for m, tree in trees.items()}
    defs = {(m, node.name): node for m, tree in trees.items() for node in tree.body if isinstance(node, DEFS)}

    def resolve(module, name):
        target = spaces.get(module, {}).get(name)
        if target is None or target[0] == "module":
            return target
        if target[0] == "def":
            return (module, name)
        return resolve(target[1], target[2])

    def refs(module, node):
        out = []
        for sub in ast.walk(node):
            hit = None
            if isinstance(sub, ast.Name):
                hit = resolve(module, sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                base = resolve(module, sub.value.id)
                if base and base[0] == "module":
                    hit = resolve(base[1], sub.attr)
            if hit and hit[0] != "module":
                out.append(hit)
        return out

    todo = [entry, *roots]
    for m, tree in trees.items():
        for stmt in tree.body:
            parts = stmt.decorator_list if isinstance(stmt, DEFS) else [stmt]
            for part in parts:
                todo.extend(refs(m, part))
    reached = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in reached:
            reached.add(key)
            todo.extend(refs(key[0], defs[key]))
    return sorted(f"{m}.{name}" for m, name in defs if not name.startswith("_") and (m, name) not in reached)


def _roots() -> set[tuple[str, str]]:
    """The names test_acceptance.py imports, and the traced ones."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    accepted = {
        (node.module.split(".", 1)[1], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dirac_atlas.")
        for alias in node.names
    }
    return accepted | {(layer, name) for layer, names in TRACED.items() for name in names}


def test_every_public_definition_is_reached():
    left = unreached(PACKAGE, ("cli", "main"), _roots() | set(README_TOOLS))
    assert not left, "no CLI path, acceptance test or allowed root reaches " + ", ".join(left)


def test_readme_tools_are_defined_and_otherwise_unreached():
    left = set(unreached(PACKAGE, ("cli", "main"), _roots()))
    assert left == {f"{m}.{n}" for m, n in README_TOOLS}


def test_guard_tells_same_named_definitions_apart(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("def convolve(f, g):\n    return f\n")
    (pkg / "b.py").write_text("def convolve(f, g):\n    return g\n")
    (pkg / "cli.py").write_text(
        "from . import a, b\nfrom .a import convolve as conv\n\n\n"
        "def main():\n    return a.convolve(1, 2), conv(1, 2)\n"
    )
    assert unreached(pkg, ("cli", "main"), ()) == ["b.convolve"]
    (pkg / "cli.py").write_text("from . import a\n\n\ndef main():\n    return 0\n")
    assert unreached(pkg, ("cli", "main"), ()) == ["a.convolve", "b.convolve"]
    assert unreached(pkg, ("cli", "main"), [("b", "convolve")]) == ["a.convolve"]


def test_root_systems_hold_only_the_cartan_type_and_integer_data():
    assert [(f.name, f.type) for f in dataclasses.fields(RootSystem)] == [
        ("cartan", "CartanType"),
        ("integral", "IntegralForm"),
    ]
    assert {f.type for f in dataclasses.fields(IntegralForm)} == {"int", "np.ndarray", "tuple[int, ...]"}


ROOT_DATA_CONSTRUCTORS = ("build_root_system", "subsystem", "rescale_form")


def test_root_data_constructors_make_no_fraction():
    tree = ast.parse((PACKAGE / "rootsys.py").read_text(encoding="utf-8"))
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(ROOT_DATA_CONSTRUCTORS) <= set(bodies)
    calls = [
        f"{name}:{sub.lineno}"
        for name in ROOT_DATA_CONSTRUCTORS
        for sub in ast.walk(bodies[name])
        if isinstance(sub, ast.Call) and "Fraction" in {getattr(sub.func, "id", None), getattr(sub.func, "attr", None)}
    ]
    assert not calls, "Fraction constructed in " + ", ".join(calls)
