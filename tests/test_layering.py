"""Import layering of dirac_atlas, read from the source without importing it.

Finite groups live in ktheory only: the rapid-decay lab serves the
infinite groups F_k and Z^d with their word length, so it imports
nothing from ktheory.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dirac_atlas"


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


def test_rapid_decay_imports_nothing_from_ktheory():
    modules = _imported_modules(PACKAGE / "rapid_decay.py")
    assert "dirac_atlas.errors" in modules  # the reader sees the relative imports
    assert not {m for m in modules if m == "dirac_atlas.ktheory" or m.startswith("dirac_atlas.ktheory.")}
