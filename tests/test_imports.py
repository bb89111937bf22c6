"""Every name that a module of ``rydphon`` imports is used in that module.

No linter is part of the project's tooling, so this ``ast`` check stands in
for one: a refactor that moves the last use of a name out of a module fails
here until the import goes too.  ``__init__.py`` is left out, since its
imports are the exported names that ``test_api_surface.py`` pins.
"""

import ast
from pathlib import Path

import pytest

import rydphon

MODULES = sorted(p for p in Path(rydphon.__file__).parent.glob("*.py") if p.name != "__init__.py")

# (module, name) imported but not used, on purpose, with the reason
KEPT = {
    ("atom_phonon", "band_structure"):
        "perfbench/test_perfbench.py asserts that the span recorder rebinds it in this namespace",
}


def _unused_imports(source: str) -> set:
    """Names bound by the imports of ``source`` that no other name in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    unused = {(path.stem, name) for name in _unused_imports(path.read_text())}
    assert unused <= set(KEPT), sorted(unused - set(KEPT))


def test_kept_imports_are_still_unused():
    """An exception whose name is used again is stale, and goes from KEPT."""
    for module, name in KEPT:
        source = (Path(rydphon.__file__).parent / f"{module}.py").read_text()
        assert name in _unused_imports(source), (module, name)


def test_the_check_finds_an_unused_import():
    source = "import numpy as np\nfrom .bands import q_grid, track_bands\nq_grid(np)\n"
    assert _unused_imports(source) == {"track_bands"}
