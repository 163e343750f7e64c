"""The package's modules form layers: each imports only those below it.

The order, lowest first, is the one the README's layout lists.  Relative
imports inside functions count too, so a deferred import cannot hide a
cycle.
"""

import ast
import pathlib

import pytest

ORDER = ("errors", "polyring", "exactfield", "invariants", "icosa",
         "decomp", "families", "loci", "fixtures", "cli")

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "icosacurves"


def _package_imports(path):
    """Names of the package modules a source file imports relatively."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("name", ORDER)
def test_module_imports_only_lower_layers(name):
    below = set(ORDER[:ORDER.index(name)])
    assert _package_imports(PACKAGE / f"{name}.py") <= below
