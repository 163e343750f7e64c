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


def _empty_dicts_at_module_or_class_level(path):
    """Line numbers of the {} and dict() assigned outside any function."""
    found = []
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef):
            stack.extend(node.body)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if (isinstance(value, ast.Dict) and not value.keys
                    or isinstance(value, ast.Call)
                    and getattr(value.func, "id", None) == "dict"):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("name", ORDER)
def test_every_cache_is_functools_cache(name):
    # a hand-rolled memo is an empty dict filled at run time
    assert _empty_dicts_at_module_or_class_level(PACKAGE / f"{name}.py") == []


def test_cached_objects_are_shared():
    from icosacurves.exactfield import QuadraticElement, cyclotomic_field
    from icosacurves.loci import build_locus

    assert cyclotomic_field(5) is cyclotomic_field(5)
    gauss = QuadraticElement(1, 2, -1), QuadraticElement(3, 0, -1)
    assert gauss[0].field is gauss[1].field is (gauss[0] * gauss[1]).field
    root5 = QuadraticElement(0, 1, 5)
    tower = (QuadraticElement(root5 + 1, root5, -1),
             QuadraticElement(3, root5, -1))
    assert tower[0].field is tower[1].field is (tower[0] / tower[1]).field
    assert build_locus(3) is build_locus(3)
