"""The package's modules form layers: each imports only those below it.

The order, lowest first, is the one the README's layout lists.  Relative
imports inside functions count too, so a deferred import cannot hide a
cycle.  Every public function, class, module constant or method has a
caller outside the tests.
"""

import ast
import collections
import importlib
import pathlib
import re

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


BENCHMARK = PACKAGE.parent.parent / "benchmark"


def _referenced_names(node):
    """The names a statement loads, reads as an attribute or imports."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return found


def _bound_names(stmt):
    """The names a top-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [n.id for t in stmt.targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    return []


def test_every_public_function_has_a_caller():
    # a public name that only tests reach is surface that no command, no
    # pipeline step and no benchmark span needs; module constants count
    statements = [(path.stem, stmt) for path in PACKAGE.glob("*.py")
                  for stmt in ast.parse(path.read_text()).body]
    found = [_referenced_names(stmt) for _, stmt in statements]
    # in how many top-level statements of the package each name occurs
    uses = collections.Counter(name for names in found for name in names)
    bench = "\n".join(p.read_text() for p in BENCHMARK.glob("*.py"))
    unused = [f"{module}.{name}"
              for (module, stmt), names in zip(statements, found)
              for name in _bound_names(stmt)
              if not name.startswith("_")
              and uses[name] == (name in names)
              and not re.search(rf"\b{name}\b", bench)]
    assert sorted(unused) == []


def _attribute_reads(node):
    return collections.Counter(n.attr for n in ast.walk(node)
                               if isinstance(n, ast.Attribute))


def test_every_public_method_has_a_caller():
    # a method is reached as an attribute; reads inside its own body, such
    # as a recursive call, do not count
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    reads = sum(map(_attribute_reads, trees), collections.Counter())
    bench = "\n".join(p.read_text() for p in BENCHMARK.glob("*.py"))
    unused = [f"{cls.name}.{fn.name}"
              for tree in trees for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef)
              for fn in cls.body
              if isinstance(fn, ast.FunctionDef)
              and not fn.name.startswith("_")
              and reads[fn.name] == _attribute_reads(fn)[fn.name]
              and not re.search(rf"\.{fn.name}\b", bench)]
    assert sorted(unused) == []


def _callers(name):
    """(module, top-level def or class) of each call of name outside
    exactfield, whether called bare or as an attribute."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == "exactfield":
            continue
        for stmt in ast.parse(path.read_text()).body:
            for n in ast.walk(stmt):
                if isinstance(n, ast.Call) and name in (
                        getattr(n.func, "id", None),
                        getattr(n.func, "attr", None)):
                    found.add((path.stem, getattr(stmt, "name", None)))
    return found


def test_only_the_diagonalisation_lifts_into_the_ambient_field():
    # each value stays in its own field: the one lift is of gamma's
    # entries, where normalize_element_to_scaling takes a square root
    assert _callers("to_ambient") == {("icosa", "normalize_element_to_scaling")}


RING_OPERATORS = {f"__{p}{op}__" for op in ("add", "sub", "mul", "pow")
                  for p in ("", "r")} | {"__neg__"}


def test_only_polynomials_and_field_elements_have_ring_operators():
    # rational functions are built, evaluated, compared and divided, and a
    # binary form is a coefficient tuple: neither adds or multiplies
    owners = {cls.name for path in PACKAGE.glob("*.py")
              for cls in ast.walk(ast.parse(path.read_text()))
              if isinstance(cls, ast.ClassDef) for stmt in cls.body
              if RING_OPERATORS & set(_bound_names(stmt))}
    assert owners == {"Poly", "_IntVectorElement"}


def test_the_benchmark_finds_every_name_it_uses():
    # benchmark/ imports these names and traces these paths, so deleting
    # or renaming one breaks the benchmark; the files are only parsed here
    missing = []
    for path in BENCHMARK.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("icosacurves")):
                module = importlib.import_module(node.module)
                missing += [f"{node.module}.{alias.name}"
                            for alias in node.names
                            if not hasattr(module, alias.name)]
    spans = ast.parse((BENCHMARK / "spans.py").read_text())
    targets = next(ast.literal_eval(stmt.value) for stmt in spans.body
                   if isinstance(stmt, ast.Assign)
                   and [getattr(t, "id", None) for t in stmt.targets]
                   == ["TARGETS"])
    assert len(targets) > 10
    for module, attr_path in targets:
        owner = importlib.import_module(f"icosacurves.{module}")
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr_path}")
    assert missing == []
