"""The package's import layers, read from the source with `ast`.

Each module imports only from the modules below it, in the order
series -> mock_theta -> qexpr -> catalogue -> cli; `__init__`
and `__main__` sit above them all. The enumeration oracle referees the
series builders, so it imports no other qcong module, and the tests'
plain-list references import neither qcong nor numpy.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qcong"
LAYERS = ["series", "mock_theta", "qexpr", "catalogue", "cli"]
EXEMPT = {"__init__", "__main__"}


def _qcong_imports(module: str) -> set[str]:
    """The qcong modules that `module` imports, relatively or by name."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else [node.module])
            found.update(name.split(".")[1] for name in names
                         if name.startswith("qcong."))
    return found


def test_every_module_has_a_place():
    modules = {p.stem for p in SRC.glob("*.py")}
    assert modules == set(LAYERS) | EXEMPT | {"oracle"}


@pytest.mark.parametrize("module", LAYERS)
def test_imports_point_only_downward(module):
    below = set(LAYERS[:LAYERS.index(module)]) | {"oracle"}
    assert _qcong_imports(module) <= below


def test_oracle_imports_no_qcong_module():
    assert _qcong_imports("oracle") == set()


def test_reference_kit_imports_no_qcong_module_nor_numpy():
    # tests/reference.py judges the kernels, so it shares no code with them
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("." if node.level else node.module.split(".")[0])
    assert not roots & {"qcong", "numpy", "."}


def test_the_reader_sees_relative_imports():
    # guards the tests above against a reader that finds nothing
    assert _qcong_imports("catalogue") >= {"mock_theta", "qexpr", "series"}
    assert _qcong_imports("series") == set()


def _unused_imports(source: str) -> set[str]:
    """The names `source` imports and never reads: a bound name with no
    `ast.Name` of the same id anywhere in the module."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")
                                          if p.stem != "__init__"))
def test_every_import_is_used(module):
    # __init__ imports to re-export, so it alone is exempt
    assert _unused_imports((SRC / f"{module}.py").read_text(encoding="utf-8")) == set()


def test_the_unused_import_reader_sees_an_unused_import():
    # guards the test above against a reader that finds nothing
    source = "import os.path\nimport numpy as np\nfrom math import pi, tau\nprint(pi)\n"
    assert _unused_imports(source) == {"os", "np", "tau"}


@pytest.mark.parametrize("module", ["catalogue", "cli"])
def test_leaves_are_named_by_source_above_qexpr(module):
    # only qexpr knows how a leaf is stored: the layers above it name their
    # leaves by source, parse("C"), never by building an Atom
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "qexpr"
             for alias in node.names}
    assert "parse" in names and "Atom" not in names


def _orphans(sources: dict[str, str], keep: set[str]) -> set[str]:
    """The module-level functions of `sources` ({module: source}) that no
    `ast.Name` or `ast.Attribute` in any of them names, less `keep`."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {f"{module}.{node.name}" for module, tree in trees.items()
               for node in tree.body if isinstance(node, ast.FunctionDef)}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    return {f for f in defined if f.split(".")[1] not in named} - keep


def test_no_orphaned_helpers():
    # a helper whose last caller went is deleted with it; the exported API
    # and the console entry point are called from outside src/
    import qcong
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    keep = {f"{module}.{name}" for module in sources for name in qcong.__all__}
    assert _orphans(sources, keep | {"cli.main"}) == set()


def test_the_orphan_reader_sees_an_orphan():
    # guards the test above against a reader that finds nothing
    sources = {"a": "def used():\n    pass\n\ndef lost():\n    pass\n",
               "b": "import a\na.used()\n\ndef exported():\n    pass\n"}
    assert _orphans(sources, {"b.exported"}) == {"a.lost"}
