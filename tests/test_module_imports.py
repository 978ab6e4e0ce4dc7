"""Every module-level import of the package is used in its module, and
every private module-level name is used somewhere in the package, and
importing the package does not import `numpy.random`.

No linter runs on this repository, so these checks keep deletions from
leaving imports or private helpers behind.  `__init__.py` is skipped for
imports: its imports are the package's public names.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dyadicpara"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict:
    """Name bound by each module-level import -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert unused == {}, f"{path.name}: unused imports {unused}"


def _private_definitions(tree: ast.Module) -> dict:
    """Private name bound at module level (function, class or constant,
    not dunder) -> its definition node."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defs[name] = node
    return defs


def _references(node) -> set:
    """Every name, attribute and imported name read under `node`."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_private_module_level_name_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    statements = [(stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body]
    # a reference outside its own definition, in any module
    orphans = [
        f"{module}: {name}"
        for module, tree in sorted(trees.items())
        for name, definition in _private_definitions(tree).items()
        if not any(name in names for stmt, names in statements if stmt is not definition)
    ]
    assert orphans == []


def test_importing_the_package_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; loading it with the package
    # would slow the start of every process, also of those that draw nothing
    code = "import sys, dyadicpara; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
