"""The package imports only the standard library, numpy (its one declared
dependency) and itself, so an import of a package that merely happens to be
installed fails here instead of on a user's machine.  No module but the
package's ``__init__`` (which re-exports) imports a name it never uses, and
the package reads every private top-level name that it defines."""

import ast
import sys
from pathlib import Path

import pytest

import smoothsmc

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "smoothsmc"}
MODULES = sorted(Path(smoothsmc.__file__).parent.glob("*.py"))


def undeclared_imports(source: str) -> list[str]:
    """Top-level names of the imported modules outside ``ALLOWED``."""
    roots = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return [root for root in roots if root not in ALLOWED]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_declared_dependencies(path):
    assert undeclared_imports(path.read_text()) == []


def test_guard_flags_an_undeclared_import():
    source = "import numpy\nimport scipy.linalg\nfrom pandas import DataFrame\nfrom . import sim\n"
    assert undeclared_imports(source) == ["scipy", "pandas"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "import numpy as np\nfrom .sim import SimConfig, Trajectory\n"
              "def f(cfg: SimConfig):\n    return np.zeros(3), os.sep\n")
    assert unused_imports(source) == ["math", "Trajectory"]


def unread_private_names(sources: list[str]) -> list[str]:
    """Private top-level names (one leading underscore) that the modules
    define, by ``def``, ``class`` or assignment, and none reads: by name, as
    an attribute or in an import."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_package_reads_every_private_name_it_defines():
    assert unread_private_names([path.read_text() for path in MODULES]) == []


def test_guard_flags_an_unread_private_name():
    module = ("__all__ = ['f']\n_USED, _UNUSED = 1, 2\n_LIMIT: int = 3\n"
              "class _Kept:\n    def _method(self):\n        return _USED\n"
              "def _helper():\n    return _Kept\n"
              "def _called_elsewhere():\n    pass\n"
              "def f(x):\n    return x._used_attribute\n")
    other = "from . import a\nfrom .b import _LIMIT\na._called_elsewhere()\n"
    assert unread_private_names([module, other]) == ["_UNUSED", "_helper"]
