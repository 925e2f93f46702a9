"""The package imports only the standard library, numpy (its one declared
dependency) and itself, so an import of a package that merely happens to be
installed fails here instead of on a user's machine.  No module but the
package's ``__init__`` (which re-exports) imports a name it never uses."""

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
