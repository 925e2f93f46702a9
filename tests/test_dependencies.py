"""The package imports only the standard library, numpy (its one declared
dependency) and itself, so an import of a package that merely happens to be
installed fails here instead of on a user's machine."""

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
