"""The package imports nothing outside the standard library: every
absolute import in src/paritytree names a standard-library module, so the
package installs and runs with no dependencies.  Relative imports, within
the package, are not checked."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "paritytree").glob("*.py"))


def imported_modules(path):
    """The top-level module of each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "universal_tree.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_standard_library_only(path):
    outside = sorted(set(imported_modules(path)) - sys.stdlib_module_names)
    assert outside == []
