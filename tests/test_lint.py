"""Lints on the package's own source."""

import ast
from pathlib import Path

import hallforge


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every check in the package is
    # an explicit raise: ValueError for bad input, AssertionError marked
    # unreachable for an internal invariant
    root = Path(hallforge.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) >= 10
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
