"""Source-level invariants of the package."""

import ast
from pathlib import Path

import eiscomp

PACKAGE = Path(eiscomp.__file__).parent


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements; invariant checks must raise explicitly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
