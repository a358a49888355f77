"""Source-level checks on the library package."""

import ast
from pathlib import Path

import nnquery

PACKAGE = Path(nnquery.__file__).parent


def test_no_assert_in_library():
    # `python -O` strips assert statements, so internal checks raise
    # explicit exceptions instead; AssertionError is left to the tests.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert or AssertionError in the library: {found}"
