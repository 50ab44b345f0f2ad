"""Internal invariants are checked in every run mode, apart from domain
verdicts."""

import ast
from pathlib import Path

import quasitoric
from quasitoric.errors import InternalInvariantError, ToolkitError


def test_package_has_no_assert_statements():
    # assert statements vanish under python -O
    package = Path(quasitoric.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_invariant_error_is_no_domain_verdict():
    assert not issubclass(InternalInvariantError, ToolkitError)
    assert not issubclass(InternalInvariantError, AssertionError)
