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


def unused_imports(source: str) -> list:
    """Names a module imports and never reads, apart from from-__future__
    imports and imports on a line marked "# noqa: F401"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name}:{line}" for name, line in imported.items()
                  if name not in read)


def test_package_imports_only_what_it_uses():
    # __init__.py imports to re-export
    package = Path(quasitoric.__file__).parent
    found = [f"{path.name}:{entry}"
             for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"
             for entry in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_unused_import_check_sees_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .linalg import dot, mat_rank  # noqa: F401\n"
              "from .linalg import rank_kernel_solve, solve_unique\n"
              "x = os.path.join(solve_unique)\n")
    assert unused_imports(source) == ["rank_kernel_solve:4"]
