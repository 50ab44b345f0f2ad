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


def dead_private_names(sources: dict) -> list:
    """Module-level private names (one leading underscore, no dunder)
    that no module of sources reads: not as a name, an attribute or an
    imported name.  sources maps a module's file name to its text."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for name, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                targets = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                targets = [(n.id, n.lineno) for target in nodes
                           for n in ast.walk(target)
                           if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{name}:{ident}:{line}" for ident, line in targets
                      if ident.startswith("_")
                      and not ident.startswith("__")
                      and ident not in read]
    return found


def test_package_has_no_dead_private_helpers():
    package = Path(quasitoric.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_dead_helper_check_sees_an_unread_helper():
    sources = {"a.py": "_LIMIT = 3\n"
                       "def _used():\n    return _LIMIT\n"
                       "def _dead():\n    return _used()\n"
                       "__all__ = ['x']\n",
               "b.py": "from .a import _used as used\n"
                       "class _Box:\n    pass\n"
                       "def _helper():\n    pass\n"
                       "x = _helper\n"}
    assert dead_private_names(sources) == ["a.py:_dead:4", "b.py:_Box:2"]


def unreferenced_private_definitions(sources: dict) -> list:
    """Private functions and classes (one leading underscore, no dunder),
    at module level or as methods, that no module of sources references
    outside their own definition: not as a name, an attribute or an
    imported name.  sources maps a module's file name to its text."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    references = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                references.setdefault(name, []).append(id(node))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for name, tree in sorted(trees.items()):
        for node in tree.body:
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for item in (node, *methods):
                if not isinstance(item, kinds) \
                        or not item.name.startswith("_") \
                        or item.name.startswith("__"):
                    continue
                inside = set(map(id, ast.walk(item)))
                if all(ref in inside
                       for ref in references.get(item.name, ())):
                    found.append(f"{name}:{item.name}:{item.lineno}")
    return found


def test_private_definitions_are_referenced_elsewhere():
    package = Path(quasitoric.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []


def test_reference_check_sees_recursion_and_methods():
    sources = {"a.py": "def _gcd(a, b):\n"
                       "    return _gcd(b, a % b) if b else a\n"
                       "class _Unused:\n    pass\n"
                       "class Box:\n"
                       "    def _used(self):\n        return 1\n"
                       "    def _unread(self):\n        return self._used()\n"
                       "    def __len__(self):\n        return 0\n",
               "b.py": "from .a import Box\n"
                       "def _scaled(ray):\n    return ray\n"
                       "def _wrapped(ray):\n    return ray\n"
                       "spans = [_wrapped]\n"}
    assert unreferenced_private_definitions(sources) == [
        "a.py:_gcd:1", "a.py:_Unused:3", "a.py:_unread:8",
        "b.py:_scaled:2"]


def element_mutations(source: str) -> list:
    """Lines that store to or delete an attribute num or den, or name one
    in a setattr call, outside FieldElement.__init__.  Elements are shared
    (a field handle hands out one cached inverse to every caller), so
    they must never change after construction."""
    tree = ast.parse(source)
    exempt = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "FieldElement":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and item.name == "__init__":
                    exempt.update(map(id, ast.walk(item)))
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            name = node.attr
        elif isinstance(node, ast.Call) and node.args[1:] and isinstance(
                node.args[1], ast.Constant) and (
                getattr(node.func, "id", None) == "setattr"
                or getattr(node.func, "attr", None) == "__setattr__"):
            name = node.args[1].value
        else:
            continue
        if name in ("num", "den"):
            found.append((node.lineno, name))
    return [f"{line}:{name}" for line, name in sorted(found)]


def test_package_never_mutates_an_element():
    package = Path(quasitoric.__file__).parent
    found = [f"{path.name}:{entry}"
             for path in sorted(package.glob("*.py"))
             for entry in element_mutations(path.read_text(encoding="utf-8"))]
    assert found == []


def test_mutation_check_sees_a_store_outside_init():
    source = ("class FieldElement:\n"
              "    def __init__(self, num, den):\n"
              "        self.num = num\n"
              "        self.den = den\n"
              "    def scale(self, c):\n"
              "        self.num = tuple(c * x for x in self.num)\n"
              "def bump(x):\n"
              "    x.den += 1\n"
              "    del x.num\n"
              "    setattr(x, 'den', 2)\n"
              "    object.__setattr__(x, 'num', ())\n"
              "    x.field = None\n")
    assert element_mutations(source) == ["6:num", "8:den", "9:num",
                                         "10:den", "11:num"]
