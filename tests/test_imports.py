"""Every module of the package uses each name it imports, and every
private module-level function or class is used somewhere in the package.

No linter ships with the package, so this stands in for the unused-import
and dead-code rules: a name bound by an import must be read somewhere in
the module, or be listed in the module's __all__; a module-level def or
class whose name starts with one underscore must be named by some code
outside its own body (in any module, so private helpers shared between
modules count as used).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lagrev"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def unreferenced_private_defs(sources: dict) -> list[str]:
    defined = {}
    used = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = getattr(node, "name", None)
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and own.startswith("_")
                and not own.startswith("__")
            ):
                defined[own] = f"{module}:{node.lineno}"
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    ref = sub.id
                elif isinstance(sub, ast.Attribute):
                    ref = sub.attr
                else:
                    continue
                if ref != own:
                    used.add(ref)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector():
    source = (
        "import math\nimport os\nfrom typing import Any, Optional\n"
        "from .x import kept\n__all__ = ['kept']\nmath.pi\nv: Optional[int] = 1\n"
    )
    assert unused_imports(source) == ["Any (line 3)", "os (line 2)"]


def test_no_unreferenced_private_defs():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_defs(sources) == []


def test_dead_code_detector():
    sources = {
        "a.py": (
            "def _used():\n    return 1\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Dead:\n    pass\n"
            "def __dunder__():\n    pass\n"
        ),
        "b.py": "from . import a\n\ndef public():\n    return a._used()\n",
    }
    assert unreferenced_private_defs(sources) == ["_Dead (a.py:5)", "_recursive (a.py:3)"]


def test_all_lists_exactly_the_public_imports():
    # the unused-import rule skips __init__.py, so a public name removed
    # from a module but not from the package namespace is caught here
    import lagrev

    assert [name for name in lagrev.__all__ if not hasattr(lagrev, name)] == []
    imported = {
        alias.asname or alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert sorted(n for n in imported if not n.startswith("_") and n not in lagrev.__all__) == []


# The modules that may name the quadrature oracle: its home, the real
# analog's thm19 oracle, the verify harness, the CLI and the package
# namespace.  A closed form that names it has started integrating again.
ORACLE_USERS = {"quadrature.py", "realanalog.py", "verify.py", "cli.py", "__init__.py"}


def names(source: str, name: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(name in (alias.asname, alias.name.split(".")[-1]) for alias in node.names):
                return True
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return True
        elif getattr(node, "id", None) == name or getattr(node, "attr", None) == name:
            return True
    return False


def test_only_the_oracle_users_name_quad_oracle():
    users = {p.name for p in PACKAGE.glob("*.py") if names(p.read_text(), "quad_oracle")}
    assert users <= ORACLE_USERS


def test_oracle_detector():
    assert names("from .quadrature import newton, quad_oracle\n", "quad_oracle")
    assert names("from . import quadrature\nquadrature.quad_oracle(f, 0, 1)\n", "quad_oracle")
    assert not names("from .quadrature import newton_decreasing\n", "quad_oracle")
