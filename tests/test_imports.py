"""Every module of the package uses each name it imports, every
module-level function or class is reached, and the package namespace
resolves exactly the names of its table.

No linter ships with the package, so this stands in for the unused-import
and dead-code rules: a name bound by an import must be read somewhere in
the module, or be listed in the module's __all__; a module-level def or
class whose name starts with one underscore must be named by some code
outside its own body (in any module, so private helpers shared between
modules count as used); a public one must be named so too, or be listed in
the package table, or be named by the benchmark (perfbench/*.py, which
calls some functions by name only).
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lagrev

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lagrev"
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


def unreferenced_defs(sources: dict, public: bool = False, named=frozenset()) -> list[str]:
    """Module-level defs and classes, private or public, that no code
    outside their own body names and that are not in `named`."""
    defined = {}
    used = set(named)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = getattr(node, "name", None)
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and own.startswith("_") != public
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
    assert unreferenced_defs(sources) == []


def benchmark_names() -> set:
    """Every name, attribute and string constant in perfbench/*.py: the
    special-function workload calls getattr(specfun, name)."""
    found = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
            found.add(getattr(node, "id", None) or getattr(node, "attr", None))
    return found


def test_no_unreferenced_public_defs():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    named = set(lagrev.__all__) | benchmark_names()
    assert unreferenced_defs(sources, public=True, named=named) == []


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
    assert unreferenced_defs(sources) == ["_Dead (a.py:5)", "_recursive (a.py:3)"]
    assert unreferenced_defs(sources, public=True) == ["public (b.py:3)"]
    assert unreferenced_defs(sources, public=True, named={"public"}) == []


def test_all_lists_exactly_the_public_imports():
    # __all__ is derived from the package table: each name once, each the
    # object its home module binds, and never bound into the package, so
    # that a patched module function is what the package returns
    table = lagrev._PUBLIC
    assert len(lagrev.__all__) == sum(len(names) for names in table.values())
    for module, names in table.items():
        home = importlib.import_module(f"lagrev.{module}")
        for name in names:
            assert getattr(lagrev, name) is getattr(home, name)
            assert name not in vars(lagrev)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lagrev import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(lagrev.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lagrev.no_such_name


def test_bare_import_loads_no_module():
    # a fresh interpreter: `import lagrev` compiles none of the modules,
    # and lagrev.<module> then works for every one of them
    script = (
        "import json, sys\n"
        "import lagrev\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('lagrev.'))\n"
        f"names = [getattr(lagrev, m).__name__ for m in {[p.stem for p in MODULES]!r}]\n"
        "print(json.dumps([loaded, names]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    loaded, names = json.loads(done.stdout)
    assert loaded == []
    assert names == [f"lagrev.{p.stem}" for p in MODULES]


def test_readme_library_tour_runs():
    # the README's python block asserts its own results
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md", "exec"), {})


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
