"""Source hygiene: no unused module-level imports, no dead definitions.

Two stdlib-``ast`` checks over ``src/repro/``:

* every module-level import of a module (``__init__.py`` re-exports
  aside) is used somewhere in that module;
* every function, class and method defined under ``src/repro/`` is named
  somewhere besides its own definition in ``src/``, ``tests/``,
  ``benchmarks/`` or ``examples/`` (a textual count of the identifier,
  so a dynamic ``getattr`` by name or a docstring mention keeps it).
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "benchmarks", "examples")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@lru_cache(maxsize=None)
def _modules() -> tuple[tuple[Path, ast.Module], ...]:
    """Every module under ``src/repro`` with its parsed tree."""
    return tuple(
        (path, ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(SRC.rglob("*.py"))
    )


def _bound_names(node: ast.stmt) -> list[str]:
    names = []
    for alias in node.names:  # type: ignore[attr-defined]
        if alias.name == "*":
            continue
        names.append(alias.asname or alias.name.split(".")[0])
    return names


def _module_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """Names bound by module-level imports (``__future__`` excluded),
    including imports nested in module-level ``if``/``try`` blocks."""
    out: list[tuple[str, int]] = []
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((name, node.lineno) for name in _bound_names(node))
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                stack.extend(block)
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)
    return out


def _used_names(tree: ast.Module) -> set[str]:
    """Every name loaded in the module, including names inside quoted
    annotations and ``__all__`` entries."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
                continue
            if "\n" in node.value:
                continue  # prose, not a quoted annotation
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def unused_imports() -> list[str]:
    problems = []
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        used = _used_names(tree)
        for name, line in _module_imports(tree):
            if name not in used:
                problems.append(f"{path.relative_to(SRC)}:{line}: {name}")
    return problems


def _definitions() -> list[tuple[str, str, int]]:
    """``(module, name, line)`` for every def/class under ``src/repro``."""
    out = []
    for path, tree in _modules():
        rel = str(path.relative_to(SRC))
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                out.append((rel, node.name, node.lineno))
    return out


def dead_definitions() -> list[str]:
    mentions: Counter = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            mentions.update(_IDENT.findall(path.read_text()))
    definitions = _definitions()
    defined: Counter = Counter(name for _, name, _ in definitions)
    problems = []
    for rel, name, line in definitions:
        if name.startswith("__") and name.endswith("__"):
            continue  # protocol methods are called by the interpreter
        if mentions[name] <= defined[name]:
            problems.append(f"{rel}:{line}: {name}")
    return problems


def test_no_unused_module_imports():
    assert unused_imports() == []


def test_no_unreferenced_definitions():
    assert dead_definitions() == []
