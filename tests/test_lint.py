"""Dead-name checks, as plain `ast` passes, since no linter ships with the toolchain.

Every name a module imports at top level is read in it: `import a.b` binds
`a`; `from __future__` imports are directives, not names. Every private
(`_name`, not dunder) function, class or variable a `src/` module defines at
top level is read in that same module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted(ROOT.glob("src/expanderlab/*.py"))
FILES = SRC + sorted(ROOT.glob("tests/*.py"))


def _read_names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _read_names(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    used = _read_names(tree)
    return [f"line {line}: {name}" for name, line in defined.items() if name not in used]


def test_check_sees_unused_names():
    source = "import os, a.b\nfrom x import y as z, w\nfrom __future__ import annotations\nw()\n"
    assert unused_imports(source) == ["line 1: os", "line 1: a", "line 2: z"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_unread_private_names():
    source = (
        "_A = 1\n_B, c = 2, 3\n_b: int = _A\n__v__ = 0\n_d = 0\n_d = 1\n"
        "def _f():\n    return _g\ndef _g():\n    _h = 1\nclass _C:\n    pass\n"
    )
    assert unread_private_names(source) == [
        "line 2: _B", "line 3: _b", "line 5: _d", "line 7: _f", "line 11: _C"
    ]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []
