"""Dead-name and module-state checks, as `ast` passes, since no linter ships with the toolchain.

Every name a module imports at top level is read in it: `import a.b` binds
`a`; `from __future__` imports are directives, not names. Every private
(`_name`, not dunder) function, class or variable a `src/` module defines at
top level is read in that same module. Every public name a `src/` module
defines at top level is read outside `tests/`: loaded as a name or an
attribute in `src/`, mentioned in `bench/*.py`, or named by the console
script in `pyproject.toml`. Every public method or property of a `src/`
class with no base classes is read as an attribute in `src/`: a method that
only tests call is a wrapper kept alive by them. No `src/` module binds a
top-level name with a lowercase letter (dunders excepted): module-level values are UPPER_CASE
constants, so no module holds state that a call can change. No top-level
`src/` function gives a non-None default to a parameter that every `src/`
call of it passes: a default that nothing relies on states its value a
second time, beside the one its callers set. No `src/` module uses the
stdlib `random` module or `numpy.random`: every sample comes from a seeded
`rng.Stream`, so a seed fixes every output on every platform.
"""

import ast
import re
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


def _assigned(node: ast.stmt) -> list[str]:
    """The names an assignment statement binds; none for any other statement."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _top_level_defs(tree: ast.Module) -> dict[str, int]:
    """Each name a def, class or assignment binds at top level -> its first line."""
    defined = {}
    for node in tree.body:
        is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
        for name in [node.name] if is_def else _assigned(node):
            defined.setdefault(name, node.lineno)
    return defined


def module_state(source: str) -> list[str]:
    """Top-level assignments to a name with a lowercase letter, dunders excepted."""
    return [
        f"line {node.lineno}: {name}"
        for node in ast.parse(source).body
        for name in _assigned(node)
        if name != name.upper() and not (name.startswith("__") and name.endswith("__"))
    ]


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _read_names(tree)
    return [
        f"line {line}: {name}"
        for name, line in _top_level_defs(tree).items()
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]


def unread_public_names(sources: dict[str, str], other_text: str) -> list[str]:
    """Public top-level names of `sources` (file name -> text) that nothing reads.

    A read is a name or attribute load in any of `sources`, or the name as a
    whole word in `other_text` (the bench scripts and the console script entries).
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*map(_read_names, trees.values()))
    read |= {
        n.attr for t in trees.values() for n in ast.walk(t)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    read |= set(re.findall(r"\w+", other_text))
    return [
        f"{file} line {line}: {name}"
        for file, tree in trees.items()
        for name, line in _top_level_defs(tree).items()
        if not name.startswith("_") and name not in read
    ]


def unread_methods(sources: dict[str, str]) -> list[str]:
    """Public methods and properties of top-level base-less classes that no attribute load reads.

    Both the classes and the reads are those of `sources` (file name -> text).
    A read matches by attribute name alone, whatever object it is read from.
    A class with a base may define a method for the base's callers, so it is skipped.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {
        n.attr for t in trees.values() for n in ast.walk(t)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return [
        f"{file} line {node.lineno}: {cls.name}.{node.name}"
        for file, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.bases
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in read
    ]


def unrelied_defaults(sources: dict[str, str]) -> list[str]:
    """Non-None defaults of top-level functions in `sources` that every direct call overrides.

    A direct call names the function, as `f(...)` or `m.f(...)`, anywhere in
    `sources` and passes the parameter by position or by keyword. A function
    that no call names is skipped. A None default means "absent" and is exempt.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                calls.setdefault(name, []).append(n)
    found = []
    for file, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name not in calls:
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            defaults = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
            defaults += [(p, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for param, default in defaults:
                if isinstance(default, ast.Constant) and default.value is None:
                    continue
                at = positional.index(param) if param in positional else len(positional)
                if all(
                    at < len(c.args) or any(k.arg == param.arg for k in c.keywords)
                    for c in calls[node.name]
                ):
                    found.append(f"{file} line {node.lineno}: {node.name}({param.arg})")
    return found


def random_module_uses(source: str) -> list[str]:
    """Imports of `random`, `numpy.random` or anything in them, and reads of `<numpy>.random`.

    `<numpy>` is any name `import numpy` binds, `np` included.
    """
    tree = ast.parse(source)
    numpy_names = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                if alias.name in ("random", "numpy.random") or alias.name.startswith(
                    ("random.", "numpy.random.")
                ):
                    found.append(f"line {node.lineno}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if module.split(".")[0] == "random" or module.startswith("numpy.random") or (
                module == "numpy" and "random" in names
            ):
                found.append(f"line {node.lineno}: from {module} import {', '.join(sorted(names))}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in numpy_names
        ):
            found.append(f"line {node.lineno}: {node.value.id}.random")
    return found


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


def test_check_sees_unread_public_names():
    sources = {
        "a.py": (
            "X = 1\nY, _z = 2, 3\ndef f():\n    return g()\ndef g():\n    pass\n"
            "class C:\n    pass\n"
        ),
        "b.py": "import a\nT = a.Y\nclass D:\n    pass\n",
    }
    assert unread_public_names(sources, "D = 'as text'") == [
        "a.py line 1: X", "a.py line 3: f", "a.py line 7: C", "b.py line 2: T"
    ]


def test_no_public_name_read_only_by_tests():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC}
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("bench/*.py")))
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = project.split("[project.scripts]")[1].split("\n[")[0]
    assert unread_public_names(sources, bench + "\n" + scripts) == []


def test_check_sees_unread_methods():
    sources = {
        "a.py": (
            "class C:\n    def used(self):\n        return self.p\n    def unused(self):\n"
            "        pass\n    @property\n    def p(self):\n        return 1\n"
            "    @property\n    def q(self):\n        return 2\n    def _private(self):\n"
            "        pass\n    def __len__(self):\n        return 0\n"
            "class D(C):\n    def hook(self):\n        pass\n"
        ),
        "b.py": "import a\na.C().used()\nunused = 1\n",
    }
    assert unread_methods(sources) == ["a.py line 4: C.unused", "a.py line 10: C.q"]


def test_no_method_read_only_by_tests():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC}
    assert unread_methods(sources) == []


def test_check_sees_module_state():
    source = (
        "X = 1\n_Y: int = 2\n__version__ = '1'\n_cache = {}\nstate: list = []\n"
        "a, B = 1, 2\nMixed_Case = 0\ndef f():\n    local = 1\nclass C:\n    attr = 1\n"
    )
    assert module_state(source) == [
        "line 4: _cache", "line 5: state", "line 6: a", "line 7: Mixed_Case"
    ]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_state(path):
    assert module_state(path.read_text(encoding="utf-8")) == []


def test_check_sees_unrelied_defaults():
    sources = {
        "a.py": (
            "def f(x, k=2, *, s='t', n=None, b=1):\n    pass\n"
            "def g(y=0):\n    pass\n"
            "def h(z=0, w=()):\n    pass\n"
            "def _unused(v=1):\n    pass\n"
        ),
        "b.py": "import a\na.f(1, 3, s='u', n=4)\nf(0, k=5, s='v')\ng(1)\ng()\nh(1, w=2)\n",
    }
    assert unrelied_defaults(sources) == [
        "a.py line 1: f(k)", "a.py line 1: f(s)", "a.py line 5: h(z)", "a.py line 5: h(w)"
    ]


def test_every_default_is_relied_on():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC}
    assert unrelied_defaults(sources) == []


def test_check_sees_random_modules():
    source = (
        "import numpy as np\nimport random\nfrom random import shuffle\nimport numpy.random\n"
        "from numpy import random as r, pi\nfrom numpy.random import default_rng\n"
        "from .rng import Stream\nx = np.random.default_rng(0)\ny = np.pi\nz = rng.random\n"
    )
    assert random_module_uses(source) == [
        "line 2: import random", "line 3: from random import shuffle",
        "line 4: import numpy.random", "line 5: from numpy import pi, random",
        "line 6: from numpy.random import default_rng", "line 8: np.random",
    ]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_random_module(path):
    assert random_module_uses(path.read_text(encoding="utf-8")) == []
