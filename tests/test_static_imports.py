"""A local stand-in for two of CI's ruff rules, over ruff's CI paths.

* F401: an imported name that the module never reads.
* F811: an import, function or class redefined in the same block before
  the name it rebinds was read.

A name counts as read wherever the module loads it (any scope), in a string
annotation, or in ``__all__``; ``from __future__`` imports and lines marked
``# noqa`` (bare, or naming the rule) are exempt.  The scan is an ``ast``
walk, coarser than ruff's scopes, so it may miss a finding ruff reports (an
import read only through a same-named variable of another function) or
report one ruff would not; agreement with ruff itself is not checked here.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
#: the paths CI's "Ruff" step lints
PATHS = ("src", "benchmarks", "scenarios", "tests", "examples")
NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _exempt(lines: list[str], lineno: int, code: str) -> bool:
    match = NOQA.search(lines[lineno - 1])
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or code in {part.strip().upper() for part in codes.split(",")}


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by the string annotations inside ``node``."""
    names: set[str] = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            try:
                parsed = ast.parse(inner.value, mode="eval")
            except SyntaxError:
                continue
            names |= {name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)}
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, reads in a string annotation, or exports in ``__all__``."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for argument in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                             arguments.vararg, arguments.kwarg):
                if argument is not None and argument.annotation is not None:
                    read |= _annotation_names(argument.annotation)
            if node.returns is not None:
                read |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                read |= {element.value for element in ast.walk(node.value)
                         if isinstance(element, ast.Constant) and isinstance(element.value, str)}
    return read


def _bound(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".")[0]


def _unread_imports(tree: ast.Module, lines: list[str]) -> list[tuple[int, str]]:
    read = _read_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = _bound(alias)
                if alias.name != "*" and name not in read and not _exempt(lines, alias.lineno, "F401"):
                    found.append((alias.lineno, f"F401 {name!r} imported but unused"))
    return found


def _is_overload(node: ast.AST) -> bool:
    decorators = getattr(node, "decorator_list", [])
    return any((isinstance(d, ast.Name) and d.id == "overload")
               or (isinstance(d, ast.Attribute) and d.attr == "overload") for d in decorators)


def _loaded_now(statement: ast.stmt) -> set[str]:
    """The names ``statement`` loads when it runs: a function's body (or a
    lambda's) runs later, when the name it reads is bound to its last binding."""
    loaded: set[str] = set()
    pending: list[ast.AST] = [statement]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            loaded.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pending += [*node.decorator_list, *node.args.defaults, *node.args.kw_defaults]
        elif isinstance(node, ast.Lambda):
            pending += [*node.args.defaults, *node.args.kw_defaults]
        else:
            pending += ast.iter_child_nodes(node)
    return loaded


def _redefinitions(tree: ast.Module, lines: list[str]) -> list[tuple[int, str]]:
    """Per block (a body list, in statement order): a binding by an import, a
    ``def`` or a ``class`` that replaces an earlier one of them nothing read."""
    found = []
    for block_owner in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(block_owner, field, None)
            if not isinstance(block, list) or not block or not isinstance(block[0], ast.stmt):
                continue
            unread: dict[str, tuple[int, ast.stmt]] = {}
            for statement in block:
                for name in _loaded_now(statement):
                    unread.pop(name, None)
                if isinstance(statement, (ast.Import, ast.ImportFrom)):
                    bindings = [(_bound(alias), alias.lineno) for alias in statement.names if alias.name != "*"]
                elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    bindings = [(statement.name, statement.lineno)]
                else:
                    for target in ast.walk(statement):  # any other binding ends the earlier one's watch
                        if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store):
                            unread.pop(target.id, None)
                    continue
                for name, lineno in bindings:
                    earlier = unread.get(name)
                    if earlier is not None and not _is_overload(earlier[1]) and not _exempt(lines, lineno, "F811"):
                        found.append((lineno, f"F811 redefinition of unused {name!r} from line {earlier[0]}"))
                    unread[name] = (lineno, statement)
    return found


def findings(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    lines = source.splitlines()
    return sorted(_unread_imports(tree, lines) + _redefinitions(tree, lines))


def _sources() -> list[Path]:
    return sorted(path for root in PATHS for path in (REPO_ROOT / root).rglob("*.py"))


def test_no_unread_import_or_unread_redefinition():
    problems = [
        f"{path.relative_to(REPO_ROOT)}:{lineno}: {message}"
        for path in _sources()
        for lineno, message in findings(path.read_text(encoding="utf-8"))
    ]
    assert problems == []


def test_the_scan_covers_the_lint_paths():
    sources = _sources()
    assert {path.relative_to(REPO_ROOT).parts[0] for path in sources} == set(PATHS)
    assert len(sources) > 150


PLANTED = '''\
from __future__ import annotations

import os
import sys
import json  # noqa: F401 - kept for its side effects
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from pathlib import Path

__all__ = ["exported"]
from collections import OrderedDict as exported


def walk(top: "Path") -> Sequence[str]:
    return sys.argv


def walk(top):  # redefined before anything read the first
    return top


def read():
    return walk


def read():  # the first was read by nothing either
    return read
'''


def test_a_planted_import_and_redefinition_are_found():
    assert findings(PLANTED) == [
        (3, "F401 'os' imported but unused"),
        (19, "F811 redefinition of unused 'walk' from line 15"),
        (27, "F811 redefinition of unused 'read' from line 23"),
    ]


@pytest.mark.parametrize("clean", [
    "import a.b\n\nprint(a)\n",
    "from x import y  # noqa\n",
    "from x import y  # noqa: F401, E501\n",
    "try:\n    import x\nexcept ImportError:\n    x = None\nprint(x)\n",
    "from typing import overload\n\n@overload\ndef f(a: int) -> int: ...\n@overload\ndef f(a: str) -> str: ...\ndef f(a): return a\n",
    "class C:\n    @property\n    def v(self): return 1\n\n    @v.setter\n    def v(self, value): pass\n",
])
def test_what_the_rules_allow_is_not_found(clean: str):
    assert findings(clean) == []
