#!/usr/bin/env python
"""Report imports that a module never uses.

Parses every ``src/repro/**/*.py`` file with :mod:`ast` and lists each
imported name that the module neither reads nor re-exports.  A name
counts as used when it is

* loaded anywhere in the module (``Name`` nodes, including the roots of
  attribute chains and decorators);
* named in a string annotation (``x: "DeviceLaunch"``), which is parsed
  and scanned the same way;
* listed in the module's ``__all__`` (an explicit re-export).

``from __future__`` imports are exempt.  Package ``__init__`` files
re-export by design, so there only ``__all__`` decides: an import in an
``__init__`` that ``__all__`` does not list is reported like any other.

Usage:  python tools/check_unused_imports.py [PATH ...]
Exits non-zero and lists every unused import as ``file:line: name``.
"""

from __future__ import annotations

import ast
import pathlib
import sys


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) for every import statement in the module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.append((bound, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    names.append((alias.asname or alias.name, node.lineno))
    return names


def _annotations(tree: ast.Module):
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loaded(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, string annotations and ``__all__`` included."""
    used = _loaded(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    used |= _loaded(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if node.value is not None and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in targets):
            for item in ast.walk(node.value):
                if isinstance(item, ast.Constant) and isinstance(
                        item.value, str):
                    used.add(item.value)
    return used


def check_file(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, name) of each unused import in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    return [(line, name) for name, line in imported_names(tree)
            if name not in used]


def main(argv: list[str]) -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    targets = [pathlib.Path(a) for a in argv] or [root / "src" / "repro"]
    files = sorted(p for t in targets
                   for p in ([t] if t.is_file() else t.rglob("*.py")))
    failures = [(path, line, name) for path in files
                for line, name in check_file(path)]
    for path, line, name in failures:
        try:
            shown = path.resolve().relative_to(root)
        except ValueError:
            shown = path
        print(f"{shown}:{line}: unused import {name!r}")
    if failures:
        return 1
    print(f"no unused imports in {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
