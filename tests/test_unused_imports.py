"""``src/repro`` carries no unused imports.

Runs the same check CI's docs job runs (tools/check_unused_imports.py)
and pins the checker's rules on small sources.
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_checker():
    path = ROOT / "tools" / "check_unused_imports.py"
    spec = importlib.util.spec_from_file_location("check_unused_imports",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unused(source: str) -> list[str]:
    checker = _load_checker()
    tree = ast.parse(source)
    used = checker.used_names(tree)
    return [name for name, _line in checker.imported_names(tree)
            if name not in used]


def test_package_has_no_unused_imports():
    checker = _load_checker()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    failures = [(path.relative_to(ROOT), line, name) for path in files
                for line, name in checker.check_file(path)]
    assert not failures, failures


def test_unused_import_reported():
    assert _unused("import os\nimport sys\nprint(sys.argv)\n") == ["os"]
    assert _unused("from a import b as c\n") == ["c"]


def test_attribute_roots_and_dotted_imports_count():
    assert _unused("import os.path\nos.path.join('a')\n") == []


def test_all_reexports_count():
    assert _unused("from .x import Thing\n__all__ = ['Thing']\n") == []
    assert _unused("from .x import Thing\n__all__ = ['Other']\n") == ["Thing"]


def test_string_annotations_count():
    source = ("from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n"
              "    from .device import GPUDevice\n"
              "def f(d: 'GPUDevice') -> 'list[GPUDevice]':\n"
              "    return [d]\n")
    assert _unused(source) == []


def test_future_imports_exempt():
    assert _unused("from __future__ import annotations\n") == []
