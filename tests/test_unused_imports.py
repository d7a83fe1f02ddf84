"""Every name a module of the package imports is used by that module,
and every name it exports exists.

The scan parses each ``src/ottocat/*.py`` except ``__init__.py`` (whose
imports are the package's exports) and reports the imported names that
never appear as a name in the module's code or in its ``__all__``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ottocat"

#: Imports kept on purpose, with the reason each is kept.
KEPT = {
    ("continuous.py", "expectation"): (
        "bench/test_bench.py checks that the tracer wraps and restores "
        "continuous.expectation"
    ),
}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    return imported_names(tree) - used_names(tree)


def test_no_module_imports_a_name_it_does_not_use():
    found = {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert found == set(KEPT)


def test_every_exported_name_resolves():
    missing = set()
    for path in sorted(SRC.glob("*.py")):
        name = "ottocat" if path.name == "__init__.py" else f"ottocat.{path.stem}"
        module = importlib.import_module(name)
        assert "__all__" in vars(module), name
        missing |= {(name, attr) for attr in module.__all__ if not hasattr(module, attr)}
    assert missing == set()


def test_the_scan_sees_names_in_code_and_in_all_but_not_in_docstrings():
    source = '''"""Mentions unused_in_docstring."""
from __future__ import annotations
import numpy as np
import os.path
from math import exp, log, pi as half_turn, unused_in_docstring
__all__ = ["exp"]
def f(x: np.ndarray) -> float:
    return log(os.path.sep) * half_turn
'''
    assert unused_imports(source) == {"unused_in_docstring"}
