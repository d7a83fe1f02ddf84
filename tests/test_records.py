"""One record idiom: a ``@dataclass`` of the package earns its place.

A record that checks its fields when built (``__post_init__``) or caches
a derived value (``functools.cached_property``) is a frozen dataclass;
every other record is a ``NamedTuple``, which costs less to create at
import.  The scan parses each ``src/ottocat/*.py`` and finds every class
decorated with ``dataclass``, called or not, by name or as an attribute.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ottocat"


def _name(node: ast.expr) -> str | None:
    """The last name of a decorator, ``dataclass`` for ``@dataclasses.dataclass(frozen=True)``."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def bare_dataclasses(sources: dict[str, str]) -> set[str]:
    """``module.Class`` of each dataclass in ``sources`` (module -> source)
    that defines neither ``__post_init__`` nor a ``cached_property``."""
    bare = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.ClassDef)
                    and any(_name(d) == "dataclass" for d in node.decorator_list)):
                continue
            methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
            if not any(method.name == "__post_init__"
                       or any(_name(d) == "cached_property" for d in method.decorator_list)
                       for method in methods):
                bare.add(f"{module}.{node.name}")
    return bare


def test_every_dataclass_checks_its_fields_or_caches_a_value():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert bare_dataclasses(sources) == set()


def test_the_scan_finds_a_bare_dataclass_however_it_is_spelled():
    source = '''
import dataclasses, functools
from dataclasses import dataclass
from typing import NamedTuple

@dataclass(frozen=True)
class Called:
    x: float

@dataclasses.dataclass
class ByAttribute:
    x: float
    def helper(self): pass

@dataclass(frozen=True)
class Checks:
    x: float
    def __post_init__(self): pass

@dataclass(frozen=True)
class Caches:
    x: float
    @functools.cached_property
    def double(self): return 2 * self.x

class Plain(NamedTuple):
    x: float
'''
    assert bare_dataclasses({"a": source}) == {"a.Called", "a.ByAttribute"}
