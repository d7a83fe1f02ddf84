"""Every module-level function and class of the package is referred to by
the package's own code, or traced by the benchmark.

The scan parses each ``src/ottocat/*.py`` except ``__init__.py``, whose
imports are the package's exports.  A definition counts as referred to
when other code of the package names it: in its own module by name,
elsewhere through an import (under any name) or as an attribute of an
imported module.  Its own body does not count, nor do ``__all__`` strings
or docstrings.  A definition that nothing refers to must be one that
``bench/tracer.py`` wraps by name, and so cannot go before the tracer
stops naming it.
"""

from __future__ import annotations

import ast
from pathlib import Path

from test_bench_targets import load_tracer

SRC = Path(__file__).resolve().parents[1] / "src" / "ottocat"


def definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def references(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """``(module, name)`` of every definition of the package that the code of
    ``module`` refers to, outside that definition's own body."""
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules = {alias.asname or alias.name: alias.name  # ``from . import continuous``
               for node in imports if node.level == 1 and node.module is None
               for alias in node.names}
    found = {(node.module, alias.name)  # ``from .engine_spec import fail as f``
             for node in imports if node.level == 1 and node.module is not None
             for alias in node.names}
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id != own:
                found.add((module, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                found.add((modules[node.value.id], node.attr))
    return found


def unreferenced(sources: dict[str, str]) -> set[str]:
    """``module.name`` of each definition in ``sources`` (module -> source)
    that no code among them refers to."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    found = set().union(*(references(module, tree) for module, tree in trees.items()))
    return {f"{module}.{name}" for module, tree in trees.items()
            for name in definitions(tree) if (module, name) not in found}


def traced() -> set[str]:
    """``module.name`` of each module-level name that the tracer wraps."""
    return {f"{owner.removeprefix('ottocat.')}.{attr}" for owner, attr, _ in load_tracer().TARGETS
            if owner.startswith("ottocat.") and owner.count(".") == 1}


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


#: The definitions that only the tracer names.  Each goes, or gets a
#: caller in the package, once the tracer stops naming it; a name leaves
#: this set then.  A name joins it only when the package drops its last
#: caller while the tracer still wraps it: ``discrete.solve_catalyst``
#: joined when ``verify`` check 8 began reading the catalyst each cycle
#: reports, and goes once the tracer times ``discrete._cycles`` instead.
TRACED_ONLY = {
    "cli.build_row",
    "continuous.build_dissipator",
    "continuous.currents_and_power",
    "continuous.entropy_production_rate",
    "continuous.ness_condition_checks",
    "continuous.stationary_state",
    "discrete.solve_catalyst",
    "engine_spec.energy_differences",
    "mapping.verify_equivalence",
}


def test_every_definition_is_referred_to_or_traced():
    assert unreferenced(package_sources()) - traced() == set()


def test_the_traced_only_definitions_are_exactly_these():
    assert unreferenced(package_sources()) == TRACED_ONLY


def test_the_scan_counts_code_and_imports_but_not_exports_docstrings_or_self_calls():
    sources = {
        "a": '''"""Mentions in_docstring."""
__all__ = ["exported", "renamed", "by_attribute", "called"]
def exported(): pass
def in_docstring(): pass
def recursive(n): return recursive(n - 1)
def renamed(): pass
def by_attribute(): pass
def called(): pass
class Used:
    def method(self): return Used()
def user(): return called(), Used
''',
        "b": '''from .a import renamed as other
from . import a as first
def main(): return other(), first.by_attribute(), b_local
b_local = main
''',
    }
    assert unreferenced(sources) == {"a.exported", "a.in_docstring", "a.recursive", "a.user"}
