"""The per-layer benchmark wraps functions by name: each name must resolve.

``bench/tracer.py`` imports only the standard library, so it is loaded
here by path.  A traced function that is renamed or deleted would make
``bench/run.py --trace 1`` stop with an ``AttributeError``; this test
names it first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from ottocat import continuous

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("ottocat_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unresolved_targets(tracer) -> list[str]:
    return [
        f"{owner}.{attr}"
        for owner, attr, _ in tracer.TARGETS
        if not hasattr(tracer._resolve(owner), attr)
    ]


def test_every_traced_name_resolves_on_the_package():
    tracer = load_tracer()
    assert len(tracer.TARGETS) > 20
    assert unresolved_targets(tracer) == []


def test_a_deleted_traced_function_is_named(monkeypatch):
    monkeypatch.delattr(continuous, "currents_and_power")
    assert unresolved_targets(load_tracer()) == ["ottocat.continuous.currents_and_power"]
