"""The per-layer benchmark wraps functions by name: each name must resolve.

``bench/tracer.py`` imports only the standard library, so it is loaded
here by path.  A traced function that is renamed or deleted would make
``bench/run.py --trace 1`` stop with an ``AttributeError``; this test
names it first.  A traced function whose first argument no longer tells
the engine kind would crash a traced run; the smoke test runs one.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
from pathlib import Path

from ottocat import cli, continuous

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


SWEEP = """[run]
engine = otto, qubit_catalyst

[fixed]
beta_h_omega_h = 0.1
beta_c_over_beta_h = 10.0
g_tau_eq = 10.0
tau_eq = 1.0

[sweep]
parameter = eta
start = 0.2
stop = 0.6
points = 2
"""


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_a_traced_sweep_and_verify_run_and_print_what_untraced_runs_print(tmp_path):
    config = tmp_path / "sweep.ini"
    config.write_text(SWEEP, encoding="utf-8")
    commands = (["sweep", "--config", str(config)], ["verify", "--points", "2"])
    untraced = [run(argv) for argv in commands]
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        traced = [run(argv) for argv in commands]
    finally:
        tracer.uninstall()
    spans, _ = tracer.take()
    assert traced == untraced and [code for code, _ in traced] == [0, 0]
    assert untraced[0][1].count("\n") == 5  # header and 2 eta points x 2 engines
    assert {span[3] for span in spans} >= {"cli.cmd_sweep", "verify.check_time_bridge"}
