"""The per-layer benchmark wraps functions by name: each name must resolve.

``bench/tracer.py`` imports only the standard library, so it is loaded
here by path.  A traced function that is renamed or deleted would make
``bench/run.py --trace 1`` stop with an ``AttributeError``; this test
names it first.  A traced function whose first argument no longer tells
the engine kind would crash a traced run; the smoke test runs one.

The benchmark's correctness gates in ``bench/workloads.py`` read the
package's closed forms; each gate must pass the pinned output of its
workload, so that a dropped name fails here before it fails every run.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from ottocat import cli, continuous

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER_PATH = BENCH / "tracer.py"
DATA = Path(__file__).resolve().parent / "data"


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


@pytest.fixture(scope="module")
def workloads():
    """``bench/workloads.py``, whose gates read the package's closed forms.

    Its ``@dataclass`` looks the module up while it runs, so it is
    registered until then; left registered, its constants would join the
    pool that Hypothesis draws from, and change the draws of later tests.
    """
    path = BENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("ottocat_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_the_stiff_gate_passes_every_row_of_the_pinned_stiff_sweeps(workloads, seed):
    pinned = DATA / f"stiff_g_sweep_seed{seed}"
    assert workloads.stiff_config_text(seed) == pinned.with_suffix(".ini").read_text("utf-8")
    assert workloads.stiff_gate(0, pinned.with_suffix(".csv").read_text("utf-8")) == (200, 0)


def test_the_golden_and_verify_gates_pass_their_pinned_outputs(workloads):
    golden = (DATA / "golden_power_sweep.csv").read_text("utf-8")
    assert workloads.golden_gate(0, golden, golden) == (200, 0)
    assert workloads.verify_gate(0, (DATA / "verify_seed1234.txt").read_text("utf-8")) == (8, 0)
