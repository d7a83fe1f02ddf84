"""Tests of the benchmark itself (not collected by the repo's own suite).

    python3 -m pytest -q bench/test_bench.py

They check that the traced run's work counts are exact and repeat, that
tracing leaves the program's output byte-identical, that the gates count
broken output as failed operations, that ``BENCHMARK.json`` names exactly
the metrics the benchmark prints, and that the benchmark refuses to run
outside an ottocat checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from run import Runner  # noqa: E402

#: Work counts at the commit that introduced the benchmark.  A change that
#: removes repeated work moves them on purpose and updates them here.
BASELINE = {
    ("golden-sweep", 1): {
        "continuous.eig": 200,
        "continuous.build_liouvillian": 400,
        "continuous.build_dissipator": 2000,
    },
    ("verify-default", 1234): {
        "continuous.eig": 1122,
        "continuous.build_liouvillian": 2224,
        "continuous.build_dissipator": 9256,
    },
}


@pytest.mark.parametrize("workload, seed", sorted(BASELINE))
def test_traced_counts_are_exact_and_output_unchanged(workload, seed, tmp_path):
    runner = Runner(workloads.prepare(workload, seed, tmp_path))
    _, _, rc, plain = runner.execute()
    assert rc == 0
    runs = []
    for _ in range(2):
        trace = tracer.Tracer()
        trace.install()
        try:
            _, _, rc, out = runner.execute()
        finally:
            trace.uninstall()
        assert rc == 0
        assert out == plain
        runs.append(trace.take())
    counts = [tracer.work_counts(*run) for run in runs]
    assert counts[0] == counts[1]
    for name, expected in BASELINE[(workload, seed)].items():
        assert counts[0][name] == expected, name
    metrics = tracer.per_layer_metrics(runs, overhead_s=0.0)
    assert set(metrics) == {name for name, _ in tracer.LAYER_METRICS}
    runner.check(rc, out)
    assert runner.failed == 0


def test_uninstall_restores_every_binding():
    import numpy as np
    from ottocat import continuous, qstate

    before = (np.linalg.eig, continuous.expectation, qstate.DensityMatrix.validate)
    trace = tracer.Tracer()
    trace.install()
    assert continuous.expectation is not before[1]
    trace.uninstall()
    assert (np.linalg.eig, continuous.expectation, qstate.DensityMatrix.validate) == before


def test_self_time_subtracts_children():
    spans = [
        (1, None, None, "a", None, 0, 100),
        (2, 1, None, "b", None, 10, 40),
        (3, 1, None, "c", None, 30, 60),
    ]
    assert tracer.self_times(spans) == {1: 50, 2: 30, 3: 30}


def test_golden_gate_counts_rows():
    golden = workloads.GOLDEN_CSV.read_text(encoding="utf-8")
    assert workloads.golden_gate(0, golden, golden) == (200, 0)
    lines = golden.split("\n")
    lines[5] = lines[5].replace("otto", "OTTO")
    assert workloads.golden_gate(0, "\n".join(lines), golden) == (200, 1)
    assert workloads.golden_gate(0, "\n".join(lines[:-3]) + "\n", golden) == (200, 3)
    assert workloads.golden_gate(0, golden + "extra\n", golden) == (200, 1)
    assert workloads.golden_gate(1, golden, golden) == (200, 200)


def test_verify_gate_counts_checks():
    passing = "suite\n" + "PASS  check\n" * 8 + "RESULT: PASS (8/8 checks)"
    assert workloads.verify_gate(0, passing) == (8, 0)
    failing = passing.replace("PASS  check", "FAIL  check", 1)
    assert workloads.verify_gate(1, failing) == (8, 1)
    assert workloads.verify_gate(1, passing) == (8, 8)


def test_stiff_gate_catches_a_perturbed_current(tmp_path):
    prepared = workloads.prepare("stiff-g-sweep", 3, tmp_path)
    assert workloads.prepare("stiff-g-sweep", 3, tmp_path) == prepared
    assert prepared.config.read_text() != workloads.stiff_config_text(4)
    _, _, rc, out = Runner(prepared).execute()
    assert workloads.stiff_gate(rc, out) == (200, 0)
    header, first, *rest = out.split("\n")
    column = header.split(",").index("current_1")
    cells = first.split(",")
    cells[column] = repr(float(cells[column]) * (1 + 1e-8))
    broken = "\n".join([header, ",".join(cells), *rest])
    assert workloads.stiff_gate(rc, broken) == (200, 1)


def test_benchmark_json_names_what_the_benchmark_prints():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in config["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in config["per_layer"]] == [n for n, _ in tracer.LAYER_METRICS]
    assert [m["unit"] for m in config["per_layer"]] == [u for _, u in tracer.LAYER_METRICS]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    assert set(bounds) == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "golden-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
