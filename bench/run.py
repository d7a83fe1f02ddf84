"""Benchmark of ottocat: one workload, one run, one JSON line of metrics.

    python3 bench/run.py --workload golden-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; paths resolve against the checkout that holds this
file.  ``--trace 0`` prints the end-to-end metrics (``wall_s``, ``cpu_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` prints the per-layer metrics
instead.  The last line of standard output is always the JSON result::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

The workload runs in this process, from ``src``, single-threaded: the
BLAS and OpenMP thread variables are pinned to 1 below, before anything
loads NumPy, since OpenBLAS reads its thread count when it loads.  The
set-up probes are fresh interpreters that inherit the same environment.
Scratch files (the stiff sweep's config, the span dump) go to
``.bench_work/`` in the checkout.  See ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED, PYTHONPATH=str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKDIR = ROOT / ".bench_work"
#: Fewest timed executions per run; a traced run takes MIN_PAIRS of each kind.
MIN_SAMPLES = 3
MIN_PAIRS = 2
#: After each timed execution, one set-up probe per PROBE_EVERY_S seconds of
#: it (rounded, at least one), so the probes sample the whole run rather
#: than one stretch of it.
PROBE_EVERY_S = 1.5
#: Fresh interpreter to "ready": import ottocat.cli (NumPy included) and,
#: for a sweep, parse its config.
PROBE = (
    "import sys, ottocat.cli as cli\n"
    "if len(sys.argv) > 1: cli.load_config(sys.argv[1], 'sweep')\n"
    "sys.stdout.write('ready\\n'); sys.stdout.flush()\n"
)


def missing_sources() -> list[str]:
    needed = (
        ROOT / "src" / "ottocat" / "cli.py",
        workloads.GOLDEN_INI,
        workloads.GOLDEN_CSV,
    )
    return [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]


def environment() -> dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in PINNED},
        "git_commit": commit,
    }


def probe_setup(config: Path | None) -> float:
    """Seconds from starting a fresh interpreter to its "ready" line."""
    argv = [sys.executable, "-c", PROBE] + ([str(config)] if config else [])
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line != "ready\n":
            raise RuntimeError("set-up probe did not reach ready")
    return ready - start


class Runner:
    """Executes one prepared workload and gates each execution's output."""

    def __init__(self, prepared: workloads.Prepared) -> None:
        import ottocat.cli

        self.prepared = prepared
        self.main = ottocat.cli.main
        self.attempted = 0
        self.failed = 0

    def execute(self) -> tuple[float, float, int | None, str]:
        """One timed execution: (wall s, cpu s, exit code, stdout)."""
        gc.collect()
        buffer = io.StringIO()
        wall = time.perf_counter()
        cpu = time.process_time()
        try:
            with contextlib.redirect_stdout(buffer):
                rc = self.main(list(self.prepared.argv))
        except Exception:  # a crash is a failed execution, not a crashed benchmark
            traceback.print_exc(file=sys.stderr)
            rc = None
        return time.perf_counter() - wall, time.process_time() - cpu, rc, buffer.getvalue()

    def check(self, rc: int | None, out: str) -> None:
        attempted, failed = workloads.gate(self.prepared.name, rc, out)
        self.attempted += attempted
        self.failed += failed


def measure(runner: Runner, seconds: float) -> dict[str, list[float]]:
    """Warm up once, then alternate timed executions and set-up probes."""
    runner.check(*runner.execute()[2:])
    probe_setup(runner.prepared.config)  # the first fresh interpreter is not timed
    samples: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "setup_s": []}
    start = time.perf_counter()
    while True:
        wall, cpu, rc, out = runner.execute()
        runner.check(rc, out)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        for _ in range(max(1, round(wall / PROBE_EVERY_S))):
            samples["setup_s"].append(probe_setup(runner.prepared.config))
        used = time.perf_counter() - start
        if len(samples["wall_s"]) >= MIN_SAMPLES and used + used / len(samples["wall_s"]) > seconds:
            return samples


def measure_traced(runner: Runner, seconds: float, spans_path: Path) -> dict[str, object]:
    """Alternate untraced and traced executions; per-layer metrics and overhead."""
    tracer = tracing.Tracer()
    runner.check(*runner.execute()[2:])
    untraced: list[float] = []
    traced: list[float] = []
    executions = []
    repeat = True
    start = time.perf_counter()
    while True:
        wall, _, rc, plain = runner.execute()
        runner.check(rc, plain)
        untraced.append(wall)
        tracer.install()
        try:
            wall, _, rc, out = runner.execute()
        finally:
            tracer.uninstall()
        executions.append(tracer.take())
        runner.check(rc, out)
        repeat = repeat and out == plain and (
            tracing.work_counts(*executions[-1]) == tracing.work_counts(*executions[0])
        )
        traced.append(wall)
        used = time.perf_counter() - start
        if len(traced) >= MIN_PAIRS and used + statistics.median(traced + untraced) * 2 > seconds:
            break
    overhead = statistics.median(traced) - statistics.median(untraced)
    write_spans(spans_path, executions)
    return {
        "layers": tracing.per_layer_metrics(executions, overhead),
        "counts": tracing.work_counts(*executions[0]),
        "repeatable": repeat,
        "traced_executions": len(traced),
    }


def write_spans(path: Path, executions: list) -> None:
    """One JSON line per span: execution, id, parent, group, name, kind, start, end, self (ns)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for index, (spans, _) in enumerate(executions):
            selfs = tracing.self_times(spans)
            for span in spans:
                handle.write(json.dumps([index, *span, selfs[span[0]]]) + "\n")


def end_to_end(samples: dict[str, list[float]]) -> dict[str, dict]:
    metrics = {}
    for name, values in samples.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {"value": median, "unit": "s"}
        print(f"{name:12s} {median:.4f} s  median of {len(values)}  quartiles {q1:.4f} {q3:.4f}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    print(f"peak_rss_mb  {peak:.1f} MB")
    return metrics


def per_layer(result: dict) -> dict[str, dict]:
    print(f"traced executions {result['traced_executions']}; work counts repeat exactly "
          f"and traced output equals untraced: {result['repeatable']}")
    print("work counts " + json.dumps(result["counts"], sort_keys=True))
    metrics = {}
    for name, unit in tracing.LAYER_METRICS:
        metrics[name] = {"value": result["layers"][name], "unit": unit}
        print(f"{name:48s} {result['layers'][name]:.6g} {unit}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="ottocat benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = missing_sources()
    if missing:
        print(f"error: not an ottocat checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    runner = Runner(workloads.prepare(args.workload, args.seed, WORKDIR))
    try:
        if args.trace:
            result = measure_traced(runner, args.seconds, WORKDIR / f"spans-{args.workload}.jsonl")
        else:
            samples = measure(runner, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("argv: ottocat " + " ".join(runner.prepared.argv))
    print("env " + json.dumps(environment(), sort_keys=True))
    metrics = per_layer(result) if args.trace else end_to_end(samples)
    print(f"operations attempted {runner.attempted}  failed {runner.failed}")
    print(json.dumps({
        "correct": runner.failed == 0 and (result["repeatable"] if args.trace else True),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
