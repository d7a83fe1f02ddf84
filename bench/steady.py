"""Steadiness mode: is the benchmark steady enough for its own bounds?

    python3 bench/steady.py [--seeds 10] [--first-seed 1]

Runs ``bench/run.py --trace 0`` once per seed on each workload of
``BENCHMARK.json``, for ``run_seconds`` each, in two sets taken one after
the other.  For each set it prints each end-to-end metric's median,
quartiles and spread (quartile distance over median); then it prints the
drift of the second set's median from the first's, signed so that positive
is worse.  Each figure is compared with the metric's ``bound``: a spread or
a drift above the bound fails; one above a third of the bound is flagged,
since a steady benchmark keeps its spread below a third of its bound.  Raw
results go to ``.bench_work/steady-<time>.json``.  Exits 1 if any figure
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def verdict(figure: float, bound: float) -> str:
    if figure > bound:
        return "FAIL"
    return "wide" if abs(figure) > bound / 3 else "ok"


def main() -> int:
    parser = argparse.ArgumentParser(description="repeat the benchmark and report its spread and drift")
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    metrics = {m["name"]: m for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    sets: list[dict[str, dict[str, list[float]]]] = []
    verdicts: list[str] = []
    for index in range(SETS):
        values: dict[str, dict[str, list[float]]] = {w: {m: [] for m in metrics} for w in names}
        seed0 = args.first_seed + index * args.seeds
        for workload in names:
            for seed in range(seed0, seed0 + args.seeds):
                result = run_once(workload, seed, seconds)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: {result['failed']} failed operations")
                    verdicts.append("FAIL")
                for name in metrics:
                    values[workload][name].append(result["metrics"][name]["value"])
        sets.append(values)
        print(f"set {index + 1}  seeds {seed0}..{seed0 + args.seeds - 1}  {time.strftime('%H:%M:%S')}")
        for workload in names:
            for name, meta in metrics.items():
                q1, median, q3 = statistics.quantiles(values[workload][name], n=4)
                spread = (q3 - q1) / median
                verdicts.append(verdict(spread, meta["bound"]))
                print(f"  {workload:15s} {name:12s} median {median:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                      f"spread {spread:.3f}  bound {meta['bound']}  {verdicts[-1]}")
    print("drift of set 2 from set 1 (positive is worse)")
    for workload in names:
        for name, meta in metrics.items():
            first = statistics.median(sets[0][workload][name])
            second = statistics.median(sets[1][workload][name])
            sign = 1.0 if meta["better"] == "lower" else -1.0
            drift = sign * (second - first) / first
            verdicts.append(verdict(drift, meta["bound"]))
            print(f"  {workload:15s} {name:12s} drift {drift:+.3f}  bound {meta['bound']}  {verdicts[-1]}")
    out = ROOT / ".bench_work" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "sets": sets}, indent=1), encoding="utf-8")
    print(f"raw values written to {out.relative_to(ROOT)}")
    return 1 if "FAIL" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
