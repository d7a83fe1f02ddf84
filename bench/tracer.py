"""Layer tracing from outside the program.

The tracer wraps public functions of the ottocat modules, and
``numpy.linalg.eig``, at every module that holds them by name, so a call
made through ``continuous.build_dissipator`` and one made through a
``from .engine_spec import energy_differences`` binding are both seen.
Nothing under ``src/`` changes: the wrappers are installed before a traced
execution and removed after it.

Each call records one span ``(id, parent, group, name, kind, start_ns,
end_ns)``.  All spans of one sweep row (under ``cli.build_row``) or one
verify check (under ``verify.check_*``) share a group id.  Spans stay in
memory until the benchmark writes them out at the end.

``per_layer_metrics`` turns the spans of the traced executions into the
per-layer metrics that ``BENCHMARK.json`` lists: call counts, mean µs per
call, check durations and self times.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import Counter

#: Engine kind by catalyst dimension, for the metrics split by kind.
KINDS = {1: "otto", 2: "qubit_catalyst"}

VERIFY_CHECKS = (
    "efficiency_design_match",
    "current_closed_form",
    "time_bridge",
    "tradeoff_bounds",
    "power_advantage",
    "thermo_consistency",
    "stationary_relations",
    "two_stroke_oracles",
)

#: (owner, attribute, span name).  The owner is a module or a class; the
#: span name is the prefix of the metrics the span feeds.
TARGETS = (
    ("ottocat.cli", "load_config", "cli.load_config"),
    ("ottocat.cli", "cmd_sweep", "cli.cmd_sweep"),
    ("ottocat.cli", "build_row", "cli.build_row"),
    *(
        ("ottocat.verify", f"check_{name}", f"verify.check_{name}")
        for name in VERIFY_CHECKS
    ),
    ("ottocat.mapping", "verify_equivalence", "mapping.verify_equivalence"),
    ("ottocat.mapping", "compare_at_efficiency", "mapping.compare_at_efficiency"),
    ("ottocat.continuous", "steady_state_report", "continuous.steady_state_report"),
    ("ottocat.continuous", "build_liouvillian", "continuous.build_liouvillian"),
    ("ottocat.continuous", "build_dissipator", "continuous.build_dissipator"),
    ("ottocat.continuous", "stationary_state", "continuous.stationary_state"),
    ("numpy.linalg", "eig", "continuous.eig"),
    ("ottocat.continuous", "currents_and_power", "continuous.currents_and_power"),
    ("ottocat.continuous", "ness_condition_checks", "continuous.ness_condition_checks"),
    ("ottocat.continuous", "entropy_production_rate", "continuous.entropy_production_rate"),
    ("ottocat.discrete", "run_cycle", "discrete.run_cycle"),
    ("ottocat.discrete", "solve_catalyst", "discrete.solve_catalyst"),
    ("ottocat.analytic", "cat_tau", "analytic.cat_tau"),
    ("ottocat.analytic", "rate_constants", "analytic.rate_constants"),
    ("ottocat.engine_spec", "energy_differences", "engine_spec.energy_differences"),
    ("ottocat.engine_spec", "hamiltonians", "engine_spec.hamiltonians"),
    ("ottocat.qstate", "expectation", "qstate.expectation"),
    ("ottocat.qstate.DensityMatrix", "validate", "qstate.validate"),
)

#: Spans whose first argument tells the engine kind.
KIND_SPLIT = {
    "cli.build_row",
    "continuous.steady_state_report",
    "continuous.build_liouvillian",
    "continuous.stationary_state",
    "discrete.run_cycle",
}

#: Spans that start a new group: one sweep row, or one verify check.
GROUP_ROOTS = {"cli.build_row", *(f"verify.check_{name}" for name in VERIFY_CHECKS)}

CALLS = (
    "continuous.eig",
    "continuous.build_dissipator",
    "continuous.build_liouvillian",
    "discrete.solve_catalyst",
    "mapping.verify_equivalence",
    "mapping.compare_at_efficiency",
    "analytic.cat_tau",
    "analytic.rate_constants",
    "engine_spec.energy_differences",
    "engine_spec.hamiltonians",
    "qstate.expectation",
)
MEAN_US = (
    "continuous.build_dissipator",
    "continuous.currents_and_power",
    "continuous.ness_condition_checks",
    "continuous.entropy_production_rate",
    "discrete.solve_catalyst",
    "mapping.verify_equivalence",
    "mapping.compare_at_efficiency",
    "analytic.cat_tau",
    "analytic.rate_constants",
    "engine_spec.energy_differences",
    "qstate.expectation",
    "qstate.validate",
    "cli.load_config",
)
MEAN_US_BY_KIND = (
    "continuous.stationary_state",
    "continuous.build_liouvillian",
    "continuous.steady_state_report",
    "discrete.run_cycle",
    "cli.build_row",
)

#: Every per-layer metric, in the order printed, with its unit.
LAYER_METRICS = (
    *((f"{name}.calls", "count") for name in CALLS),
    *((f"{name}.us", "us") for name in MEAN_US),
    *(
        (f"{name}.{kind}.us", "us")
        for name in MEAN_US_BY_KIND
        for kind in KINDS.values()
    ),
    ("continuous.solves_per_spec", "ratio"),
    ("continuous.liouvillian_builds_per_solve", "ratio"),
    ("cli.cmd_sweep.self_s", "s"),
    *((f"verify.check_{name}.s", "s") for name in VERIFY_CHECKS),
    ("trace.overhead_s", "s"),
)


def _resolve(path: str):
    """Import a module, or a class inside one, from its dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _kind(first) -> str | None:
    if isinstance(first, str):
        return first if first in KINDS.values() else None
    dim = getattr(first, "catalyst_dim", None)
    if dim is None:
        dim = first.layout.factor_dims[0]
    return KINDS.get(dim)


class Tracer:
    """Installs the wrappers and collects the spans of one execution at a time."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._main_stack: list[tuple[int, int | None]] = []
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []
        self.specs: set = set()

    def _stack(self) -> list[tuple[int, int | None]]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func):
        split = name in KIND_SPLIT
        root = name in GROUP_ROOTS
        record_spec = name == "continuous.build_liouvillian"
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool thread's first span hangs off the main thread's open span.
            outer = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            parent, group = outer if outer else (None, None)
            sid = next(self._ids)
            if root:
                group = sid
            kind = _kind(args[0]) if split else None
            if record_spec:
                self.specs.add(args[0])
            stack.append((sid, group))
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, group, name, kind, start, end))

        return traced

    def install(self) -> None:
        """Wrap every target at its owner and at each ottocat module holding it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [
            module
            for key, module in sys.modules.items()
            if key == "ottocat" or key.startswith("ottocat.")
        ]
        for owner_path, attr, name in TARGETS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            traced = self._wrap(name, original)
            for holder in (owner, *(m for m in modules if m is not owner)):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, traced)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def take(self) -> tuple[list[tuple], int]:
        """Hand over the spans and the distinct-spec count since the last take."""
        spans, n_specs = list(self.spans), len(self.specs)
        self.spans.clear()
        self.specs.clear()
        return spans, n_specs


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Each span's duration minus the part of it its child spans cover, in ns."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _, _, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, _, _, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = end - start - covered
    return out


def work_counts(spans: list[tuple], n_specs: int) -> dict[str, int]:
    """Exact call counts of one execution, by span name, plus distinct specs."""
    counts = Counter(span[3] for span in spans)
    counts["distinct_specs"] = n_specs
    return dict(counts)


def per_layer_metrics(executions: list[tuple[list[tuple], int]], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one or more traced executions.

    Counts come from the first execution (they repeat exactly); mean µs
    per call pools every execution; check durations and self times are
    medians over executions.  A layer the workload never calls reads 0.
    """
    first_spans, n_specs = executions[0]
    counts = work_counts(first_spans, n_specs)
    calls: Counter = Counter()
    total_ns: Counter = Counter()
    for spans, _ in executions:
        for _, _, _, name, kind, start, end in spans:
            for key in (name, (name, kind)):
                calls[key] += 1
                total_ns[key] += end - start

    def mean_us(key) -> float:
        return total_ns[key] / calls[key] / 1e3 if calls[key] else 0.0

    def median_s(per_execution) -> float:
        return statistics.median(per_execution(spans) for spans, _ in executions) / 1e9

    def sweep_self_ns(spans) -> int:
        mine = self_times(spans)
        return sum(mine[s[0]] for s in spans if s[3] == "cli.cmd_sweep")

    def check_ns(check):
        return lambda spans: sum(s[6] - s[5] for s in spans if s[3] == check)

    solves = counts.get("continuous.stationary_state", 0)
    metrics: dict[str, float] = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = counts.get(name, 0)
    for name in MEAN_US:
        metrics[f"{name}.us"] = mean_us(name)
    for name in MEAN_US_BY_KIND:
        for kind in KINDS.values():
            metrics[f"{name}.{kind}.us"] = mean_us((name, kind))
    metrics["continuous.solves_per_spec"] = solves / n_specs if n_specs else 0.0
    metrics["continuous.liouvillian_builds_per_solve"] = (
        counts.get("continuous.build_liouvillian", 0) / solves if solves else 0.0
    )
    metrics["cli.cmd_sweep.self_s"] = median_s(sweep_self_ns)
    for name in VERIFY_CHECKS:
        metrics[f"verify.check_{name}.s"] = median_s(check_ns(f"verify.check_{name}"))
    metrics["trace.overhead_s"] = overhead_s
    return metrics
