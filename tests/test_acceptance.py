"""Acceptance gate: the eight shipping criteria, each with its pinned
tolerance and runtime budget, one pass/fail line per criterion.

The criteria run against a fresh 100-point stress grid (Gibbs factors in
(0, 1), relaxation times spanning three decades, couplings spanning more
than two) plus the canonical matched-efficiency comparison and the
committed golden sweep.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from ottocat import cli, verify

SEED = 20260815
GRID_POINTS = 100

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_CONFIG = DATA_DIR / "golden_power_sweep.ini"
GOLDEN_CSV = DATA_DIR / "golden_power_sweep.csv"


@pytest.fixture(scope="module")
def suite():
    """Run every check once, with per-stage wall-clock timings."""
    rng = np.random.Generator(np.random.PCG64(SEED))
    results: dict[str, verify.CheckResult] = {}
    timings: dict[str, float] = {}

    start = perf_counter()
    grid = verify.sample_grid(rng, GRID_POINTS)
    results["efficiency"] = verify.check_efficiency_design_match(grid)
    results["currents"] = verify.check_current_closed_form(grid)
    results["bridge"] = verify.check_time_bridge(grid)
    timings["grid"] = perf_counter() - start

    stage = perf_counter()
    results["tradeoff"] = verify.check_tradeoff_bounds(rng)
    timings["tradeoff"] = perf_counter() - stage

    stage = perf_counter()
    results["power"] = verify.check_power_advantage()
    timings["power"] = perf_counter() - stage

    results["thermo"] = verify.check_thermo_consistency(grid)
    results["stationary"] = verify.check_stationary_relations(rng)
    results["two_stroke"] = verify.check_two_stroke_oracles(rng)
    timings["total"] = perf_counter() - start
    return results, timings


def report(number: int, label: str, result: verify.CheckResult) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(
        f"criterion {number} ({label}): {status}  "
        f"worst {result.worst:.3e}  tol {result.tol:.1e}"
    )


class TestAcceptance:
    def test_criterion_1_efficiency_reproduction(self, suite):
        results, timings = suite
        result = results["efficiency"]
        report(1, "steady-state efficiency matches the design value", result)
        assert result.passed, result.detail
        assert timings["grid"] < 10.0, f"grid stage took {timings['grid']:.1f} s"

    def test_criterion_2_closed_form_currents(self, suite):
        results, _ = suite
        result = results["currents"]
        report(2, "numerical currents match the closed forms", result)
        assert result.passed, result.detail

    def test_criterion_3_mapping_identity(self, suite):
        results, _ = suite
        result = results["bridge"]
        report(3, "every row of the flow-current dictionary, equal pair currents", result)
        assert result.passed, result.detail

    def test_criterion_4_characteristic_time_theorem(self, suite):
        results, timings = suite
        result = results["tradeoff"]
        report(4, "zeta and kappa never exceed one", result)
        assert result.passed, result.detail
        assert timings["tradeoff"] < 1.0, f"took {timings['tradeoff']:.2f} s"

    def test_criterion_5_power_advantage_curve(self, suite, tmp_path):
        results, timings = suite
        result = results["power"]
        start = perf_counter()
        regenerated = tmp_path / "regenerated.csv"
        code = cli.main([
            "sweep",
            "--config", str(GOLDEN_CONFIG),
            "--output", str(regenerated),
        ])
        elapsed = timings["power"] + perf_counter() - start
        golden_match = (
            code == 0 and regenerated.read_bytes() == GOLDEN_CSV.read_bytes()
        )
        passed = result.passed and golden_match
        status = "PASS" if passed else "FAIL"
        print(
            f"criterion 5 (catalytic power advantage and golden sweep): {status}  "
            f"min margin {-result.worst:.3e}  golden byte-exact: {golden_match}"
        )
        assert result.passed, result.detail
        assert golden_match, "regenerated sweep differs from the committed CSV"
        assert elapsed < 5.0, f"took {elapsed:.2f} s"

    def test_criterion_6_thermodynamic_consistency(self, suite):
        results, _ = suite
        result = results["thermo"]
        report(6, "Clausius margin, entropy production, interaction residuals", result)
        assert result.passed, result.detail

    def test_criterion_7_stationary_relations(self, suite):
        results, _ = suite
        result = results["stationary"]
        report(7, "stationary relations vanish on the numerical steady state", result)
        assert result.passed, result.detail

    def test_criterion_8_two_stroke_oracles(self, suite):
        results, _ = suite
        result = results["two_stroke"]
        report(8, "heat routes, catalyst closed form, cycle closure", result)
        assert result.passed, result.detail

    def test_full_suite_runs_inside_the_time_budget(self, suite):
        _, timings = suite
        print(f"full suite wall clock: {timings['total']:.2f} s (budget 60 s)")
        assert timings["total"] < 60.0
