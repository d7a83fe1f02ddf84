"""A failing verify check names the working point or sample that set its
worst value; a passing check's line stays as it was."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from ottocat import analytic, verify


@pytest.fixture(scope="module")
def solved_grid():
    """Three grid points with both steady states solved once."""
    grid = verify.sample_grid(np.random.Generator(np.random.PCG64(3)), 3)
    for pt in grid:
        pt.otto_report, pt.catalytic_report
    return grid


def perturb_report(monkeypatch, pt, name, **changes):
    """Replace one cached steady-state report of ``pt`` for this test."""
    report = getattr(pt, name)
    changes = {key: change(report) for key, change in changes.items()}
    monkeypatch.setitem(pt.__dict__, name, dataclasses.replace(report, **changes))


def names_point(result, grid, index):
    return not result.passed and result.detail.endswith(
        f"; worst at grid point {index}, {grid[index]!r}"
    )


def test_passing_checks_name_no_point(solved_grid):
    for check in (
        verify.check_efficiency_design_match,
        verify.check_current_closed_form,
        verify.check_time_bridge,
        verify.check_thermo_consistency,
    ):
        result = check(solved_grid)
        assert result.passed and "worst at grid point" not in result.detail


def test_efficiency_check_names_its_worst_point(solved_grid, monkeypatch):
    perturb_report(
        monkeypatch, solved_grid[1], "catalytic_report",
        efficiency=lambda r: r.efficiency + 1e-7,
    )
    result = verify.check_efficiency_design_match(solved_grid)
    assert names_point(result, solved_grid, 1)


def test_current_check_names_its_worst_point(solved_grid, monkeypatch):
    perturb_report(
        monkeypatch, solved_grid[2], "otto_report",
        currents=lambda r: (r.currents[0] * (1.0 + 1e-7),),
    )
    result = verify.check_current_closed_form(solved_grid)
    assert names_point(result, solved_grid, 2)


def test_bridge_check_names_its_worst_point(solved_grid, monkeypatch):
    audit = verify.mapping.equivalence_from_parts
    broken = solved_grid[1].catalytic_report

    def off_at_one_point(spec, cycle, ss):
        report = audit(spec, cycle, ss)
        if ss is broken:
            report = dataclasses.replace(
                report, p_times_tau_minus_w=1e-7 * report.work_per_cycle
            )
        return report

    monkeypatch.setattr(verify.mapping, "equivalence_from_parts", off_at_one_point)
    result = verify.check_time_bridge(solved_grid)
    assert names_point(result, solved_grid, 1)


@pytest.mark.parametrize(
    "index, changes",
    [
        (0, {"entropy_production": lambda r: -1e-7}),
        (2, {"int_vanish_residuals": lambda r: (0.0, 1e-9)}),
    ],
    ids=["entropy-production", "interaction-residual"],
)
def test_thermo_check_names_its_worst_point(solved_grid, monkeypatch, index, changes):
    perturb_report(monkeypatch, solved_grid[index], "otto_report", **changes)
    result = verify.check_thermo_consistency(solved_grid)
    assert names_point(result, solved_grid, index)


@pytest.mark.parametrize("sample", [0, 1234, 2999])
def test_tradeoff_check_names_its_worst_sample(monkeypatch, sample):
    block, offset = divmod(sample, verify._TRADEOFF_BLOCK)
    original = analytic.one_minus_zeta
    calls = []

    def off_at_one_sample(a_h, a_c):
        result = original(a_h, a_c)
        if len(calls) == block:
            result[offset] += 1e-9
        calls.append(None)
        return result

    monkeypatch.setattr(analytic, "one_minus_zeta", off_at_one_sample)
    result = verify.check_tradeoff_bounds(np.random.Generator(np.random.PCG64(5)), 3000)
    replay = np.random.Generator(np.random.PCG64(5))
    for _ in range(sample):
        replay.uniform(), replay.uniform(), replay.uniform()
    a_h, a_c = replay.uniform(1e-6, 1.0), replay.uniform(1e-6, 1.0)
    g = 10.0 ** replay.uniform(-1.0, 1.0)
    assert not result.passed
    assert result.detail.endswith(f"; worst sample (a_h, a_c, g) = {(a_h, a_c, g)!r}")
