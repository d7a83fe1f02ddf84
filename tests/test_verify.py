"""A failing verify check names the working point or sample that set its
worst value; a passing check's line stays as it was.  The stationary
relations behind check 7 vanish on every rate set the check can draw."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottocat import analytic, cli, discrete, mapping, verify
from ottocat.continuous import steady_state_report
from ottocat.engine_spec import FAMILIES, BathParams, EngineSpec, SwapPair, ladder_spec
from spec_helpers import bridge


@pytest.fixture(scope="module")
def solved_grid():
    """Three grid points with every engine's steady state solved once."""
    grid = verify.sample_grid(np.random.Generator(np.random.PCG64(3)), 3)
    for pt in grid:
        pt.reports
    return grid


def perturb_report(monkeypatch, pt, engine, **changes):
    """Replace the cached steady-state report of ``pt``'s ``engine`` (a
    key of ``FAMILIES``) for this test."""
    reports = list(pt.reports)
    i = list(FAMILIES).index(engine)
    changes = {key: change(reports[i]) for key, change in changes.items()}
    reports[i] = dataclasses.replace(reports[i], **changes)
    monkeypatch.setitem(pt.__dict__, "reports", tuple(reports))


def names_point(result, grid, index):
    return (
        not result.passed
        and result.worst_at == index
        and result.detail.endswith(f"; worst at grid point {index}, {grid[index]!r}")
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
        assert result.worst_at is None


@pytest.mark.parametrize(
    "index, engine, efficiency, detail",
    [
        (1, "qubit_catalyst", lambda r: r.efficiency + 1e-7, "|eta_ness - eta_design| over 3"),
        (2, "otto", lambda r: None, "hit a point with undefined efficiency (J_h = 0); "),
    ],
    ids=["off-by-1e-7", "undefined"],
)
def test_efficiency_check_names_its_worst_point(
    solved_grid, monkeypatch, index, engine, efficiency, detail
):
    perturb_report(monkeypatch, solved_grid[index], engine, efficiency=efficiency)
    result = verify.check_efficiency_design_match(solved_grid)
    assert names_point(result, solved_grid, index) and result.detail.startswith(detail)


def test_current_check_names_its_worst_point(solved_grid, monkeypatch):
    perturb_report(
        monkeypatch, solved_grid[2], "otto",
        currents=lambda r: (r.currents[0] * (1.0 + 1e-7),),
    )
    result = verify.check_current_closed_form(solved_grid)
    assert names_point(result, solved_grid, 2)


def test_bridge_check_names_its_worst_point(solved_grid, monkeypatch):
    audit = verify.mapping._bridges
    broken = solved_grid[1].reports[1]

    def off_at_one_point(specs, cycles, states):
        return [
            dataclasses.replace(report, residuals={**report.residuals, "second_law": 1e-7})
            if ss is broken else report
            for report, ss in zip(audit(specs, cycles, states), states)
        ]

    monkeypatch.setattr(verify.mapping, "_bridges", off_at_one_point)
    result = verify.check_time_bridge(solved_grid)
    assert names_point(result, solved_grid, 1)
    assert result.worst == 1e-7
    assert "worst bridge row qubit_catalyst second_law over 3 points" in result.detail


def test_a_heat_current_off_by_1e_7_fails_the_bridge_naming_its_row(solved_grid, monkeypatch):
    perturb_report(
        monkeypatch, solved_grid[2], "qubit_catalyst",
        j_hot=lambda r: r.j_hot * (1.0 + 1e-7),
    )
    result = verify.check_time_bridge(solved_grid)
    assert not result.passed and result.worst == math.inf and result.worst_at == 2
    assert result.detail.startswith(
        f"qubit_catalyst bridge failed at grid point 2, {solved_grid[2]!r}: "
        "bridge rows over their tolerance: heat_hot "
    )


@pytest.fixture(scope="module")
def seed_27_grid():
    """The first 71 points of seed 27's grid; point 70 has W = 1.7e-5 and
    pair terms Omega_i delta_p_i of opposite sign, 437 times larger."""
    return verify.sample_grid(np.random.Generator(np.random.PCG64(27)), 71)


def test_the_default_report_regenerates_byte_for_byte(capsys):
    # Committed once and never regenerated to absorb a change, like the golden CSV.
    assert cli.main(["verify"]) == 0
    pinned = Path(__file__).parent / "data" / "verify_seed1234.txt"
    assert capsys.readouterr().out.encode("utf-8") == pinned.read_bytes()


@pytest.mark.parametrize("seed", [1, 16, 101])
def test_the_report_at_seed_regenerates_byte_for_byte(capsys, seed):
    # Pinned once, never regenerated, like seed 1234's and seed 27's reports.
    assert cli.main(["verify", "--seed", str(seed)]) == 0
    pinned = Path(__file__).parent / "data" / f"verify_seed{seed}.txt"
    assert capsys.readouterr().out.encode("utf-8") == pinned.read_bytes()


def test_seed_27_passes_every_check(capsys):
    assert cli.main(["verify", "--seed", "27"]) == 0
    report = capsys.readouterr().out
    assert report.count("\nPASS  ") == 8 and report.endswith("RESULT: PASS (8/8 checks)\n")


def test_seed_27_regenerates_byte_for_byte(capsys):
    # Seed 27 holds the worst-conditioned grid point (point 70); check 6
    # prints the interaction residual of the adjoint audit.  Pinned once,
    # never regenerated, like seed 1234's report.
    assert cli.main(["verify", "--seed", "27"]) == 0
    pinned = Path(__file__).parent / "data" / "verify_seed27.txt"
    assert capsys.readouterr().out.encode("utf-8") == pinned.read_bytes()


def test_the_bridge_scale_at_seed_27_point_70_is_the_pair_terms(seed_27_grid):
    spec, steady = seed_27_grid[70].specs[1], seed_27_grid[70].reports[1]
    cycle = discrete.run_cycle(spec)
    report = bridge(spec, cycle, steady)
    assert 400.0 < report.work_power_scale / abs(cycle.work) < 500.0
    gap = abs(steady.power * report.tau - cycle.work)
    assert gap > 1e-9 * abs(cycle.work)
    assert gap <= 1e-9 * report.work_power_scale


@pytest.mark.parametrize(
    "engine", [pytest.param(0, id="otto"), pytest.param(1, id="catalytic")]
)
def test_every_bridge_row_at_seed_27_point_70_is_within_its_tolerance(seed_27_grid, engine):
    # The relative work row of the old from-scratch table read 3.7e-9 here.
    pt = seed_27_grid[70]
    spec = pt.specs[engine]
    report = mapping.verify_equivalence(spec)
    assert report.residuals == bridge(spec, discrete.run_cycle(spec), pt.reports[engine]).residuals
    for row, value in report.residuals.items():
        if row.startswith("catalyst_balance_"):
            assert value <= discrete.CATALYST_SOLVE_TOL, row
        else:
            assert value <= mapping.WORK_POWER_TOL == mapping.TAU_UNIFORM_TOL, row


def test_a_pair_current_off_by_1e_7_at_seed_27_point_70_fails(seed_27_grid, monkeypatch):
    perturb_report(
        monkeypatch, seed_27_grid[70], "qubit_catalyst",
        currents=lambda r: (r.currents[0] * (1.0 + 1e-7), r.currents[1]),
    )
    result = verify.check_time_bridge(seed_27_grid)
    assert not result.passed
    assert "bridge failed at grid point 70" in result.detail


@pytest.mark.parametrize(
    "index, changes",
    [
        (0, {"entropy_production": lambda r: -1e-7}),
        (2, {"int_vanish_residuals": lambda r: (0.0, 1e-9)}),
    ],
    ids=["entropy-production", "interaction-residual"],
)
def test_thermo_check_names_its_worst_point(solved_grid, monkeypatch, index, changes):
    perturb_report(monkeypatch, solved_grid[index], "otto", **changes)
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


@pytest.mark.parametrize(
    "field, shift, worst",
    [
        ("q_hot", lambda q: q + 1e-9, 1e-9),
        ("q_cold", lambda q: q - 1e-9, 1e-9),
        ("catalyst_residual", lambda r: r + 1e-9, 1e-9),
        # The qubit catalyst moves and still sums to 1; (1.0,) stays.  The
        # closed form sees the 1e-9; the stroke no longer restores the
        # moved catalyst, and its partial-trace gap reads 1.4e-9.
        ("catalyst", lambda q: q if len(q) == 1 else (q[0] + 1e-9, q[1] - 1e-9), 1.398e-9),
    ],
    ids=["q_hot", "q_cold", "catalyst_residual", "catalyst"],
)
def test_two_stroke_check_holds_the_emitted_cycle_to_the_operator_route(
    monkeypatch, field, shift, worst
):
    # Check 8 recomputes the cycle along the operator route: a population
    # route that drifts from it in any one emitted field fails the check.
    assert verify.check_two_stroke_oracles(np.random.Generator(np.random.PCG64(5))).passed
    cycles = verify.discrete._cycles

    def drifted(specs):
        return [dataclasses.replace(report, **{field: shift(getattr(report, field))})
                for report in cycles(specs)]

    monkeypatch.setattr(verify.discrete, "_cycles", drifted)
    result = verify.check_two_stroke_oracles(np.random.Generator(np.random.PCG64(5)))
    assert not result.passed
    assert result.worst == pytest.approx(worst, rel=1e-3)


def test_two_stroke_check_solves_each_catalyst_once(monkeypatch):
    # 10 points x 2 engines run as one stack per engine; only the 10 qubit
    # catalysts need a solve, and the operator route reuses the cycle's.
    calls = {"lstsq": 0, "_cycles": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    def refused(*args):
        raise AssertionError("check 8 reads the cycle's records, not a one-spec route")

    counted(np.linalg, "lstsq")
    counted(discrete, "_cycles")
    for name in ("run_cycle", "solve_catalyst"):
        monkeypatch.setattr(discrete, name, refused)
    assert verify.check_two_stroke_oracles(np.random.Generator(np.random.PCG64(1234))).passed
    assert calls == {"lstsq": 10, "_cycles": 2}


# The ranges check 7 draws from: Gibbs factors, frequencies, and the
# decimal logarithms of the damping rates and the coupling.
gibbs_factors = st.floats(min_value=0.05, max_value=0.95)
frequencies = st.floats(min_value=0.5, max_value=2.0)
half_decades = st.floats(min_value=-0.5, max_value=0.5)


def damped_bath(a: float, omega: float, log_gamma_minus: float) -> BathParams:
    return BathParams.from_damping(-math.log(a) / omega, omega, 10.0**log_gamma_minus)


@given(
    a_h=gibbs_factors,
    a_c=gibbs_factors,
    omega_h=frequencies,
    omega_c=frequencies,
    log_gamma_h=half_decades,
    log_gamma_c=half_decades,
    log_g=half_decades,
)
@settings(max_examples=60, deadline=None)
def test_stationary_relations_vanish_on_every_rate_set_check_7_draws(
    a_h, a_c, omega_h, omega_c, log_gamma_h, log_gamma_c, log_g
):
    hot = damped_bath(a_h, omega_h, log_gamma_h)
    cold = damped_bath(a_c, omega_c, log_gamma_c)
    spec = ladder_spec(2, hot, cold, 10.0**log_g)
    residuals = verify.stationary_relation_residuals(spec, steady_state_report(spec))
    assert len(residuals) == 12
    assert max(abs(r) for r in residuals) <= 1e-9


def qutrit_catalyst_spec(hot: BathParams, cold: BathParams) -> EngineSpec:
    swaps = ((4, 2, 0.7), (1, 6, 1.9), (8, 7, 0.4))
    return EngineSpec(
        catalyst_dim=3, hot=hot, cold=cold, swaps=tuple(SwapPair(*s) for s in swaps)
    )


def flipped_catalyst_spec(hot: BathParams, cold: BathParams) -> EngineSpec:
    """The qubit-catalyst machine with u and d exchanged in each pair."""
    swaps = ladder_spec(2, hot, cold, 1.0).swaps
    return EngineSpec(2, hot, cold, tuple(SwapPair(pair.d, pair.u, pair.g) for pair in swaps))


def unequal_catalyst_spec(hot: BathParams, cold: BathParams) -> EngineSpec:
    """The qubit-catalyst ladder with couplings 1 and 2.7."""
    first, second = ladder_spec(2, hot, cold, 1.0).swaps
    return EngineSpec(2, hot, cold, (first, SwapPair(second.u, second.d, 2.7)))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda hot, cold: ladder_spec(1, hot, cold, 1.0), id="otto"),
        pytest.param(qutrit_catalyst_spec, id="qutrit_catalyst"),
        # The same machine with each pair mirrored: evaluated, the relations
        # read 0.22 on it (hot beta 0.1, omega 1; cold beta 1, omega 1.8)
        # where the ladder reads 5.6e-17.  Unequal couplings read 0.14.
        pytest.param(flipped_catalyst_spec, id="flipped_qubit_catalyst"),
        pytest.param(unequal_catalyst_spec, id="unequal_couplings"),
    ],
)
def test_stationary_relations_reject_other_engines(make):
    spec = make(damped_bath(0.6, 1.0, 0.0), damped_bath(0.2, 1.2, 0.0))
    with pytest.raises(ValueError, match="qubit-catalyst engine"):
        verify.stationary_relation_residuals(spec, steady_state_report(spec))
