"""Tests for the per-cycle / steady-state equivalence audit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottocat import analytic, continuous, discrete, mapping, verify
from ottocat.engine_spec import FAMILIES, BathParams, EngineSpec, SwapPair, ladder_spec
from ottocat.mapping import WorkingPoint, compare_at_efficiency, verify_equivalence
from spec_helpers import bridge, record
from test_discrete import operator_route_cycle
from test_rows import record_repr

gibbs_factors = st.floats(min_value=0.1, max_value=0.9)

#: beta_h omega_h = 0.1, beta_c/beta_h = 10, g tau_eq = 10: verify's reference point.
POINT = verify.REFERENCE_POINT


class TestWorkingPoint:
    def test_cold_frequency_tracks_the_design_efficiency(self):
        assert POINT.spec_at("otto", 0.4).cold.omega == pytest.approx(0.6, rel=1e-15)
        assert POINT.spec_at("qubit_catalyst", 0.4).cold.omega == pytest.approx(1.2, rel=1e-15)

    def test_spec_at_builds_matched_baths(self):
        spec = POINT.spec_at("qubit_catalyst", 0.4)
        assert spec.hot.tau_eq == pytest.approx(1.0, rel=1e-12)
        assert spec.cold.tau_eq == pytest.approx(1.0, rel=1e-12)
        assert spec.cold.omega == pytest.approx(1.2, rel=1e-15)
        assert spec.swaps[0].g == 10.0

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_spec_at_is_the_ladder_of_the_catalyst_dimension(self, kind):
        point = WorkingPoint(beta_h=0.1, beta_c=1.0, omega_h=1.0, tau_eq=1.0, g=10.0)
        hot = BathParams.from_relaxation_time(0.1, 1.0, 1.0)
        for eta in (0.1, 0.4, 0.85):
            cold = BathParams.from_relaxation_time(1.0, FAMILIES[kind] * (1.0 - eta), 1.0)
            assert point.spec_at(kind, eta) == ladder_spec(FAMILIES[kind], hot, cold, 10.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="kind must be 'otto' or 'qubit_catalyst', got"):
            POINT.spec_at("stirling", 0.4)
        with pytest.raises(ValueError, match="^need beta_c > beta_h"):
            WorkingPoint(beta_h=1.0, beta_c=0.5, omega_h=1.0, tau_eq=1.0, g=10.0)
        with pytest.raises(ValueError, match=r"^g must be positive and finite, got inf$"):
            WorkingPoint(beta_h=0.1, beta_c=1.0, omega_h=1.0, tau_eq=1.0, g=math.inf)
        with pytest.raises(ValueError, match=r"^efficiency must lie in \(0, 1\), got 1.0$"):
            POINT.spec_at("otto", 1.0)


@pytest.mark.parametrize("d", [3, 4])
def test_longer_ladders_run_at_their_design_efficiency_in_both_pictures(d):
    # Check 1's tolerance; a scan of this grid measured at worst 1.2e-13.
    hot = BathParams.from_relaxation_time(0.1, 1.0, 1.0)
    specs = [
        ladder_spec(d, hot, BathParams.from_relaxation_time(1.0, d * (1.0 - eta), 1.0), g)
        for eta in (0.1 + 0.05 * k for k in range(16))
        for g in (0.1, 1.0, 10.0)
    ]
    for spec, ss in zip(specs, continuous.steady_state_reports(specs)):
        expected = analytic.design_efficiency(hot.omega, spec.cold.omega, d)
        assert abs(ss.efficiency - expected) <= 1e-9
        assert abs(discrete.run_cycle(spec).efficiency - expected) <= 1e-9


class TestEquivalence:
    @given(eta=st.floats(min_value=0.05, max_value=0.85))
    @settings(max_examples=20, deadline=None)
    def test_power_times_cycle_time_equals_work(self, eta):
        for kind in FAMILIES:
            steady, cycle, report = record(POINT.spec_at(kind, eta))
            assert report.simple_permutation
            assert abs(steady.power * report.tau - cycle.work) <= 1e-9 * max(
                1e-30, abs(cycle.work)
            )

    def test_both_pictures_agree_on_the_efficiency(self):
        steady, cycle, report = record(POINT.spec_at("qubit_catalyst", 0.4))
        assert cycle.efficiency == pytest.approx(0.4, rel=1e-12)
        assert steady.efficiency == pytest.approx(0.4, rel=1e-12)
        assert report.residuals["efficiency"] <= 1e-12

    def test_measured_time_matches_the_closed_form_for_otto(self):
        spec = POINT.spec_at("otto", 0.4)
        report = verify_equivalence(spec)
        expected = analytic.otto_tau(
            spec.hot.big_gamma, spec.cold.big_gamma, spec.swaps[0].g
        ).tau
        assert report.tau == pytest.approx(expected, rel=1e-10)

    def test_measured_time_matches_the_closed_form_for_the_catalyst(self):
        spec = POINT.spec_at("qubit_catalyst", 0.4)
        report = verify_equivalence(spec)
        constants = analytic.rate_constants(
            spec.hot.gamma_plus, spec.hot.gamma_minus,
            spec.cold.gamma_plus, spec.cold.gamma_minus,
        )
        expected = analytic.cat_tau(
            constants, spec.swaps[0].g, spec.hot.gibbs_factor, spec.cold.gibbs_factor
        ).tau
        assert report.tau == pytest.approx(expected, rel=1e-10)
        assert report.tau_uniform_residual <= 1e-9 * abs(report.tau)

    def test_per_pair_times_are_reported(self):
        report = verify_equivalence(POINT.spec_at("qubit_catalyst", 0.4))
        assert len(report.tau_i) == 2
        assert report.tau_i[0] == pytest.approx(report.tau_i[1], rel=1e-9)

    def test_equilibrium_boundary_is_rejected_not_divided_through(self):
        # beta_h omega_h = beta_c omega_c makes every pair flow vanish
        hot = BathParams.from_relaxation_time(0.5, 1.0, 1.0)
        cold = BathParams.from_relaxation_time(1.0, 0.5, 1.0)
        spec = ladder_spec(1, hot, cold, g=1.0)
        with pytest.raises(ValueError, match="equilibrium boundary"):
            verify_equivalence(spec)

    def test_the_bridge_scale_is_the_work_on_otto_specs(self):
        # One pair: the scale |Omega delta_p| differs from |W| only by the
        # rounding in W = Q_h + Q_c.
        worst = 0.0
        for seed in (1, 16, 27):
            for pt in verify.sample_grid(np.random.Generator(np.random.PCG64(seed)), 100):
                spec = pt.specs[0]
                cycle = discrete.run_cycle(spec)
                report = bridge(spec, cycle, pt.reports[0])
                worst = max(worst, report.work_power_scale / abs(cycle.work) - 1.0)
        assert 0.0 <= worst <= 1e-11

    def test_unbalanced_catalyst_is_flagged_as_non_simple(self):
        # The operator route runs a catalyst that the stroke does not restore.
        spec = POINT.spec_at("qubit_catalyst", 0.4)
        cycle = operator_route_cycle(spec, (0.5, 0.5))
        ss = continuous.steady_state_report(spec)
        report = bridge(spec, cycle, ss)
        assert not report.simple_permutation
        assert report.residuals["catalyst_balance_discrete_0"] > 1e-3  # reported, not gated

    def test_unequal_pair_flows_are_flagged_as_non_simple(self):
        # Two catalyst-free pairs, |h c> = |1 0> <-> |0 1> and |0 0> <-> |1 1>,
        # carry different flows: no catalyst can make the swap set simple.
        good = POINT.spec_at("otto", 0.4)
        spec = EngineSpec(1, good.hot, good.cold, (SwapPair(2, 1, 10.0), SwapPair(0, 3, 10.0)))
        cycle = discrete.run_cycle(spec)
        report = bridge(spec, cycle, continuous.steady_state_report(spec))
        assert not report.simple_permutation
        assert abs(cycle.delta_p[1] - cycle.delta_p[0]) > 1e-3  # reported, not gated


class TestTableCorrespondence:
    def test_residual_bundle_is_machine_small_for_both_engines(self):
        for kind in FAMILIES:
            residuals = verify_equivalence(POINT.spec_at(kind, 0.4)).residuals
            assert max(residuals.values()) <= 1e-12

    def test_bundle_covers_every_mapped_quantity(self):
        residuals = verify_equivalence(POINT.spec_at("qubit_catalyst", 0.4)).residuals
        names = set(residuals)
        assert {
            "tau_spread", "heat_hot", "heat_cold", "work_power", "second_law", "efficiency"
        } <= names
        assert {"flow_pair_0", "flow_pair_1"} <= names
        assert {
            f"catalyst_balance_{picture}_{level}"
            for picture in ("discrete", "continuous")
            for level in (0, 1)
        } <= names


class TestMatchedEfficiencyComparison:
    def test_catalytic_engine_outpowers_otto_at_equal_efficiency(self):
        records = compare_at_efficiency(POINT, [0.4])
        (otto, otto_cycle, otto_bridge), (cat, cat_cycle, cat_bridge) = records
        assert otto.regime == cat.regime == "engine"
        assert cat.power > otto.power
        assert cat_cycle.work > otto_cycle.work
        assert cat_bridge.tau < otto_bridge.tau

    def test_otto_stalls_beyond_its_design_window_while_catalyst_runs(self):
        # eta above 1 - omega_c_min/omega_h is unreachable for otto only
        # when the bias reverses; at eta close to the Carnot point both
        # machines still run here, so probe the power ordering instead
        (otto, _, _), (cat, _, _) = compare_at_efficiency(POINT, [0.85])
        assert cat.power > otto.power > 0.0

    def test_past_carnot_both_machines_are_tagged_by_their_steady_states(self):
        etas = [0.4, 0.95]
        records = compare_at_efficiency(POINT, etas)
        specs = [POINT.spec_at(kind, eta) for eta in etas for kind in FAMILIES]
        for (report, _, _), alone in zip(records, map(continuous.steady_state_report, specs)):
            assert (report.power, report.regime) == (alone.power, alone.regime)
        # eta = 0.95 is past Carnot, 1 - beta_h/beta_c = 0.9 at the reference point.
        (otto, _, _), (cat, _, _) = records[2:]
        assert otto.power == pytest.approx(-0.01174, rel=1e-3)
        assert cat.power == pytest.approx(-0.01364, rel=1e-3)
        assert otto.regime == cat.regime == "non_engine"

    def test_the_records_are_one_rows_call_on_the_same_specs(self):
        etas = [0.4, 0.85, 0.95]  # 0.95 is past Carnot: both non_engine
        specs = [POINT.spec_at(kind, eta) for eta in etas for kind in FAMILIES]
        records = compare_at_efficiency(POINT, etas)
        assert list(map(record_repr, records)) == list(map(record_repr, mapping.rows(specs)))

    def test_the_near_limit_pair_of_check_5_bridges_well_inside_its_gates(self):
        # The worst row there measures 1.06e-11, the catalyst's tau_spread,
        # against gates of 1e-9: this warns before refusals near the
        # equilibrium boundary reach check 5.
        records = compare_at_efficiency(POINT, [0.9 - 1e-5])
        for _, _, bridge in records:
            assert bridge.simple_permutation
            assert max(bridge.residuals.values()) <= 1e-10
