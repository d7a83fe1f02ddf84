"""Tests for the per-cycle / steady-state equivalence audit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottocat import analytic, continuous, discrete, verify
from ottocat.discrete import CatalystState
from ottocat.engine_spec import FAMILIES, BathParams, ladder_spec
from ottocat.mapping import EngineFamily, compare_at_efficiency, verify_equivalence
from spec_helpers import bridge, record

gibbs_factors = st.floats(min_value=0.1, max_value=0.9)


def otto_family(**overrides) -> EngineFamily:
    params = dict(kind="otto", beta_h=0.1, beta_c=1.0, omega_h=1.0, tau_eq=1.0, g=10.0)
    params.update(overrides)
    return EngineFamily(**params)


def cat_family(**overrides) -> EngineFamily:
    return otto_family(kind="qubit_catalyst", **overrides)


class TestEngineFamily:
    def test_cold_frequency_tracks_the_design_efficiency(self):
        assert otto_family().omega_c_at(0.4) == pytest.approx(0.6, rel=1e-15)
        assert cat_family().omega_c_at(0.4) == pytest.approx(1.2, rel=1e-15)

    def test_spec_at_builds_matched_baths(self):
        spec = cat_family().spec_at(0.4)
        assert spec.hot.tau_eq == pytest.approx(1.0, rel=1e-12)
        assert spec.cold.tau_eq == pytest.approx(1.0, rel=1e-12)
        assert spec.cold.omega == pytest.approx(1.2, rel=1e-15)
        assert spec.swaps[0].g == 10.0

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_spec_at_is_the_ladder_of_the_catalyst_dimension(self, kind):
        family = otto_family(kind=kind)
        hot = BathParams.from_relaxation_time(0.1, 1.0, 1.0)
        for eta in (0.1, 0.4, 0.85):
            cold = BathParams.from_relaxation_time(1.0, FAMILIES[kind] * (1.0 - eta), 1.0)
            assert family.spec_at(eta) == ladder_spec(FAMILIES[kind], hot, cold, 10.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="kind must be 'otto' or 'qubit_catalyst', got"):
            otto_family(kind="stirling")
        with pytest.raises(ValueError):
            otto_family(beta_h=1.0, beta_c=0.5)
        with pytest.raises(ValueError):
            otto_family().omega_c_at(1.0)


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
        for family in (otto_family(), cat_family()):
            steady, cycle, report = record(family.spec_at(eta))
            assert report.simple_permutation
            assert abs(steady.power * report.tau - cycle.work) <= 1e-9 * max(
                1e-30, abs(cycle.work)
            )

    def test_both_pictures_agree_on_the_efficiency(self):
        steady, cycle, report = record(cat_family().spec_at(0.4))
        assert cycle.efficiency == pytest.approx(0.4, rel=1e-12)
        assert steady.efficiency == pytest.approx(0.4, rel=1e-12)
        assert report.residuals["efficiency"] <= 1e-12

    def test_measured_time_matches_the_closed_form_for_otto(self):
        family = otto_family()
        spec = family.spec_at(0.4)
        report = verify_equivalence(spec)
        expected = analytic.otto_tau(
            spec.hot.big_gamma, spec.cold.big_gamma, spec.swaps[0].g
        ).tau
        assert report.tau == pytest.approx(expected, rel=1e-10)

    def test_measured_time_matches_the_closed_form_for_the_catalyst(self):
        spec = cat_family().spec_at(0.4)
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
        report = verify_equivalence(cat_family().spec_at(0.4))
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
        spec = cat_family().spec_at(0.4)
        cycle = discrete.run_cycle(spec, catalyst=CatalystState(populations=(0.5, 0.5)))
        ss = continuous.steady_state_report(spec)
        report = bridge(spec, cycle, ss)
        assert not report.simple_permutation
        assert report.residuals["catalyst_balance_discrete_0"] > 1e-3  # reported, not gated


class TestTableCorrespondence:
    def test_residual_bundle_is_machine_small_for_both_engines(self):
        for family in (otto_family(), cat_family()):
            residuals = verify_equivalence(family.spec_at(0.4)).residuals
            assert max(residuals.values()) <= 1e-12

    def test_bundle_covers_every_mapped_quantity(self):
        residuals = verify_equivalence(cat_family().spec_at(0.4)).residuals
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
        comparison = compare_at_efficiency(otto_family(), cat_family(), eta=0.4)
        assert comparison.regime_otto == "engine"
        assert comparison.regime_cat == "engine"
        assert comparison.p_cat > comparison.p_otto
        assert comparison.tau_cat < comparison.tau_otto

    def test_otto_stalls_beyond_its_design_window_while_catalyst_runs(self):
        # eta above 1 - omega_c_min/omega_h is unreachable for otto only
        # when the bias reverses; at eta close to the Carnot point both
        # machines still run here, so probe the power ordering instead
        comparison = compare_at_efficiency(otto_family(), cat_family(), eta=0.85)
        assert comparison.p_cat > comparison.p_otto > 0.0

    def test_past_carnot_both_machines_are_tagged_by_their_steady_states(self):
        families = verify.reference_families()
        for eta in (0.4, 0.95):
            comparison = compare_at_efficiency(*families, eta=eta)
            otto, cat = (continuous.steady_state_report(f.spec_at(eta)) for f in families)
            assert (comparison.p_otto, comparison.p_cat) == (otto.power, cat.power)
            assert (comparison.regime_otto, comparison.regime_cat) == (otto.regime, cat.regime)
        # eta = 0.95 is past Carnot, 1 - beta_h/beta_c = 0.9 at the reference point.
        assert comparison.p_otto == pytest.approx(-0.01174, rel=1e-3)
        assert comparison.p_cat == pytest.approx(-0.01364, rel=1e-3)
        assert comparison.regime_otto == comparison.regime_cat == "non_engine"

    def test_rejects_mismatched_families(self):
        with pytest.raises(ValueError, match="kind"):
            compare_at_efficiency(cat_family(), cat_family(), eta=0.4)
        with pytest.raises(ValueError, match="disagree"):
            compare_at_efficiency(otto_family(g=5.0), cat_family(), eta=0.4)
