"""Tests for the closed-form rates, times, and trade-off factors."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ottocat import analytic
from ottocat.analytic import (
    cat_current,
    cat_delta_p,
    cat_population,
    cat_tau,
    design_efficiency,
    one_minus_kappa,
    one_minus_zeta,
    otto_current,
    otto_delta_p,
    otto_tau,
    rate_constants,
)
from ottocat.verify import CheckResult, check_tradeoff_bounds, sample_grid

gibbs_factors = st.floats(min_value=0.01, max_value=0.99)
couplings = st.floats(min_value=0.1, max_value=10.0)
rates = st.floats(min_value=0.05, max_value=5.0)


def equal_relaxation_constants(a_h: float, a_c: float, tau_eq: float = 1.0):
    """Rate constants for both baths relaxing on the same time scale."""
    gamma_h_minus = 2.0 / (tau_eq * (1.0 + a_h))
    gamma_c_minus = 2.0 / (tau_eq * (1.0 + a_c))
    return rate_constants(
        a_h * gamma_h_minus, gamma_h_minus, a_c * gamma_c_minus, gamma_c_minus
    )


class TestPopulationBiases:
    def test_otto_bias_at_a_frozen_point(self):
        # (1/2 - 1/4) / (3/2 * 5/4) = 2/15
        assert otto_delta_p(0.5, 0.25) == pytest.approx(2 / 15, rel=1e-15)

    def test_catalytic_bias_at_a_frozen_point(self):
        # a_c - a_h^2 = 1/4 over (3/2)(3/2)(5/2)
        bias = cat_delta_p(0.5, 0.5)
        assert bias.sign == 1
        assert bias.magnitude == pytest.approx(0.25 / 5.625, rel=1e-15)
        assert bias.value == pytest.approx(bias.magnitude, rel=1e-15)

    def test_catalytic_bias_sign_follows_the_squared_factor_rule(self):
        assert cat_delta_p(0.5, 0.2).sign == -1  # a_c < a_h^2
        assert cat_delta_p(0.5, 0.25).sign == 0  # a_c = a_h^2

    @given(a_h=gibbs_factors, a_c=gibbs_factors)
    def test_otto_bias_is_antisymmetric(self, a_h, a_c):
        assert otto_delta_p(a_h, a_c) == pytest.approx(
            -otto_delta_p(a_c, a_h), rel=1e-12, abs=1e-15
        )

    def test_bias_rejects_factors_outside_the_unit_interval(self):
        with pytest.raises(ValueError):
            otto_delta_p(0.0, 0.5)
        with pytest.raises(ValueError):
            cat_delta_p(0.5, 1.2)


class TestCatalystPopulation:
    def test_frozen_point(self):
        assert cat_population(0.5, 0.25) == pytest.approx(2 / 3, rel=1e-15)

    @given(a_h=gibbs_factors, a_c=gibbs_factors)
    def test_population_is_a_probability_above_one_half(self, a_h, a_c):
        p = cat_population(a_h, a_c)
        assert 0.5 < p < 1.0


class TestRateConstants:
    def test_frozen_point_with_all_unit_rates(self):
        constants = rate_constants(1.0, 1.0, 1.0, 1.0)
        assert constants.B_rate == pytest.approx(4.0, rel=1e-15)
        assert constants.A_rate == pytest.approx(3.0, rel=1e-15)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            rate_constants(0.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("hot_over_cold", [1e-2, 1e-4, 1e-6])
    def test_a_rate_matches_the_printed_shape_exactly_for_slow_hot_baths(self, hot_over_cold):
        gc_p, gc_m = 0.4, 1.3
        gh_p, gh_m = 0.7 * hot_over_cold, 1.1 * hot_over_cold
        h, cp, cm = Fraction(gh_m) + Fraction(gh_p), Fraction(gc_p), Fraction(gc_m)
        exact = h + 2 * cp - 4 * cm * cp / (h + 2 * cm)
        a_rate = rate_constants(gh_p, gh_m, gc_p, gc_m).A_rate
        assert abs(Fraction(a_rate) - exact) <= Fraction(1, 10**14) * exact


def rebuilt_constants_agree(constants, rel_tol: float = 1e-9) -> bool:
    """The equal-relaxation test by rebuilding the constants and the four
    jump rates from (B_rate, a_h, a_c) under that hypothesis and comparing
    them."""
    gh_minus = constants.B_rate / (2.0 * (1.0 + constants.a_h))
    gc_minus = constants.B_rate / (2.0 * (1.0 + constants.a_c))
    candidate = rate_constants(
        constants.a_h * gh_minus, gh_minus, constants.a_c * gc_minus, gc_minus
    )
    for name in (
        "A_rate", "B_rate", "gamma_h_plus", "gamma_h_minus", "gamma_c_plus", "gamma_c_minus",
    ):
        ours, theirs = getattr(constants, name), getattr(candidate, name)
        if abs(ours - theirs) > rel_tol * max(abs(ours), abs(theirs), 1e-300):
            return False
    return True


class TestEqualRelaxation:
    def test_rate_sums_decide_as_the_rebuilt_constants_do(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(500):
            a_h, a_c = rng.uniform(0.01, 1.0, size=2)
            tau_h = 10.0 ** rng.uniform(-2.0, 2.0)
            unequal = tau_h * 10.0 ** (rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 2.0))
            for tau_c in (tau_h, unequal):
                constants = equal_relaxation_constants(a_h, a_c, tau_h)
                gc_m = 2.0 / (tau_c * (1.0 + a_c))
                constants = rate_constants(
                    constants.gamma_h_plus, constants.gamma_h_minus, a_c * gc_m, gc_m
                )
                decision = analytic._is_equal_relaxation(constants)
                assert decision == rebuilt_constants_agree(constants)
                assert decision == (tau_c == tau_h)


class TestCurrentsAndTimes:
    @given(g=couplings, big_gamma=rates)
    def test_otto_current_times_tau_recovers_the_bias(self, g, big_gamma):
        delta_p = otto_delta_p(0.5, 0.25)
        current = otto_current(big_gamma, big_gamma, g, delta_p)
        tau = otto_tau(big_gamma, big_gamma, g).tau
        assert current * tau == pytest.approx(delta_p, rel=1e-12)

    @given(a_h=gibbs_factors, a_c=gibbs_factors, g=couplings)
    def test_catalytic_current_times_tau_recovers_the_bias(self, a_h, a_c, g):
        constants = equal_relaxation_constants(a_h, a_c)
        delta_p = cat_delta_p(a_h, a_c).value
        current = cat_current(constants, g, delta_p)
        tau = cat_tau(constants, g, a_h, a_c).tau
        assert current * tau == pytest.approx(delta_p, rel=1e-10, abs=1e-18)

    def test_otto_time_at_strong_coupling_approaches_the_relaxation_time(self):
        breakdown = otto_tau(1.0, 1.0, 10.0)
        assert breakdown.tau == pytest.approx(1.01, rel=1e-15)
        assert breakdown.zeta == 1.0
        assert breakdown.kappa == 1.0

    def test_otto_time_with_unequal_rates_has_no_factorization(self):
        breakdown = otto_tau(1.0, 2.0, 1.0)
        assert breakdown.zeta is None
        assert breakdown.kappa is None
        expected = (1.0 + 2.0 / 1.0) * (1.0 + 2.0) / (2.0 * 1.0 * 2.0)
        assert breakdown.tau == pytest.approx(expected, rel=1e-14)

    def test_catalytic_time_factorizes_only_for_equal_relaxation(self):
        equal = cat_tau(equal_relaxation_constants(0.6, 0.2), 1.0, 0.6, 0.2)
        assert equal.zeta is not None and equal.kappa is not None
        unequal_constants = rate_constants(0.6 * 2.0, 2.0, 0.2 * 0.5, 0.5)
        unequal = cat_tau(unequal_constants, 1.0, 0.6, 0.2)
        assert unequal.zeta is None and unequal.kappa is None

    def test_cat_tau_rejects_mismatched_gibbs_factors(self):
        constants = equal_relaxation_constants(0.6, 0.2)
        with pytest.raises(ValueError):
            cat_tau(constants, 1.0, 0.5, 0.2)

    def test_cat_tau_rejects_a_nan_gibbs_factor(self):
        constants = equal_relaxation_constants(0.6, 0.2)
        with pytest.raises(ValueError):
            cat_tau(constants, 1.0, math.nan, 0.2)


class TestTradeoffFactors:
    def test_frozen_exact_values(self):
        # zeta(3/5, 1/5) = 271/288 and kappa(3/5, 1/5) = 246/271
        assert 1.0 - one_minus_zeta(0.6, 0.2) == pytest.approx(271 / 288, rel=1e-14)
        assert 1.0 - one_minus_kappa(0.6, 0.2) == pytest.approx(246 / 271, rel=1e-14)
        assert 1.0 - one_minus_zeta(1.0, 1.0) == pytest.approx(7 / 8, rel=1e-14)
        assert one_minus_kappa(0.5, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_cold_limits_restore_the_plain_otto_time(self):
        assert 1.0 - one_minus_zeta(1e-12, 1e-12) == pytest.approx(1.0, abs=1e-9)
        assert 1.0 - one_minus_kappa(1e-12, 1e-12) == pytest.approx(1.0, abs=1e-9)

    @given(a_h=gibbs_factors, a_c=gibbs_factors)
    def test_both_factors_never_exceed_one(self, a_h, a_c):
        assert one_minus_zeta(a_h, a_c) >= -1e-15
        assert one_minus_kappa(a_h, a_c) >= -1e-15

    @given(a_h=gibbs_factors, a_c=gibbs_factors, g=couplings)
    def test_factorized_time_never_exceeds_the_plain_otto_time(self, a_h, a_c, g):
        constants = equal_relaxation_constants(a_h, a_c)
        breakdown = cat_tau(constants, g, a_h, a_c)
        plain = otto_tau(1.0, 1.0, g).tau
        assert breakdown.tau <= plain * (1.0 + 1e-9)

    @given(a_h=gibbs_factors, a_c=gibbs_factors, g=couplings)
    def test_factorization_reassembles_the_time(self, a_h, a_c, g):
        constants = equal_relaxation_constants(a_h, a_c)
        breakdown = cat_tau(constants, g, a_h, a_c)
        tau_eq = 4.0 / constants.B_rate
        rebuilt = breakdown.zeta * tau_eq * (
            1.0 + breakdown.kappa / (g * g * tau_eq * tau_eq)
        )
        assert rebuilt == pytest.approx(breakdown.tau, rel=1e-10)


def printed_denominator(gh_p, gh_m, gc_p, gc_m, g) -> Fraction:
    """The catalytic denominator in its printed three-term shape, in
    exact rational arithmetic on the given float rates."""
    gh_p, gh_m, gc_p, gc_m, g = map(Fraction, (gh_p, gh_m, gc_p, gc_m, g))
    total = gc_p + gc_m + gh_p + gh_m
    alpha1 = (gc_m + gh_m) / (gh_p * total)
    alpha2 = (gc_m + gh_m + gh_p) / (gh_p * total)
    phi1 = (gc_m + gh_m) * (gc_p + gh_p) / (gc_m * gh_p * total)
    phi2 = gc_p * (gc_m + gh_m) / (gc_m * gh_p * total)
    xi1 = (gc_p + gh_p) / (gc_m * total)
    xi2 = gc_p / (gc_m * total)
    a_rate = gh_m + gh_p + 2 * gc_p - 4 * gc_m * gc_p / (gh_m + gh_p + 2 * gc_m)
    a_h, a_c = gh_p / gh_m, gc_p / gc_m
    six_sum = alpha1 + phi1 + xi1 + alpha2 + phi2 + xi2
    return (
        (a_c + a_h) / (1 + a_c + 2 * a_h) * (alpha2 + a_rate / (4 * g * g))
        + (1 + a_h) / (1 + a_c + 2 * a_h) * (phi1 + total / (4 * g * g))
        + (a_h * a_h - a_c) * six_sum / ((1 + a_c) * (1 + a_h) * (1 + a_c + 2 * a_h))
    )


class TestCatalyticDenominator:
    @pytest.mark.parametrize("a_h", [1e-8, 3e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("tau_ratio", [1.0, 0.03, 30.0])
    def test_matches_the_printed_shape_exactly_down_to_tiny_hot_factors(self, a_h, tau_ratio):
        for a_c in (1e-6, 0.3, 0.97):
            for g in (0.1, 1.0, 10.0):
                gh_m = 2.0 / (1.0 + a_h)
                gc_m = 2.0 / (tau_ratio * (1.0 + a_c))
                constants = rate_constants(a_h * gh_m, gh_m, a_c * gc_m, gc_m)
                exact = printed_denominator(a_h * gh_m, gh_m, a_c * gc_m, gc_m, g)
                tau = cat_tau(constants, g, constants.a_h, constants.a_c).tau
                assert abs(Fraction(tau) - exact) <= Fraction(1, 10**13) * exact
                current = cat_current(constants, g, 1.0)
                assert abs(Fraction(current) * exact - 1) <= Fraction(1, 10**13)

    @pytest.mark.parametrize("seed", [13, 101, 106])
    def test_tradeoff_check_passes_where_the_printed_shape_cancelled(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        sample_grid(rng, 100)
        assert check_tradeoff_bounds(rng).passed


class TestEfficiencies:
    def test_design_values_are_frequency_ratios(self):
        eta_otto, eta_cat = (design_efficiency(1.0, 0.6, d) for d in (1, 2))
        assert eta_otto == pytest.approx(0.4, rel=1e-15)
        assert eta_cat == pytest.approx(0.7, rel=1e-15)

    @given(
        omega_h=st.floats(min_value=0.5, max_value=2.0),
        ratio=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_catalytic_design_always_beats_otto_design(self, omega_h, ratio):
        eta_otto, eta_cat = (design_efficiency(omega_h, ratio * omega_h, d) for d in (1, 2))
        assert eta_cat > eta_otto


def rate_arrays(a_h, a_c, tau_h, tau_c):
    """The four jump rates (gamma_h+, gamma_h-, gamma_c+, gamma_c-) of baths
    with Gibbs factors a_k and relaxation times tau_k, elementwise."""
    gh_m = 2.0 / (tau_h * (1.0 + a_h))
    gc_m = 2.0 / (tau_c * (1.0 + a_c))
    return a_h * gh_m, gh_m, a_c * gc_m, gc_m


def assert_fields_equal(array_result, scalar_results):
    """Every field of a dataclass built from arrays equals, element by
    element and exactly, the same field of the scalar results."""
    for field in dataclasses.fields(array_result):
        values = getattr(array_result, field.name)
        expected = [getattr(one, field.name) for one in scalar_results]
        if values is None:
            assert all(e == values for e in expected), field.name
        else:
            assert np.array_equal(np.broadcast_to(values, len(expected)), expected), field.name


def assert_array_calls_match_scalar_calls(a_h, a_c, tau_h, tau_c, g):
    rates = rate_arrays(a_h, a_c, tau_h, tau_c)
    constants = rate_constants(*rates)
    scalar_constants = [rate_constants(*r) for r in zip(*(x.tolist() for x in rates))]
    assert_fields_equal(constants, scalar_constants)
    # cat_tau receives the Gibbs factors stored in the constants, so that
    # the agreement check passes at every element on either path.
    assert_fields_equal(
        cat_tau(constants, g, constants.a_h, constants.a_c),
        [
            cat_tau(c, g_i, c.a_h, c.a_c)
            for c, g_i in zip(scalar_constants, g.tolist())
        ],
    )
    big_gamma_h, big_gamma_c = 1.0 / tau_h, 1.0 / tau_c
    assert_fields_equal(
        otto_tau(big_gamma_h, big_gamma_c, g),
        [
            otto_tau(*args)
            for args in zip(big_gamma_h.tolist(), big_gamma_c.tolist(), g.tolist())
        ],
    )
    for function in (one_minus_zeta, one_minus_kappa):
        expected = [function(*args) for args in zip(a_h.tolist(), a_c.tolist())]
        assert np.array_equal(function(a_h, a_c), expected)


class TestArrayCalls:
    """Array calls of the closed forms equal the scalar calls exactly."""

    @pytest.mark.parametrize("equal_relaxation", [True, False])
    def test_random_draws(self, equal_relaxation):
        rng = np.random.Generator(np.random.PCG64(6))
        n = 10_000
        a_h, a_c = rng.uniform(1e-6, 1.0, size=(2, n))
        tau_h = 10.0 ** rng.uniform(-1.5, 1.5, size=n)
        tau_c = tau_h if equal_relaxation else 10.0 ** rng.uniform(-1.5, 1.5, size=n)
        g = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
        assert_array_calls_match_scalar_calls(a_h, a_c, tau_h, tau_c, g)

    @pytest.mark.parametrize("tau_ratio", [1.0, 0.03, 30.0])
    def test_oracle_points(self, tau_ratio):
        # The exact-value points of TestTradeoffFactors and the denominator
        # grid of TestCatalyticDenominator.
        points = [(0.6, 0.2, 1.0), (1.0, 1.0, 1.0), (0.5, 1.0, 1.0), (1e-12, 1e-12, 1.0)]
        points += [
            (a_h, a_c, g)
            for a_h in (1e-8, 3e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.05, 0.5, 1.0)
            for a_c in (1e-6, 0.3, 0.97)
            for g in (0.1, 1.0, 10.0)
        ]
        a_h, a_c, g = np.array(points).T
        tau_h = np.ones_like(a_h)
        assert_array_calls_match_scalar_calls(a_h, a_c, tau_h, tau_ratio * tau_h, g)

    def test_a_mixed_relaxation_array_has_no_factorization(self):
        tau_c = np.array([1.0, 2.0])
        rates = rate_arrays(np.array([0.6, 0.6]), np.array([0.2, 0.2]), 1.0, tau_c)
        constants = rate_constants(*rates)
        breakdown = cat_tau(constants, 1.0, constants.a_h, constants.a_c)
        assert breakdown.zeta is None and breakdown.kappa is None
        scalar = [rate_constants(*r) for r in zip(*(x.tolist() for x in rates))]
        assert np.array_equal(
            breakdown.tau, [cat_tau(c, 1.0, c.a_h, c.a_c).tau for c in scalar]
        )
        assert otto_tau(1.0, 1.0 / tau_c, 1.0).zeta is None

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda a_h: one_minus_zeta(a_h, 0.3), id="a_h=0-zeta"),
            pytest.param(lambda a_h: one_minus_kappa(a_h, 0.3), id="a_h=0-kappa"),
            pytest.param(lambda a_h: rate_constants(a_h, 1.0, 0.3, 1.0), id="a_h=0-rates"),
        ],
    )
    def test_a_zero_gibbs_factor_anywhere_raises_as_the_scalar_call(self, call):
        self.assert_raises_as_scalar(call, good=0.5, bad=0.0)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(
                lambda g: cat_tau(equal_relaxation_constants(0.6, 0.2), g, 0.6, 0.2),
                id="cat_tau",
            ),
            pytest.param(lambda g: otto_tau(1.0, 2.0, g), id="otto_tau"),
        ],
    )
    def test_a_nan_coupling_anywhere_raises_as_the_scalar_call(self, call):
        self.assert_raises_as_scalar(call, good=1.0, bad=math.nan)

    @pytest.mark.parametrize("position", range(4))
    def test_a_nonpositive_rate_anywhere_raises_as_the_scalar_call(self, position):
        def call(rate):
            rates = [0.3, 1.0, 0.2, 1.0]
            rates[position] = rate
            return rate_constants(*rates)

        self.assert_raises_as_scalar(call, good=0.5, bad=-0.5)

    @staticmethod
    def assert_raises_as_scalar(call, good, bad):
        with pytest.raises(ValueError) as scalar:
            call(bad)
        for index in (0, 3, 6):
            values = np.full(7, good)
            values[index] = bad
            with pytest.raises(type(scalar.value)) as array:
                call(values)
            assert str(array.value) == str(scalar.value)


def scalar_tradeoff_bounds(rng: np.random.Generator, n_samples: int) -> CheckResult:
    """The trade-off check as one scalar sample at a time: the reference
    that the array-block check must reproduce exactly."""
    bound_tol = 1e-12
    tau_tol = 1e-9
    worst_bound = 0.0
    worst_tau = 0.0
    for _ in range(n_samples):
        a_h = rng.uniform(1e-6, 1.0)
        a_c = rng.uniform(1e-6, 1.0)
        g = 10.0 ** rng.uniform(-1.0, 1.0)
        gamma_h_minus = 2.0 / (1.0 + a_h)
        gamma_c_minus = 2.0 / (1.0 + a_c)
        constants = rate_constants(
            a_h * gamma_h_minus, gamma_h_minus, a_c * gamma_c_minus, gamma_c_minus
        )
        breakdown = cat_tau(constants, g, a_h, a_c)
        if breakdown.zeta is None or breakdown.kappa is None:
            return CheckResult(
                name="tradeoff_bounds",
                passed=False,
                worst=math.inf,
                tol=bound_tol,
                detail="equal-relaxation factorization not detected",
            )
        worst_bound = max(worst_bound, breakdown.zeta - 1.0, breakdown.kappa - 1.0)
        worst_bound = max(
            worst_bound,
            abs(breakdown.zeta - (1.0 - one_minus_zeta(a_h, a_c))),
            abs(breakdown.kappa - (1.0 - one_minus_kappa(a_h, a_c))),
        )
        tau_otto = otto_tau(1.0, 1.0, g).tau
        worst_tau = max(worst_tau, (breakdown.tau - tau_otto) / tau_otto)
    passed = worst_bound <= bound_tol and worst_tau <= tau_tol
    return CheckResult(
        name="tradeoff_bounds",
        passed=passed,
        worst=worst_bound,
        tol=bound_tol,
        detail=(
            f"zeta/kappa excess over 1 and complement-form gap, {n_samples} "
            f"samples; max relative tau excess {worst_tau:.3e} (tol {tau_tol:.0e})"
        ),
    )


class TestTradeoffBlocks:
    @pytest.mark.parametrize("seed", [13, 101, 106, 1234])
    def test_blocks_reproduce_the_scalar_loop_and_its_draws(self, seed):
        for n_samples in (0, 1, 999, 1000, 1001, 10_000):
            blocked = np.random.Generator(np.random.PCG64(seed))
            scalar = np.random.Generator(np.random.PCG64(seed))
            sample_grid(blocked, 100)
            sample_grid(scalar, 100)
            assert check_tradeoff_bounds(blocked, n_samples) == scalar_tradeoff_bounds(
                scalar, n_samples
            )
            assert blocked.bit_generator.state == scalar.bit_generator.state
