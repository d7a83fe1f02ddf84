"""Tests for the two-stroke cycle: swap work stroke plus rethermalization."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ottocat import analytic, discrete, mapping
from ottocat.discrete import (
    CLAUSIUS_TOL,
    CycleReport,
    build_initial_state,
    heat_stroke,
    permutation_matrix,
    run_cycle,
    solve_catalyst,
)
from ottocat.engine_spec import (
    BathParams,
    EngineSpec,
    SwapPair,
    hamiltonians,
    ladder_spec,
)
from ottocat.qstate import DensityMatrix, partial_trace
from spec_helpers import bath_from_factor, golden_specs

gibbs_factors = st.floats(min_value=0.05, max_value=0.95)


def otto_from_factors(a_h: float, a_c: float, omega_c: float = 0.6) -> EngineSpec:
    return ladder_spec(
        1, bath_from_factor(a_h), bath_from_factor(a_c, omega=omega_c), g=1.0
    )


def catalyst_from_factors(a_h: float, a_c: float, omega_c: float = 1.2) -> EngineSpec:
    return ladder_spec(
        2, bath_from_factor(a_h), bath_from_factor(a_c, omega=omega_c), g=1.0
    )


class TestPermutation:
    def test_swap_matrix_is_an_involutive_permutation(self):
        for spec in (otto_from_factors(0.5, 0.25), catalyst_from_factors(0.5, 0.2)):
            s = permutation_matrix(spec)
            assert np.array_equal(s @ s, np.eye(spec.dim))
            assert np.array_equal(np.sort(np.abs(s).sum(axis=0)), np.ones(spec.dim))

    def test_swap_exchanges_exactly_the_named_levels(self):
        spec = catalyst_from_factors(0.5, 0.2)
        s = permutation_matrix(spec)
        moved = {i for i in range(spec.dim) if s[i, i] == 0.0}
        assert moved == {1, 2, 4, 6}
        for pair in spec.swaps:
            assert s[pair.u, pair.d] == 1.0
            assert s[pair.d, pair.u] == 1.0


class TestOttoCycle:
    def test_population_bias_matches_gibbs_factors(self):
        # frozen oracle: (a_h - a_c) / ((1 + a_h)(1 + a_c)) at (1/2, 1/4) is 2/15
        report = run_cycle(otto_from_factors(0.5, 0.25))
        assert report.delta_p == pytest.approx((2 / 15,), rel=1e-14)

    def test_heats_scale_with_the_level_splittings(self):
        spec = otto_from_factors(0.5, 0.25, omega_c=0.6)
        report = run_cycle(spec)
        delta_p = report.delta_p[0]
        assert report.q_hot == pytest.approx(spec.hot.omega * delta_p, rel=1e-14)
        assert report.q_cold == pytest.approx(-spec.cold.omega * delta_p, rel=1e-14)
        assert report.work == pytest.approx(report.q_hot + report.q_cold, rel=1e-14)

    def test_engine_efficiency_is_the_frequency_ratio_gap(self):
        spec = otto_from_factors(0.5, 0.25, omega_c=0.6)
        report = run_cycle(spec)
        assert report.regime == "engine"
        assert report.efficiency == pytest.approx(1.0 - 0.6, rel=1e-14)

    def test_reversed_bias_is_not_an_engine(self):
        # a_c > a_h: population flows backwards, the device refrigerates
        report = run_cycle(otto_from_factors(0.3, 0.6, omega_c=0.6))
        assert report.q_hot < 0.0
        assert report.q_cold > 0.0
        assert report.regime == "non_engine"

    @given(a_h=gibbs_factors, a_c=gibbs_factors)
    def test_clausius_margin_is_never_negative(self, a_h, a_c):
        report = run_cycle(otto_from_factors(a_h, a_c))
        assert report.clausius_margin >= -1e-12

    def test_equilibrium_pair_exchanges_nothing(self):
        # equal beta * omega on both sides: the swap connects equal populations
        hot = BathParams.from_relaxation_time(0.5, 1.0, 1.0)
        cold = BathParams.from_relaxation_time(1.0, 0.5, 1.0)
        report = run_cycle(ladder_spec(1, hot, cold, g=1.0))
        assert report.q_hot == pytest.approx(0.0, abs=1e-15)
        assert report.work == pytest.approx(0.0, abs=1e-15)
        assert report.efficiency is None


class TestCatalystSolve:
    @given(a_h=gibbs_factors, a_c=gibbs_factors)
    def test_solved_marginal_matches_the_closed_form(self, a_h, a_c):
        catalyst = solve_catalyst(catalyst_from_factors(a_h, a_c))
        expected = (1.0 + a_h) / (1.0 + 2.0 * a_h + a_c)
        assert catalyst[0] == pytest.approx(expected, rel=1e-12)
        assert sum(catalyst) == pytest.approx(1.0, rel=1e-14)

    def test_solved_catalyst_equalizes_the_pair_flows(self):
        spec = catalyst_from_factors(0.5, 0.2)
        flows = run_cycle(spec).delta_p
        assert flows[0] == pytest.approx(flows[1], abs=1e-15)

    def test_trivial_catalyst_spec_needs_no_solve(self):
        catalyst = solve_catalyst(otto_from_factors(0.5, 0.25))
        assert catalyst == (1.0,)

    def test_inconsistent_swap_set_has_no_catalyst(self):
        spec = catalyst_from_factors(0.5, 0.2)
        # these two pairs demand contradictory marginal ratios a_h and 1/a_h
        bad = EngineSpec(
            catalyst_dim=spec.catalyst_dim, hot=spec.hot, cold=spec.cold,
            swaps=(SwapPair(u=4, d=2, g=1.0), SwapPair(u=6, d=0, g=1.0)),
        )
        with pytest.raises(ValueError, match="no simple-permutation catalyst"):
            solve_catalyst(bad)

    def test_solvable_swap_set_may_still_carry_zero_flow(self):
        spec = catalyst_from_factors(0.5, 0.2)
        # both pairs de-excite the catalyst, so balance forces zero flow
        dud = EngineSpec(
            catalyst_dim=spec.catalyst_dim, hot=spec.hot, cold=spec.cold,
            swaps=(SwapPair(u=4, d=2, g=1.0), SwapPair(u=5, d=3, g=1.0)),
        )
        flows = run_cycle(dud).delta_p
        np.testing.assert_allclose(flows, 0.0, atol=1e-14)


class TestHandOff:
    """``run_cycle`` accounts the work stroke that ``solve_catalyst`` checked
    its solution on."""

    def specs(self) -> list[EngineSpec]:
        hot, cold = bath_from_factor(0.7), bath_from_factor(0.3, omega=2.0)
        return [
            *(spec for spec in golden_specs() if spec.catalyst_dim == 2),
            *(ladder_spec(d, a, b, 1.0) for d in (3, 4) for a, b in ((hot, cold), (cold, hot))),
        ]

    def test_cycle_equals_the_cycle_on_the_solved_catalyst(self):
        specs = self.specs()
        assert len(specs) == 104
        for spec in specs:
            handed_off = run_cycle(spec)
            rerun = operator_route_cycle(spec, solve_catalyst(spec))
            for name in CycleReport._fields:
                assert getattr(handed_off, name) == getattr(rerun, name)

    @pytest.mark.parametrize(
        "swaps, message",
        [
            (
                (SwapPair(4, 2, 1.0), SwapPair(6, 0, 1.0)),
                r"no simple-permutation catalyst exists for this spec "
                r"\(linear system residual 2\.579e-01\)",
            ),
            (
                (SwapPair(4, 2, 1.0), SwapPair(2, 6, 1.0)),
                "swap 1: index 2 appears in more than one pair",
            ),
            (
                (SwapPair(4, 2, 1.0), SwapPair(1, 8, 1.0)),
                "swap 1: index 8 out of range for dimension 8",
            ),
        ],
        ids=["inconsistent", "overlapping", "out-of-range"],
    )
    def test_solve_and_cycle_raise_the_same_error_on_every_call(self, swaps, message):
        spec = catalyst_from_factors(0.5, 0.2)
        for _ in range(2):
            for route in (solve_catalyst, run_cycle):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    route(EngineSpec(catalyst_dim=2, hot=spec.hot, cold=spec.cold, swaps=swaps))


class TestCatalyticCycle:
    def test_population_bias_matches_the_closed_form(self):
        # frozen oracle at a_h = a_c = 1/2: magnitude 1/4 / (3/2 * 3/2 * 5/2)
        report = run_cycle(catalyst_from_factors(0.5, 0.5))
        expected = 0.25 / (1.5 * 1.5 * 2.5)
        assert report.delta_p[0] == pytest.approx(expected, rel=1e-13)
        assert report.delta_p[1] == pytest.approx(expected, rel=1e-13)

    def test_cycle_restores_the_catalyst_marginal(self):
        report = run_cycle(catalyst_from_factors(0.4, 0.3))
        assert report.catalyst_residual <= 1e-12

    def test_work_stroke_plus_heat_stroke_is_a_fixed_point(self):
        spec = catalyst_from_factors(0.4, 0.3)
        rho0 = build_initial_state(spec, solve_catalyst(spec))
        swap = permutation_matrix(spec)
        rho1 = DensityMatrix(spec.layout, swap @ rho0.matrix @ swap.conj().T)
        rho2 = heat_stroke(spec, rho1)
        np.testing.assert_allclose(rho2.matrix, rho0.matrix, atol=1e-13)

    def test_both_heats_flow_out_of_the_hot_bath_in_engine_regime(self):
        spec = catalyst_from_factors(0.9, 0.2)
        report = run_cycle(spec)
        assert report.regime == "engine"
        assert report.q_hot > 0.0
        assert report.q_cold < 0.0
        assert report.efficiency == pytest.approx(
            1.0 - spec.cold.omega / (2.0 * spec.hot.omega), rel=1e-12
        )

    def test_explicit_unbalanced_catalyst_is_reported(self):
        # run_cycle runs only the restored catalyst; the operator route, the
        # oracle of verify check 8, still reports one that is not restored.
        spec = catalyst_from_factors(0.5, 0.2)
        report = operator_route_cycle(spec, (0.5, 0.5))
        assert report.catalyst_residual > 1e-3


def operator_route_cycle(spec: EngineSpec, catalyst: tuple[float, ...]) -> CycleReport:
    """One cycle along the operator route: density matrices, the permutation
    matrix, operator traces of the bare Hamiltonians, and partial traces."""
    rho0 = build_initial_state(spec, catalyst)
    swap = permutation_matrix(spec)
    rho1 = DensityMatrix(spec.layout, swap @ rho0.matrix @ swap.conj().T)
    pops = rho0.populations()
    h0h, h0c = hamiltonians(spec)
    diff = rho0.matrix - rho1.matrix
    q_hot = float(np.trace(h0h @ diff).real)
    q_cold = float(np.trace(h0c @ diff).real)
    work = q_hot + q_cold
    before = partial_trace(rho0, keep=(0,)).matrix
    after = partial_trace(rho1, keep=(0,)).matrix
    return CycleReport(
        delta_p=tuple(float(pops[pair.u] - pops[pair.d]) for pair in spec.swaps),
        q_hot=q_hot,
        q_cold=q_cold,
        work=work,
        efficiency=None if q_hot == 0.0 else work / q_hot,
        clausius_margin=-(spec.hot.beta * q_hot + spec.cold.beta * q_cold),
        catalyst=catalyst,
        catalyst_residual=float(np.max(np.abs(after - before))),
        regime="engine" if (work > 0.0 and q_hot > 0.0) else "non_engine",
    )


class TestPopulationRoute:
    """``run_cycle`` works on population vectors; the operator route is its oracle."""

    def random_specs(self, n: int) -> list[EngineSpec]:
        rng = np.random.default_rng(20261018)
        specs = []
        for _ in range(n):
            a_h, a_c = rng.uniform(0.02, 0.98, size=2)
            omega_h, omega_c = rng.uniform(0.3, 3.0, size=2)
            hot = bath_from_factor(a_h, omega=omega_h, tau_eq=rng.uniform(0.5, 2.0))
            cold = bath_from_factor(a_c, omega=omega_c, tau_eq=rng.uniform(0.5, 2.0))
            specs += [
                ladder_spec(1, hot, cold, g=1.0),
                ladder_spec(2, hot, cold, g=1.0),
                ladder_spec(3, hot, cold, 1.0),
            ]
        return specs

    def test_cycle_reports_equal_the_operator_route_exactly(self):
        specs = self.random_specs(60)
        assert len(specs) == 180
        for spec in specs:
            assert run_cycle(spec) == operator_route_cycle(spec, solve_catalyst(spec))

    def test_three_pair_ladder_catalyst_closes_the_cycle(self):
        spec = ladder_spec(3, bath_from_factor(0.7), bath_from_factor(0.3, omega=2.0), 1.0)
        report = run_cycle(spec)
        assert len(report.delta_p) == 3
        assert report.delta_p == pytest.approx((report.delta_p[0],) * 3, rel=1e-12)
        assert report.catalyst_residual <= 1e-12
        assert report == operator_route_cycle(spec, solve_catalyst(spec))

    def test_catalyst_dimension_must_match_the_spec(self):
        spec = catalyst_from_factors(0.5, 0.2)
        with pytest.raises(ValueError, match="catalyst has 1 levels but spec declares 2"):
            build_initial_state(spec, (1.0,))

    @pytest.mark.parametrize(
        "catalyst, message",
        [
            ((), "catalyst needs at least one level"),
            ((math.nan, 1.0), "catalyst populations must be nonnegative, got (nan, 1.0)"),
            ((1.1, -0.1), "catalyst populations must be nonnegative, got (1.1, -0.1)"),
            ((0.6, 0.6), "catalyst populations sum to 1.2, expected 1"),
        ],
        ids=["empty", "nan", "negative", "unnormalized"],
    )
    def test_a_catalyst_that_is_not_a_distribution_is_refused(self, catalyst, message):
        with pytest.raises(ValueError) as refused:
            build_initial_state(catalyst_from_factors(0.5, 0.2), catalyst)
        assert str(refused.value) == message

    def test_round_off_below_zero_is_clipped(self):
        rho = build_initial_state(catalyst_from_factors(0.5, 0.2), (1.0 + 1e-13, -1e-13))
        marginal = partial_trace(rho, keep=(0,)).matrix
        assert marginal[1, 1] == 0.0
        assert rho.populations()[4:].tolist() == [0.0] * 4


def ladder_cycle(a_h, a_c, d: int) -> tuple:
    """``(delta_p, q)`` of the d-ladder's two-stroke cycle in closed form, in
    the arithmetic of ``a_h`` and ``a_c`` (floats, or exact fractions).

    The catalyst climbs a ring q_{k+1} = a_h q_k + f, in units of the Gibbs
    weights, closed by the cold swap.  With S_k = sum_{j<k} a_h^j,
    T_d = sum_{k<d} S_k, x = a_c - a_h^d and D = S_d^2 + x T_d it gives
    q_0 = S_d / D, f = x / D, q_k = a_h^k q_0 + f S_k and
    delta_p = x / ((1 + a_h)(1 + a_c) D).
    """
    powers = [a_h**0]
    for _ in range(d):
        powers.append(powers[-1] * a_h)
    sums = [0 * a_h]
    for power in powers[:d]:
        sums.append(sums[-1] + power)
    x = a_c - powers[d]
    denominator = sums[d] ** 2 + x * sum(sums[:d])
    q0, f = sums[d] / denominator, x / denominator
    flow = x / ((1 + a_h) * (1 + a_c) * denominator)
    return flow, [power * q0 + f * partial for power, partial in zip(powers, sums[:d])]


class TestLadderClosedForm:
    """The cycle against the ladder's closed form, evaluated exactly."""

    #: Worst gaps over the seeded draws below, d = 2...8: 3.5e-12 relative
    #: for delta_p (at d = 7) and 8.1e-15 absolute for q (at d = 3).
    FLOW_TOL = 5e-12
    CATALYST_TOL = 1.5e-14

    def draws(self, d: int) -> list[tuple[float, float]]:
        """200 seeded Gibbs factors, each 1e-3 or more off a_c = a_h^d, where
        the flow changes sign."""
        rng, draws = np.random.default_rng(20261020 + d), []
        while len(draws) < 200:
            a_h, a_c = rng.uniform(0.02, 0.98, size=2).tolist()
            if abs(a_c - a_h**d) >= 1e-3:
                draws.append((a_h, a_c))
        return draws

    @pytest.mark.parametrize("d", range(2, 9))
    def test_cycle_matches_the_exact_closed_form(self, d):
        specs = [ladder_spec(d, bath_from_factor(a_h), bath_from_factor(a_c, omega=1.7), 1.0)
                 for a_h, a_c in self.draws(d)]
        flow_gaps, catalyst_gaps = [], []
        for spec, (_, cycle, _) in zip(specs, mapping.rows(specs, "discrete")):
            exact = (Fraction(spec.hot.gibbs_factor), Fraction(spec.cold.gibbs_factor))
            flow, q = ladder_cycle(*exact, d)
            flow_gaps += [abs(Fraction(dp) - flow) / abs(flow) for dp in cycle.delta_p]
            catalyst_gaps += [abs(Fraction(p) - e) for p, e in zip(cycle.catalyst, q)]
        assert max(flow_gaps) <= self.FLOW_TOL
        assert max(catalyst_gaps) <= self.CATALYST_TOL

    def test_the_qubit_catalyst_is_the_ladder_at_d_2(self):
        # Float for float, the ring's closed form and the d = 2 one differ in
        # their rounding alone: at most 3 ulp in delta_p and 10 in q here.
        flow_ulps = catalyst_ulps = 0.0
        for a_h, a_c in self.draws(2):
            flow, (q0, q1) = ladder_cycle(a_h, a_c, 2)
            ground, expected = analytic.cat_population(a_h, a_c), analytic.cat_delta_p(a_h, a_c)
            flow_ulps = max(flow_ulps, abs(flow - expected.value) / math.ulp(flow))
            catalyst_ulps = max(catalyst_ulps, abs(q0 - ground) / math.ulp(ground),
                                abs(q1 - (1.0 - ground)) / math.ulp(1.0 - ground))
        assert flow_ulps <= 4
        assert catalyst_ulps <= 12


class TestHeatStroke:
    def test_rethermalization_resets_bath_qubits_and_keeps_catalyst(self):
        spec = catalyst_from_factors(0.5, 0.2)
        catalyst = (0.7, 0.3)
        rho = heat_stroke(spec, build_initial_state(spec, catalyst))
        pops = rho.populations()
        layout = spec.layout
        for s, weight in enumerate(catalyst):
            block = sum(
                pops[np.ravel_multi_index((s, n_h, n_c), layout)]
                for n_h in range(2) for n_c in range(2)
            )
            assert block == pytest.approx(weight, rel=1e-14)
        hot_excited = sum(
            pops[np.ravel_multi_index((s, 1, n_c), layout)] for s in range(2) for n_c in range(2)
        )
        assert hot_excited == pytest.approx(
            spec.hot.gibbs_factor / (1.0 + spec.hot.gibbs_factor), rel=1e-14
        )

    def test_a_state_of_another_layout_is_refused(self):
        # The mismatch build_initial_state refuses, in the same words.
        spec = catalyst_from_factors(0.5, 0.2)
        otto = otto_from_factors(0.5, 0.2)
        rho = build_initial_state(otto, (1.0,))
        with pytest.raises(ValueError, match=r"^state is on layout \(1, 2, 2\) but spec "
                           r"declares \(2, 2, 2\)$"):
            heat_stroke(spec, rho)
        assert heat_stroke(otto, rho) == rho


class TestClausiusCheck:
    def test_accepts_compliant_heats_and_returns_the_margin(self):
        spec = otto_from_factors(0.5, 0.25)
        report = run_cycle(spec)
        margin = -(spec.hot.beta * report.q_hot + spec.cold.beta * report.q_cold)
        assert margin > 0.0
        assert report.clausius_margin == margin

    def test_rejects_heats_that_would_beat_carnot(self, monkeypatch):
        # Baths with inverted populations run the Otto cycle backwards while
        # the betas stay positive: the emitted heats would beat Carnot.
        monkeypatch.setattr(discrete, "_gibbs_weights", lambda a: (a / (1 + a), 1 / (1 + a)))
        with pytest.raises(AssertionError, match=r"^second-law margin is negative: -[.e\d-]+$"):
            run_cycle(otto_from_factors(0.5, 0.25))

    @pytest.mark.parametrize("populations", [(0.9, 0.1), (1.0, 0.0)])
    def test_catalyst_entropy_change_covers_a_negative_bath_margin(self, populations):
        # Why the stacked check needs no catalyst-entropy term: only a catalyst
        # that is not restored can give the baths a negative margin, and its
        # own entropy change then covers it.  run_cycle never runs one.
        spec = catalyst_from_factors(0.5, 0.2)
        report = operator_route_cycle(spec, populations)
        assert report.clausius_margin < -CLAUSIUS_TOL
        assert report.catalyst_residual > 1e-3
        # The bound the cycle obeys: von Neumann entropies of the catalyst
        # marginal before and after the stroke.
        rho0 = build_initial_state(spec, populations)
        swap = permutation_matrix(spec)
        rho1 = DensityMatrix(spec.layout, swap @ rho0.matrix @ swap.conj().T)

        def entropy(rho):
            vals = np.linalg.eigvalsh(partial_trace(rho, keep=(0,)).matrix)
            vals = vals[vals > 1e-15]
            return float(-np.sum(vals * np.log(vals)))

        assert report.clausius_margin + entropy(rho1) - entropy(rho0) >= 0.0

    def test_a_second_law_refusal_is_named_by_its_spec(self, monkeypatch):
        # One stack: the margins fall with eta, so the specs past the median
        # margin are the ones refused, the first of them named.
        specs = [spec for spec in golden_specs() if spec.catalyst_dim == 2]
        margins = [run_cycle(spec).clausius_margin for spec in specs]
        floor = float(np.median(margins))
        first = next(k for k, margin in enumerate(margins) if margin < floor)
        assert 0 < first < len(specs) - 1
        monkeypatch.setattr(discrete, "CLAUSIUS_TOL", -floor)
        with pytest.raises(AssertionError) as caught:
            list(mapping.rows(specs, "discrete"))
        assert caught.value.index == first
        assert str(caught.value) == f"second-law margin is negative: {margins[first]!r}"


def test_a_heat_mismatch_prints_plain_floats(monkeypatch):
    monkeypatch.setattr(discrete, "HEAT_CROSS_CHECK_TOL", -1.0)  # every cycle mismatches
    number = r"[-+.e\d]+"  # a float's repr, not np.float64(...)
    with pytest.raises(AssertionError, match=(
        f"^hot heat mismatch: level-energy sum {number} vs pairwise form {number}$"
    )):
        run_cycle(catalyst_from_factors(0.5, 0.2))
