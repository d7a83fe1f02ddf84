"""Tests for bath parameters and engine specifications."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ottocat import discrete
from ottocat.engine_spec import (
    FAMILIES,
    BathParams,
    EngineSpec,
    PairEnergetics,
    SwapPair,
    energy_differences,
    hamiltonians,
    ladder_spec,
    level_table,
    pair_sums,
    pair_table,
    verdict,
)

betas = st.floats(min_value=0.01, max_value=5.0)
omegas = st.floats(min_value=0.1, max_value=3.0)
rates = st.floats(min_value=0.01, max_value=10.0)


def levels_of(flat: int) -> tuple[int, int, int]:
    """(s, h, c) of flat index 4s + 2h + c, by integer arithmetic."""
    return flat // 4, flat // 2 % 2, flat % 2


def otto_example(g: float = 1.0) -> EngineSpec:
    return ladder_spec(
        1, BathParams(beta=0.2, omega=1.0, gamma_plus=math.exp(-0.2), gamma_minus=1.0),
        BathParams(beta=1.0, omega=0.6, gamma_plus=math.exp(-0.6), gamma_minus=1.0),
        g=g,
    )


def catalyst_example(g: float = 1.0) -> EngineSpec:
    return ladder_spec(
        2, BathParams(beta=0.2, omega=1.0, gamma_plus=math.exp(-0.2), gamma_minus=1.0),
        BathParams(beta=1.0, omega=1.2, gamma_plus=math.exp(-1.2), gamma_minus=1.0),
        g=g,
    )


class TestBathParams:
    @given(beta=betas, omega=omegas, gamma_minus=rates)
    def test_from_damping_satisfies_detailed_balance(self, beta, omega, gamma_minus):
        bath = BathParams.from_damping(beta, omega, gamma_minus)
        assert math.isclose(
            bath.gamma_plus / bath.gamma_minus, math.exp(-beta * omega), rel_tol=1e-12
        )
        assert math.isclose(bath.gibbs_factor, math.exp(-beta * omega), rel_tol=1e-12)

    @given(beta=betas, omega=omegas, tau_eq=st.floats(min_value=0.05, max_value=20.0))
    def test_from_relaxation_time_round_trips(self, beta, omega, tau_eq):
        bath = BathParams.from_relaxation_time(beta, omega, tau_eq)
        assert math.isclose(bath.tau_eq, tau_eq, rel_tol=1e-12)
        assert math.isclose(bath.big_gamma, 1.0 / tau_eq, rel_tol=1e-12)
        assert math.isclose(
            bath.tau_eq, 2.0 / (bath.gamma_plus + bath.gamma_minus), rel_tol=1e-12
        )

    def test_rejects_detailed_balance_violations(self):
        with pytest.raises(ValueError, match="detailed balance"):
            BathParams(beta=1.0, omega=1.0, gamma_plus=0.9, gamma_minus=1.0)

    def test_rejects_unphysical_parameters(self):
        with pytest.raises(ValueError):
            BathParams.from_damping(beta=-1.0, omega=1.0, gamma_minus=1.0)
        with pytest.raises(ValueError):
            BathParams.from_damping(beta=1.0, omega=0.0, gamma_minus=1.0)
        with pytest.raises(ValueError):
            BathParams.from_relaxation_time(beta=1.0, omega=1.0, tau_eq=0.0)


class TestSwapPair:
    def test_rejects_self_swaps_and_bad_couplings(self):
        with pytest.raises(ValueError):
            SwapPair(u=2, d=2, g=1.0)
        with pytest.raises(ValueError):
            SwapPair(u=2, d=1, g=0.0)
        with pytest.raises(ValueError):
            SwapPair(u=2, d=1, g=-1.0)

    def test_indices_must_be_integers_and_are_stored_as_ints(self):
        # 2.5 passes the range checks, so only the type can refuse it: the
        # two-stroke picture would truncate it to 2, the continuous one fail.
        for u, d, field in ((2.5, 1, "u"), (2, 1.0, "d"), ("2", 1, "u"), (None, 1, "u")):
            with pytest.raises(ValueError, match=f"^swap index {field} must be an integer"):
                SwapPair(u, d, 1.0)
        pair = SwapPair(np.int64(2), np.int64(1), 1.0)
        assert pair == SwapPair(2, 1, 1.0)
        assert type(pair.u) is int and type(pair.d) is int


class TestEngineShapes:
    def test_otto_layout_is_two_bath_qubits_with_trivial_catalyst(self):
        spec = otto_example()
        assert spec.catalyst_dim == 1
        assert spec.layout == (1, 2, 2)
        assert spec.dim == 4
        assert spec.swaps == (SwapPair(u=2, d=1, g=1.0),)

    def test_catalyst_layout_is_three_qubits_with_two_swaps(self):
        spec = catalyst_example()
        assert spec.catalyst_dim == 2
        assert spec.layout == (2, 2, 2)
        assert spec.dim == 8
        assert spec.swaps == (SwapPair(u=4, d=2, g=1.0), SwapPair(u=1, d=6, g=1.0))

    @pytest.mark.parametrize(
        "d, pairs",
        [
            (1, ((2, 1),)),
            (2, ((4, 2), (1, 6))),
            (3, ((4, 2), (8, 6), (1, 10))),
            (4, ((4, 2), (8, 6), (12, 10), (1, 14))),
            (5, ((4, 2), (8, 6), (12, 10), (16, 14), (1, 18))),
            (6, ((4, 2), (8, 6), (12, 10), (16, 14), (20, 18), (1, 22))),
        ],
    )
    def test_ladder_pairs_climb_the_catalyst_and_close_on_the_cold_qubit(self, d, pairs):
        hot, cold = otto_example().hot, otto_example().cold
        spec = ladder_spec(d, hot, cold, 0.7)
        assert spec == EngineSpec(d, hot, cold, tuple(SwapPair(u, v, 0.7) for u, v in pairs))
        assert spec.catalyst_dim == d and spec.layout == (d, 2, 2)
        assert tuple((pair.u, pair.d) for pair in spec.swaps) == pairs
        assert {pair.g for pair in spec.swaps} == {0.7}

    def test_the_built_in_kinds_are_the_first_two_ladders(self):
        assert FAMILIES == {"otto": 1, "qubit_catalyst": 2}

    def test_catalyst_dim_must_be_an_integer_and_is_stored_as_an_int(self):
        spec = catalyst_example()
        for bad in (2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="^catalyst_dim must be an integer"):
                EngineSpec(bad, spec.hot, spec.cold, spec.swaps)
        built = EngineSpec(np.int64(2), spec.hot, spec.cold, spec.swaps)
        assert built == spec and type(built.catalyst_dim) is int
        assert discrete.run_cycle(built) == discrete.run_cycle(spec)

    def test_ladder_spec_refuses_a_bad_catalyst_dim_before_any_pair(self):
        spec = catalyst_example()
        for bad, message in ((2.5, "catalyst_dim must be an integer, got 2.5"),
                             ("2", "catalyst_dim must be an integer, got '2'"),
                             (0, "catalyst_dim must be >= 1, got 0"),
                             (-1, "catalyst_dim must be >= 1, got -1")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ladder_spec(bad, spec.hot, spec.cold, 1.0)
        built = ladder_spec(np.int64(2), spec.hot, spec.cold, 1.0)
        assert built == spec and type(built.catalyst_dim) is int

    def test_construction_refuses_out_of_range_swap_levels(self):
        spec = otto_example()
        with pytest.raises(ValueError, match="^swap 0: index 7 out of range for dimension 4$"):
            with_swaps(spec, (SwapPair(u=7, d=1, g=1.0),))

    def test_construction_refuses_overlapping_swap_pairs(self):
        spec = catalyst_example()
        with pytest.raises(ValueError, match="^swap 1: index 4 appears in more than one pair$"):
            with_swaps(spec, (SwapPair(u=4, d=2, g=1.0), SwapPair(u=4, d=6, g=1.0)))

    def test_every_range_fault_is_named_before_any_overlap(self):
        # Swap 1 reuses index 2 before it reaches the out-of-range index 7.
        with pytest.raises(ValueError, match="^swap 1: index 7 out of range for dimension 4$"):
            with_swaps(otto_example(), (SwapPair(2, 1, 1.0), SwapPair(2, 7, 1.0)))

    def test_construction_refuses_a_catalyst_level_no_pair_can_touch_before_any_table(self):
        # Each pair touches at most two catalyst levels; a billion-level
        # catalyst would not fit in memory, so no table may be built for it.
        spec = catalyst_example()
        level_table.cache_clear()
        for d in (5, 10**9):
            with pytest.raises(ValueError, match=(
                f"^catalyst_dim {d} exceeds the 4 catalyst levels that 2 swap pair\\(s\\) "
                "can touch$"
            )):
                EngineSpec(catalyst_dim=d, hot=spec.hot, cold=spec.cold, swaps=spec.swaps)
        assert level_table.cache_info().currsize == 0
        # Levels 2 and 3 unreached: the solvers refuse it.
        EngineSpec(catalyst_dim=4, hot=spec.hot, cold=spec.cold, swaps=spec.swaps)


class TestEnergetics:
    def test_otto_pair_exchanges_one_hot_for_one_cold_quantum(self):
        spec = otto_example()
        pair = energy_differences(spec, 0)
        # u = |10> and d = |01>: up gains a hot quantum and drops a cold one
        assert pair.d_eps_h == pytest.approx(spec.hot.omega)
        assert pair.d_eps_c == pytest.approx(-spec.cold.omega)
        assert pair.omega_i == pytest.approx(spec.hot.omega - spec.cold.omega)

    def test_catalyst_pairs_share_the_hot_gap(self):
        spec = catalyst_example()
        first = energy_differences(spec, 0)
        second = energy_differences(spec, 1)
        # both swaps de-excite the hot qubit; only the second touches the cold one
        assert first.d_eps_h == pytest.approx(-spec.hot.omega)
        assert second.d_eps_h == pytest.approx(-spec.hot.omega)
        assert first.d_eps_c == pytest.approx(0.0)
        assert second.d_eps_c == pytest.approx(spec.cold.omega)
        assert first.omega_i + second.omega_i == pytest.approx(
            -2.0 * spec.hot.omega + spec.cold.omega
        )

    def test_pair_index_out_of_range(self):
        with pytest.raises(IndexError):
            energy_differences(otto_example(), 1)
        with pytest.raises(IndexError):
            energy_differences(otto_example(), -1)

    def test_each_spec_builds_its_pair_energetics_once(self):
        spec = catalyst_example()
        first = [energy_differences(spec, i) for i in range(2)]
        assert [energy_differences(spec, i) for i in range(2)] == first
        # The bits of the per-call formula eps_u - eps_d, factor by factor.
        for pair, en in zip(spec.swaps, first):
            _, h_u, c_u = levels_of(pair.u)
            _, h_d, c_d = levels_of(pair.d)
            assert en.d_eps_h == spec.hot.omega * h_u - spec.hot.omega * h_d
            assert en.d_eps_c == spec.cold.omega * c_u - spec.cold.omega * c_d

    def test_hamiltonians_are_diagonal_number_operators(self):
        spec = catalyst_example()
        h_hot, h_cold = hamiltonians(spec)
        for flat in range(spec.dim):
            _, n_h, n_c = levels_of(flat)
            assert h_hot[flat, flat] == pytest.approx(spec.hot.omega * n_h)
            assert h_cold[flat, flat] == pytest.approx(spec.cold.omega * n_c)
        assert np.count_nonzero(h_hot - np.diag(np.diag(h_hot))) == 0


def otto_at(beta_h: float, beta_c: float) -> EngineSpec:
    return ladder_spec(1, BathParams.from_damping(beta_h, 1.0, 1.0),
                       BathParams.from_damping(beta_c, 0.5, 1.0), 1.0)


class TestVerdict:
    """The one judge of both pictures' energetics, on a stack of specs."""

    def test_sign_table(self):
        # (Q_h, Q_c) with W = Q_h + Q_c, as a cycle reports them.
        table = [
            ((2.0, -1.5), 0.25, "engine"),
            ((0.0, 0.0), None, "non_engine"),
            ((-0.0, 1.0), None, "non_engine"),  # -0.0 == 0.0: no ratio either
            ((-2.0, 2.5), -0.25, "non_engine"),  # W > 0 with Q_h < 0
            ((-2.0, 1.5), 0.25, "non_engine"),  # a refrigerator: W < 0, Q_h < 0, Q_c > 0
            ((2.0, -2.5), -0.25, "non_engine"),  # W < 0 with Q_h > 0
        ]
        hot, cold = np.array([heats for heats, _, _ in table]).T
        margin, efficiency, regime = verdict([otto_at(0.2, 1.0)] * len(table), hot, cold,
                                             hot + cold)
        assert efficiency == [eta for _, eta, _ in table]
        assert regime == [kind for _, _, kind in table]
        assert margin.tolist() == [-(0.2 * q_h + 1.0 * q_c) for (q_h, q_c), _, _ in table]

    def test_the_margin_keeps_the_sign_of_a_zero_beta(self):
        # mapping._machine keys a cycle by the bits of its betas, since a
        # beta of -0.0 turns the sign of a zero margin.
        ones = np.ones(2)
        margin, _, _ = verdict([otto_at(0.0, 0.0), otto_at(-0.0, -0.0)], ones, ones, 2 * ones)
        assert [math.copysign(1.0, m) for m in margin.tolist()] == [-1.0, 1.0]


class TestLevelTable:
    @pytest.mark.parametrize("catalyst_dim", [1, 2, 3, 4, 5, 6])
    def test_table_equals_the_factor_indices(self, catalyst_dim):
        table = level_table((catalyst_dim, 2, 2))
        assert len(table.catalyst) == 4 * catalyst_dim
        for flat in range(4 * catalyst_dim):
            s, h, c = levels_of(flat)
            assert (table.catalyst[flat], table.hot[flat], table.cold[flat]) == (s, h, c)
            assert table.incidence[:, flat].tolist() == [
                float(m == s) for m in range(catalyst_dim)
            ]
        for array in table:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_catalyst_weights_follow_each_pair_across_levels(self):
        spec = catalyst_example()
        level = [(levels_of(p.u)[0], levels_of(p.d)[0]) for p in spec.swaps]
        expected = tuple(
            tuple(float(s_u == m) - float(s_d == m) for s_u, s_d in level)
            for m in range(spec.catalyst_dim)
        )
        weights = pair_table(*spec.structure).catalyst_weights
        assert weights == expected == ((-1.0, 1.0), (1.0, -1.0))

    def test_layout_without_a_catalyst_factor_is_rejected(self):
        with pytest.raises(ValueError, match="catalyst, hot, cold"):
            level_table((2, 2))


@st.composite
def structures(draw) -> EngineSpec:
    """A spec with catalyst dimension 1 to 4 and random disjoint swap pairs,
    enough of them to reach every catalyst level."""
    catalyst_dim = draw(st.integers(min_value=1, max_value=4))
    dim = 4 * catalyst_dim
    indices = draw(st.permutations(range(dim)))
    n_pairs = draw(st.integers(min_value=(catalyst_dim + 1) // 2, max_value=dim // 2))
    swaps = tuple(SwapPair(indices[2 * i], indices[2 * i + 1], 1.0) for i in range(n_pairs))
    hot = BathParams.from_relaxation_time(0.3, draw(omegas), 1.0)
    cold = BathParams.from_relaxation_time(2.0, draw(omegas), 1.0)
    return EngineSpec(catalyst_dim=catalyst_dim, hot=hot, cold=cold, swaps=swaps)


def permutation(spec: EngineSpec) -> np.ndarray:
    """The work stroke's index map n -> perm[n], read off its unitary."""
    return discrete.permutation_matrix(spec).real.argmax(axis=0)


def with_swaps(spec: EngineSpec, swaps: tuple[SwapPair, ...]) -> EngineSpec:
    return EngineSpec(catalyst_dim=spec.catalyst_dim, hot=spec.hot, cold=spec.cold, swaps=swaps)


class TestPairTable:
    """The per-structure tables against a derivation from the factor indices."""

    @given(spec=structures())
    def test_table_reads_equal_the_factor_indices(self, spec):
        levels = [(levels_of(pair.u), levels_of(pair.d)) for pair in spec.swaps]
        for _ in range(2):
            for i, ((_, h_u, c_u), (_, h_d, c_d)) in enumerate(levels):
                assert energy_differences(spec, i) == PairEnergetics(
                    d_eps_h=spec.hot.omega * h_u - spec.hot.omega * h_d,
                    d_eps_c=spec.cold.omega * c_u - spec.cold.omega * c_d,
                )
            assert pair_table(*spec.structure).catalyst_weights == tuple(
                tuple(float(s_u == m) - float(s_d == m) for (s_u, *_), (s_d, *_) in levels)
                for m in range(spec.catalyst_dim)
            )
            perm = list(range(spec.dim))
            for pair in spec.swaps:
                perm[pair.u], perm[pair.d] = pair.d, pair.u
            assert permutation(spec).tolist() == perm

    @given(spec=structures())
    def test_pair_levels_are_the_level_table_at_u_and_d(self, spec):
        table, levels = pair_table(*spec.structure), level_table(spec.layout)
        for rows, flats in ((table.levels_u, table.u), (table.levels_d, table.d)):
            assert rows == tuple(
                (levels.catalyst[n], levels.hot[n], levels.cold[n]) for n in flats
            )
            assert rows == tuple(map(levels_of, flats.tolist()))
            assert all(type(level) is int for row in rows for level in row)

    @given(spec=structures())
    def test_tables_are_read_only(self, spec):
        table = pair_table(*spec.structure)
        assert table is pair_table(*with_swaps(spec, spec.swaps).structure)
        assert permutation(spec).tolist() == table.perm.tolist()
        for array in (table.u, table.d, table.perm):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert all(type(weights) is tuple for weights in table.catalyst_weights)

    @given(spec=structures(), data=st.data())
    def test_pair_sums_equal_the_per_pair_loops(self, spec, data):
        n_pairs = len(spec.swaps)
        values = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n_pairs, max_size=n_pairs))
        transfers = np.array(values)
        hot = cold = omega = 0.0
        for i in range(n_pairs):
            en = energy_differences(spec, i)
            hot += en.d_eps_h * transfers[i]
            cold += en.d_eps_c * transfers[i]
            omega += en.omega_i * transfers[i]
        catalyst = []
        for weights in pair_table(*spec.structure).catalyst_weights:
            net = 0.0
            for i, weight in enumerate(weights):
                net += weight * transfers[i]
            catalyst.append(net)
        expected = (hot, cold, omega, *catalyst)
        got = pair_sums([spec], transfers[:, None])  # a stack of one
        assert len(got[3]) == spec.catalyst_dim
        got = tuple(x[0] for x in (*got[:3], *got[3]))
        assert got == expected
        assert list(map(type, got)) == list(map(type, expected))

    @given(spec=structures(), data=st.data())
    def test_invalid_pairs_raise_on_every_call(self, spec, data):
        dim, n_pairs = spec.dim, len(spec.swaps)
        used = [p.u for p in spec.swaps] + [p.d for p in spec.swaps]
        taken = data.draw(st.sampled_from(used))
        outside = data.draw(st.integers(min_value=dim, max_value=dim + 8) | st.integers(-8, -1))
        free = data.draw(st.integers(min_value=0, max_value=dim - 1).filter(lambda n: n != taken))
        reused = free if free in used else taken
        for extra, message in (
            (SwapPair(free, taken, 1.0), f"swap {n_pairs}: index {reused} appears in more than "
             "one pair"),
            (SwapPair(outside, free, 1.0), f"swap {n_pairs}: index {outside} out of range for "
             f"dimension {dim}"),
        ):
            swaps = spec.swaps + (extra,)
            pairs = tuple((pair.u, pair.d) for pair in swaps)
            for _ in range(2):
                for route in (lambda: with_swaps(spec, swaps),
                              lambda: pair_table(spec.layout, pairs)):
                    with pytest.raises(ValueError, match=f"^{message}$"):
                        route()
