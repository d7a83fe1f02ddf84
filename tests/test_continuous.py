"""Tests for the autonomous picture: Lindblad generator and steady state."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottocat import analytic, cli, continuous, verify
from ottocat.continuous import (
    Superoperator,
    build_dissipator,
    build_interaction,
    build_liouvillian,
    currents_and_power,
    entropy_production_rate,
    ness_condition_checks,
    probability_currents,
    stationary_state,
    steady_state_report,
)
from ottocat.engine_spec import (
    BathParams,
    EngineSpec,
    SwapPair,
    energy_differences,
    hamiltonians,
    ladder_spec,
    level_table,
    pair_table,
)
from ottocat.qstate import (
    DensityMatrix,
    HilbertLayout,
    Operator,
    expectation,
    gibbs_qubit,
    tensor_all,
)
from ottocat.verify import sample_grid
from spec_helpers import GOLDEN_CONFIG, bath_from_factor, golden_specs

gibbs_factors = st.floats(min_value=0.05, max_value=0.95)


def otto_from_factors(a_h: float, a_c: float, omega_c: float = 0.6, g: float = 1.0):
    return ladder_spec(
        1, bath_from_factor(a_h), bath_from_factor(a_c, omega=omega_c), g=g
    )


def catalyst_from_factors(a_h: float, a_c: float, omega_c: float = 1.2, g: float = 1.0):
    return ladder_spec(
        2, bath_from_factor(a_h), bath_from_factor(a_c, omega=omega_c), g=g
    )


def random_operator(layout: HilbertLayout, seed: int) -> Operator:
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = layout.total_dim
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator(layout, raw)


def dissipators_only(spec) -> Superoperator:
    """D_h + D_c with the coherent swap switched off."""
    hot = build_dissipator(spec.hot, "hot", spec.layout)
    cold = build_dissipator(spec.cold, "cold", spec.layout)
    return Superoperator(spec.layout, hot.matrix + cold.matrix)


class TestGeneratorStructure:
    def test_interaction_couples_exactly_the_swap_levels(self):
        spec = catalyst_from_factors(0.5, 0.2, g=1.3)
        v = build_interaction(spec).entries
        assert np.allclose(v, v.conj().T)
        nonzero = {(i, j) for i, j in zip(*np.nonzero(v))}
        expected = set()
        for pair in spec.swaps:
            expected |= {(pair.u, pair.d), (pair.d, pair.u)}
            assert v[pair.u, pair.d] == pytest.approx(1.3)
        assert nonzero == expected

    def test_generator_annihilates_trace(self):
        for spec in (otto_from_factors(0.5, 0.25), catalyst_from_factors(0.5, 0.2)):
            lv = build_liouvillian(spec)
            identity = Operator(spec.layout, np.eye(spec.dim, dtype=complex))
            assert np.abs(lv.adjoint().apply(identity).entries).max() <= 1e-12

    def test_generator_preserves_hermiticity(self):
        spec = catalyst_from_factors(0.5, 0.2)
        lv = build_liouvillian(spec)
        x = random_operator(spec.layout, seed=5)
        lhs = lv.apply(x.dagger()).entries
        rhs = lv.apply(x).dagger().entries
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_each_dissipator_fixes_its_own_gibbs_state(self):
        spec = catalyst_from_factors(0.5, 0.2)
        cat = Operator(HilbertLayout((2,)), np.diag([0.7, 0.3]).astype(complex))
        hot = gibbs_qubit(spec.hot.beta, spec.hot.omega)
        cold = gibbs_qubit(spec.cold.beta, spec.cold.omega)
        product = tensor_all([
            cat,
            Operator(hot.layout, hot.matrix),
            Operator(cold.layout, cold.matrix),
        ])
        for which, bath in (("hot", spec.hot), ("cold", spec.cold)):
            diss = build_dissipator(bath, which, spec.layout)
            assert np.abs(diss.apply(product).entries).max() <= 1e-14

    def test_hot_dissipator_is_blind_to_the_cold_hamiltonian(self):
        spec = catalyst_from_factors(0.5, 0.2)
        h_hot, h_cold = hamiltonians(spec)
        d_hot = build_dissipator(spec.hot, "hot", spec.layout).adjoint()
        d_cold = build_dissipator(spec.cold, "cold", spec.layout).adjoint()
        assert np.abs(d_hot.apply(h_cold).entries).max() <= 1e-14
        assert np.abs(d_cold.apply(h_hot).entries).max() <= 1e-14

    def test_dissipator_rejects_unknown_qubit_selector(self):
        spec = otto_from_factors(0.5, 0.25)
        with pytest.raises(ValueError):
            build_dissipator(spec.hot, "warm", spec.layout)


class TestStationaryState:
    def test_coupled_engine_has_a_unique_steady_state(self):
        spec = catalyst_from_factors(0.5, 0.2)
        rho_ss, gap = stationary_state(build_liouvillian(spec))
        rho_ss.validate()
        assert gap > 0.0
        lv = build_liouvillian(spec)
        residual = np.abs(lv.apply(Operator(spec.layout, rho_ss.matrix)).entries).max()
        assert residual <= 1e-12

    def test_dissipators_alone_relax_to_the_gibbs_product(self):
        spec = otto_from_factors(0.5, 0.25)
        diss_only = dissipators_only(spec)
        rho_ss, gap = stationary_state(diss_only)
        hot = gibbs_qubit(spec.hot.beta, spec.hot.omega)
        cold = gibbs_qubit(spec.cold.beta, spec.cold.omega)
        expected = tensor_all([
            Operator(HilbertLayout((1,)), np.eye(1, dtype=complex)),
            Operator(hot.layout, hot.matrix),
            Operator(cold.layout, cold.matrix),
        ])
        np.testing.assert_allclose(rho_ss.matrix, expected.entries, atol=1e-12)
        assert gap == pytest.approx(min(spec.hot.big_gamma, spec.cold.big_gamma), rel=1e-9)

    def test_decoupled_catalyst_makes_the_generator_non_ergodic(self):
        spec = catalyst_from_factors(0.5, 0.2)
        diss_only = dissipators_only(spec)
        with pytest.raises(ValueError, match="non-ergodic"):
            stationary_state(diss_only)


class TestCurrentsAndPower:
    def test_otto_current_matches_the_closed_form(self):
        spec = otto_from_factors(0.5, 0.25, g=1.0)
        report = steady_state_report(spec)
        expected = analytic.otto_current(
            spec.hot.big_gamma, spec.cold.big_gamma, 1.0,
            analytic.otto_delta_p(0.5, 0.25),
        )
        assert report.currents[0] == pytest.approx(expected, rel=1e-12)

    def test_catalytic_pair_currents_are_equal(self):
        report = steady_state_report(catalyst_from_factors(0.5, 0.2))
        assert report.currents[0] == pytest.approx(report.currents[1], abs=1e-14)

    def test_heat_currents_scale_with_level_splittings(self):
        spec = catalyst_from_factors(0.9, 0.2)
        report = steady_state_report(spec)
        n_dot = sum(report.currents) / 2.0
        assert report.j_hot == pytest.approx(-2.0 * spec.hot.omega * n_dot, rel=1e-12)
        assert report.j_cold == pytest.approx(spec.cold.omega * n_dot, rel=1e-12)
        assert report.power == pytest.approx(report.j_hot + report.j_cold, rel=1e-12)

    def test_engine_efficiency_is_set_by_the_frequency_ratio(self):
        spec = catalyst_from_factors(0.9, 0.2, omega_c=1.2)
        report = steady_state_report(spec)
        assert report.regime == "engine"
        assert report.efficiency == pytest.approx(1.0 - 1.2 / 2.0, rel=1e-12)

    def test_efficiency_is_invariant_across_coupling_and_rates(self):
        values = []
        for g in (0.3, 1.0, 3.0):
            for tau in (0.5, 2.0):
                spec = ladder_spec(
                    2,
                    bath_from_factor(0.9, tau_eq=tau),
                    bath_from_factor(0.2, omega=1.2, tau_eq=2.0 * tau),
                    g=g,
                )
                values.append(steady_state_report(spec).efficiency)
        assert max(values) - min(values) <= 1e-12

    def test_currents_are_real_at_the_steady_state(self):
        spec = catalyst_from_factors(0.5, 0.2)
        rho_ss, _ = stationary_state(build_liouvillian(spec))
        flows = probability_currents(spec, rho_ss)
        assert flows.dtype == np.float64

    def test_reversed_bias_is_not_an_engine(self):
        report = steady_state_report(otto_from_factors(0.3, 0.6, omega_c=0.6))
        assert report.regime == "non_engine"
        assert report.j_hot < 0.0


class TestSteadyStateConditions:
    def test_condition_bundle_is_small_at_the_steady_state(self):
        spec = catalyst_from_factors(0.5, 0.2)
        rho_ss, _ = stationary_state(build_liouvillian(spec))
        checks = ness_condition_checks(spec, rho_ss)
        assert checks["liouvillian_residual"] <= 1e-12
        assert max(checks["int_vanish"]) <= 1e-13
        assert max(abs(x) for x in checks["catalyst_flow"]) <= 1e-13
        assert checks["clausius_margin"] >= -1e-12

    @given(a_h=gibbs_factors, a_c=gibbs_factors)
    @settings(max_examples=25, deadline=None)
    def test_entropy_production_is_nonnegative(self, a_h, a_c):
        spec = catalyst_from_factors(a_h, a_c)
        rho_ss, _ = stationary_state(build_liouvillian(spec))
        assert entropy_production_rate(spec, rho_ss) >= -1e-10

    def test_entropy_production_matches_the_clausius_margin_at_steady_state(self):
        # with <adj D_k>[V] = 0 the rate reduces to -sum_k beta_k J_k
        spec = catalyst_from_factors(0.9, 0.2)
        report = steady_state_report(spec)
        sigma = entropy_production_rate(spec, report.rho_ss)
        assert sigma == pytest.approx(report.clausius_margin, rel=1e-10)


class TestReportInvariants:
    def test_first_law_and_audit_residuals_are_machine_small(self):
        report = steady_state_report(catalyst_from_factors(0.9, 0.2))
        assert report.first_law_residual <= 1e-14
        assert max(report.int_vanish_residuals) <= 1e-13
        assert max(abs(x) for x in report.catalysis_residuals) <= 1e-13

    def test_spectral_gap_is_reported(self):
        report = steady_state_report(otto_from_factors(0.5, 0.25))
        assert report.spectral_gap > 0.0


def spec_with_catalyst(catalyst_dim: int) -> EngineSpec:
    """A valid spec on the (catalyst_dim, 2, 2) layout with unequal couplings."""
    swaps = {
        1: ((2, 1, 0.7),),
        2: ((4, 2, 0.7), (1, 6, 1.9)),
        3: ((4, 2, 0.7), (1, 6, 1.9), (8, 7, 0.4)),
    }[catalyst_dim]
    return EngineSpec(
        catalyst_dim=catalyst_dim,
        hot=bath_from_factor(0.6, tau_eq=0.8),
        cold=bath_from_factor(0.3, omega=1.3, tau_eq=2.5),
        swaps=tuple(SwapPair(u, d, g) for u, d, g in swaps),
    )


def kron_dissipator(bath: BathParams, which: str, catalyst_dim: int) -> np.ndarray:
    """The local dissipator built from scratch with np.kron."""
    eye_2 = np.eye(2, dtype=complex)
    eye_cat = np.eye(catalyst_dim, dtype=complex)
    raise_2 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

    def lifted(op):
        factors = (eye_cat, op, eye_2) if which == "hot" else (eye_cat, eye_2, op)
        return np.kron(np.kron(factors[0], factors[1]), factors[2])

    def jump(op):
        eye = np.eye(op.shape[0], dtype=complex)
        ldl = op.conj().T @ op
        return np.kron(op.conj(), op) - 0.5 * np.kron(eye, ldl) - 0.5 * np.kron(ldl.T, eye)

    return bath.gamma_plus * jump(lifted(raise_2)) + bath.gamma_minus * jump(
        lifted(raise_2.conj().T)
    )


#: Spec families of the assembly oracle; "1" to "3" are spec_with_catalyst.
#: Lambdas, because the builders are defined further down.
ASSEMBLY_FAMILIES = {
    **{str(d): (lambda d=d: [spec_with_catalyst(d)]) for d in (1, 2, 3)},
    "golden": lambda: golden_specs(),
    "verify-grids": lambda: certificate_specs(),
    "ladder-4": lambda: [
        ladder_spec(4, bath_from_factor(a), bath_from_factor(b, omega=2.0), 1.0)
        for a, b in ((0.7, 0.3), (0.3, 0.7))
    ],
}


class TestCachedGeneratorPieces:
    @pytest.mark.parametrize("catalyst_dim", [1, 2, 3])
    @pytest.mark.parametrize("which", ["hot", "cold"])
    def test_dissipator_equals_the_kron_construction(self, catalyst_dim, which):
        spec = spec_with_catalyst(catalyst_dim)
        bath = spec.hot if which == "hot" else spec.cold
        for _ in range(2):
            built = build_dissipator(bath, which, spec.layout).matrix
            assert np.array_equal(built, kron_dissipator(bath, which, catalyst_dim))

    @pytest.mark.parametrize("family", list(ASSEMBLY_FAMILIES))
    def test_liouvillian_equals_the_kron_construction(self, family):
        for spec in ASSEMBLY_FAMILIES[family]():
            v0 = build_interaction(spec).entries
            eye = np.eye(spec.dim, dtype=complex)
            expected = (
                -1j * (np.kron(eye, v0) - np.kron(v0.T, eye))
                + kron_dissipator(spec.hot, "hot", spec.catalyst_dim)
                + kron_dissipator(spec.cold, "cold", spec.catalyst_dim)
            )
            for _ in range(2):
                assert np.array_equal(build_liouvillian(spec).matrix, expected)

    def test_cached_arrays_reject_writes(self):
        spec = spec_with_catalyst(2)
        build_liouvillian(spec)
        dims = spec.layout.factor_dims
        pieces, (positions, main, real_basis, others, gather, mirrored) = (
            continuous._generator_plan(*spec.structure)
        )
        cached = [
            *continuous._bath_jumps(dims, "hot"),
            *continuous._bath_jumps(dims, "cold"),
            pieces,
            positions,
            main,
            *real_basis,
            *(members for members, _ in others),
            gather,
            mirrored,
        ]
        for array in cached:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    def test_the_generator_matrix_is_read_only(self):
        liouv = build_liouvillian(spec_with_catalyst(2))
        with pytest.raises(ValueError, match="read-only"):
            liouv.matrix[0, 0] = 1.0

    def test_the_constructor_copies_the_callers_array(self):
        layout = HilbertLayout((1, 2, 2))
        writable = np.eye(16, dtype=complex)
        frozen = np.eye(16, dtype=complex)
        frozen.setflags(write=False)
        kept = [Superoperator(layout, writable), Superoperator(layout, frozen)]
        frozen.setflags(write=True)  # the owner may turn writing back on
        for mat in (writable, frozen):
            mat[0, 0] = 5.0
        for sup in kept:
            assert np.array_equal(sup.matrix, np.eye(16))
            assert not sup.matrix.flags.writeable

    def test_layout_without_a_catalyst_factor_is_rejected_on_every_call(self):
        bath = bath_from_factor(0.5)
        for _ in range(2):
            with pytest.raises(ValueError, match="catalyst, 2, 2"):
                build_dissipator(bath, "hot", HilbertLayout((2, 2)))

    @pytest.mark.parametrize("make", [otto_from_factors, catalyst_from_factors])
    def test_energy_differences_equal_the_hamiltonian_diagonals(self, make):
        spec = make(0.5, 0.2)
        h0h, h0c = hamiltonians(spec)
        for i, pair in enumerate(spec.swaps):
            en = energy_differences(spec, i)
            assert en.d_eps_h == (h0h.entries[pair.u, pair.u] - h0h.entries[pair.d, pair.d]).real
            assert en.d_eps_c == (h0c.entries[pair.u, pair.u] - h0c.entries[pair.d, pair.d]).real


def kernel_mask(eigvals: np.ndarray) -> np.ndarray:
    """The stationary eigenvalues under the rule stationary_state applies."""
    return np.abs(eigvals.real) <= continuous.KERNEL_TOL * np.max(np.abs(eigvals))


def dense_certificate(mat: np.ndarray, dim: int) -> tuple[int, float, np.ndarray]:
    """(kernel count, gap, kernel state) from one eig of the whole generator."""
    eigvals, eigvecs = np.linalg.eig(mat)
    zero = kernel_mask(eigvals)
    rho = continuous._normalize_state(eigvecs[:, zero][:, 0].reshape((dim, dim), order="F"))
    return int(np.count_nonzero(zero)), float(-np.max(eigvals[~zero].real)), rho


def pattern_blocks(mat: np.ndarray) -> tuple:
    """The :func:`continuous._kernel_blocks` of a generator's own pattern."""
    return continuous._kernel_blocks(mat != 0)


def same_arrays(a, b) -> bool:
    """Whether two nests of tuples hold equal arrays at equal places."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same_arrays, a, b))
    return np.array_equal(a, b)


def block_spectrum(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block-by-block spectrum of one generator, a stack of one:
    ``(eigvals, main, main_vecs)``."""
    blocks = pattern_blocks(mat)
    padded = np.append(mat[mat != 0], 0.0)
    eigvals, main_vecs = continuous._block_spectrum(padded[None], blocks)
    return eigvals[0], blocks[1], main_vecs[0]


def block_certificate(mat: np.ndarray, dim: int) -> tuple[int, float, np.ndarray]:
    """The same three quantities from the block-by-block spectrum."""
    eigvals, main, main_vecs = block_spectrum(mat)
    zero = kernel_mask(eigvals)
    kernel = np.zeros(dim * dim, dtype=complex)
    kernel[main] = main_vecs[:, zero[: len(main)]][:, 0]
    rho = continuous._normalize_state(kernel.reshape((dim, dim), order="F"))
    return int(np.count_nonzero(zero)), float(-np.max(eigvals[~zero].real)), rho


def certificate_specs() -> list[EngineSpec]:
    """Both engines on the verify grids of seeds 1-3, plus a g*tau_eq sweep."""
    specs = []
    for seed in (1, 2, 3):
        for point in sample_grid(np.random.Generator(np.random.PCG64(seed)), 100):
            specs += point.specs
    hot = BathParams.from_relaxation_time(0.2, 1.0, 1.0)
    for g_tau in np.logspace(-2, 3, 21):
        cold = BathParams.from_relaxation_time(2.0, 0.45, 1.0)
        specs.append(ladder_spec(1, hot, cold, g=g_tau))
        cold = BathParams.from_relaxation_time(2.0, 0.9, 1.0)
        specs.append(ladder_spec(2, hot, cold, g=g_tau))
    return specs


class TestBlockCertificate:
    def test_blocks_agree_with_the_dense_eig(self):
        specs = certificate_specs()
        assert len(specs) >= 600
        for spec in specs:
            mat = build_liouvillian(spec).matrix
            n_dense, gap_dense, rho_dense = dense_certificate(mat, spec.dim)
            n_block, gap_block, rho_block = block_certificate(mat, spec.dim)
            assert n_block == n_dense == 1
            assert abs(gap_block - gap_dense) <= 1e-9 * gap_dense
            assert np.max(np.abs(rho_block - rho_dense)) <= continuous.SOLVER_CROSS_TOL

    @pytest.mark.parametrize(
        "make, sizes",
        [
            (otto_from_factors, [6, 4, 4, 1, 1]),
            (catalyst_from_factors, [14, 12, 12, 8, 8, 3, 3, 1, 1, 1, 1]),
        ],
    )
    def test_block_sizes_of_the_built_in_engines(self, make, sizes):
        spec = make(0.5, 0.2)
        mat = build_liouvillian(spec).matrix
        blocks = continuous._generator_plan(*spec.structure)[1]
        assert same_arrays(blocks, pattern_blocks(mat))
        _, main, _, others, _, _ = blocks
        dim = math.isqrt(mat.shape[0])
        found = [len(main)]
        covered = [main]
        for members, paired in others:
            assert paired
            for block in members:  # one group per block size
                assert len(block) == members.shape[1]
                found += [len(block)] * 2
                covered += [block, (block % dim) * dim + block // dim]  # and its mirror
        assert sorted(found, reverse=True) == sizes
        assert np.array_equal(np.sort(np.concatenate(covered)), np.arange(mat.shape[0]))

    def test_a_one_ulp_break_of_a_mirror_block_raises(self):
        liouv = build_liouvillian(catalyst_from_factors(0.5, 0.2))
        mat = liouv.matrix.copy()
        v = 1  # |1><0| of the cold qubit, in an 8 x 8 block mirrored by |0><1|'s
        assert mat[v, v].real != 0.0
        mat[v, v] = complex(np.nextafter(mat[v, v].real, 0.0), mat[v, v].imag)
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            stationary_state(Superoperator(liouv.layout, mat))

    def test_qutrit_catalyst_spec_solves(self):
        spec = spec_with_catalyst(3)
        liouv = build_liouvillian(spec)
        rho_ss, gap = stationary_state(liouv)
        n_dense, gap_dense, rho_dense = dense_certificate(liouv.matrix, spec.dim)
        assert n_dense == 1
        assert gap == pytest.approx(gap_dense, rel=1e-9)
        assert np.max(np.abs(rho_ss.matrix - rho_dense)) <= continuous.SOLVER_CROSS_TOL

    def test_dissipators_alone_have_the_same_degenerate_kernel_on_both_routes(self):
        spec = catalyst_from_factors(0.5, 0.2)
        mat = dissipators_only(spec).matrix
        # One stationary direction per catalyst operator |s><s'|.
        n_block = int(np.count_nonzero(kernel_mask(block_spectrum(mat)[0])))
        assert n_block == dense_certificate(mat, spec.dim)[0] == 4

    def test_zero_generator_raises(self):
        layout = HilbertLayout((1, 2, 2))
        with pytest.raises(ValueError, match="identically zero"):
            stationary_state(Superoperator(layout, np.zeros((16, 16))))

    def test_kernel_outside_the_ground_population_block_raises(self):
        # Not trace preserving: the only stationary direction is the
        # population |1><1| (vec index 5), which no entry links to |0><0|.
        # (A lone coherence |1><0| would break the mirror certificate.)
        mat = -np.eye(16, dtype=complex)
        mat[5, 5] = 0.0
        with pytest.raises(ValueError, match="outside the block"):
            stationary_state(Superoperator(HilbertLayout((1, 2, 2)), mat))
        mat[5, 5], mat[1, 1] = -1.0, 0.0
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            stationary_state(Superoperator(HilbertLayout((1, 2, 2)), mat))


def full_refinement_state(liouvillian: Superoperator) -> np.ndarray:
    """The bordered solve refined on the whole generator: three solves of
    the full matrix, all of it cast to extended precision."""
    mat = liouvillian.matrix
    dim = liouvillian.dim
    bordered = mat.copy()
    bordered[0, :] = 0.0
    bordered[0, :: dim + 1] = 1.0
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    solution = np.linalg.solve(bordered, rhs)
    bordered_ld = bordered.astype(np.clongdouble)
    rhs_ld = rhs.astype(np.clongdouble)
    for _ in range(2):
        residual = rhs_ld - bordered_ld @ solution.astype(np.clongdouble)
        solution = solution + np.linalg.solve(bordered, residual.astype(complex))
    return continuous._normalize_state(solution.reshape((dim, dim), order="F"))


def operator_route_audit(spec: EngineSpec, rho_ss: DensityMatrix):
    """(<D_k^+[H_0k + V0]>, <D_k^+[V0]>) per bath through Superoperator
    adjoints, Operators and ``expectation``."""
    v0 = build_interaction(spec)
    heat, interaction = [], []
    for (label, bath), h0k in zip((("hot", spec.hot), ("cold", spec.cold)), hamiltonians(spec)):
        adj = build_dissipator(bath, label, spec.layout).adjoint()
        target = Operator(spec.layout, h0k.entries + v0.entries)
        heat.append(expectation(adj.apply(target), rho_ss))
        interaction.append(float(abs(expectation(adj.apply(v0), rho_ss))))
    return tuple(heat), tuple(interaction)


def report_fields(report: continuous.SteadyStateReport) -> dict:
    return {f.name: getattr(report, f.name) for f in fields(report) if f.name != "rho_ss"}


class TestBlockRefinement:
    """Refinement on the block of |0><0| against refinement on the whole
    generator, and the matrix audit against the operator route."""

    def specs(self) -> list[EngineSpec]:
        hot = bath_from_factor(0.7)
        cold = bath_from_factor(0.3, omega=2.0)
        return [
            *certificate_specs(),
            *golden_specs(),
            ladder_spec(3, hot, cold, 1.0),
            ladder_spec(3, cold, hot, 1.0),
        ]

    @staticmethod
    def both_refinements(spec: EngineSpec):
        report = steady_state_report(spec)
        rho_full = full_refinement_state(build_liouvillian(spec))
        full = currents_and_power(
            spec, DensityMatrix(Operator(spec.layout, rho_full)), report.spectral_gap
        )
        return report, full

    def test_reports_equal_the_full_refinement_exactly(self):
        specs = self.specs()
        assert len(specs) >= 800
        for spec in specs:
            report, full = self.both_refinements(spec)
            assert np.array_equal(report.rho_ss.matrix, full.rho_ss.matrix)
            assert report_fields(full) == report_fields(report)
            heat, interaction = operator_route_audit(spec, report.rho_ss)
            exchange = continuous._exchanges([spec], report.rho_ss.matrix[None])
            assert tuple(exchange.adjoint_heat[:, 0].tolist()) == heat
            assert tuple(exchange.int_vanish[:, 0].tolist()) == interaction

    def test_round_off_coherences_may_move_in_their_last_bit(self):
        # The third pair of this qutrit spec carries no current; its
        # coherence is round-off (about 1e-18), and the two refinements
        # may round it differently.  Every other field stays bit-identical.
        report, full = self.both_refinements(spec_with_catalyst(3))
        assert np.max(np.abs(report.rho_ss.matrix - full.rho_ss.matrix)) <= 1e-30
        assert abs(report.currents[2]) <= 1e-15
        assert report.currents[:2] == full.currents[:2]
        for name in ("j_hot", "j_cold", "power", "entropy_production", "clausius_margin"):
            assert getattr(report, name) == getattr(full, name)

    def test_a_solve_that_leaves_the_block_raises(self):
        # Next to the trace row x_0 + x_5 + x_10 + x_15 = 1, the row
        # x_5 - x_0 = 0 puts one entry of the solution outside ``main``,
        # which must trip the check.
        mat = np.eye(16, dtype=complex)
        mat[5, 0] = -1.0
        positions = np.flatnonzero(mat)
        values = np.stack([np.eye(16).ravel()[positions], mat.ravel()[positions]])
        blocks = (positions, np.array([0]))
        sub = np.ones((2, 1, 1), dtype=complex)
        message = "^bordered solve is nonzero outside the block of \\|0><0\\|$"
        with pytest.raises(AssertionError, match=message):
            continuous._refined_bordered_solve(4, values, sub, blocks)


def exact_agreement_specs() -> dict[str, EngineSpec]:
    """Both built-in engines, a qutrit catalyst, and stiff points at
    g*tau_eq = 1e-2 and 1e3."""
    specs = {
        "otto": otto_from_factors(0.5, 0.2),
        "qubit_catalyst": catalyst_from_factors(0.9, 0.2),
        "qutrit_catalyst": spec_with_catalyst(3),
    }
    for g_tau in (1e-2, 1e3):
        specs[f"otto_g{g_tau:g}"] = otto_from_factors(0.5, 0.2, g=g_tau)
        specs[f"qubit_catalyst_g{g_tau:g}"] = catalyst_from_factors(0.9, 0.2, g=g_tau)
    return specs


def term_by_term_audit(spec: EngineSpec, rho_ss: DensityMatrix):
    """(int_vanish, catalyst_flow, sigma) summed bath by bath and pair by
    pair from freshly built pieces, in the operand order of the formulas."""
    currents = probability_currents(spec, rho_ss)
    v0 = build_interaction(spec)
    int_vanish = []
    sigma = 0.0
    for label, bath in (("hot", spec.hot), ("cold", spec.cold)):
        j_k = 0.0
        for i in range(len(spec.swaps)):
            en = energy_differences(spec, i)
            j_k += (en.d_eps_h if label == "hot" else en.d_eps_c) * currents[i]
        adj = build_dissipator(bath, label, spec.layout).adjoint()
        int_term = expectation(adj.apply(v0), rho_ss)
        int_vanish.append(float(abs(int_term)))
        sigma -= bath.beta * (j_k - int_term.real)
    flow = []
    for level in range(spec.catalyst_dim):
        net = 0.0
        for i, pair in enumerate(spec.swaps):
            weight = float(spec.layout.factor_indices(pair.u)[0] == level) - float(
                spec.layout.factor_indices(pair.d)[0] == level
            )
            net += weight * currents[i]
        flow.append(float(net))
    return tuple(int_vanish), tuple(flow), sigma


def count_calls(monkeypatch, name: str) -> list:
    """Record the first argument of every call to ``continuous.<name>``."""
    calls = []
    original = getattr(continuous, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(continuous, name, counted)
    return calls


class TestSolveOnce:
    def test_report_solves_a_stack_of_one_and_measures_once(self, monkeypatch):
        values = count_calls(monkeypatch, "_generator_values")
        stacks = count_calls(monkeypatch, "_stationary_stack")
        measures = count_calls(monkeypatch, "_currents")
        dissipators = count_calls(monkeypatch, "build_dissipator")
        spec = catalyst_from_factors(0.5, 0.2)
        steady_state_report(spec)
        assert values == [[spec]]
        assert (len(stacks), len(measures)) == (1, 1)
        # The generator and the audit read the cached jumps directly.
        assert len(dissipators) == 0

    def test_verify_solves_each_spec_once_in_stacks(self, monkeypatch):
        values = count_calls(monkeypatch, "_generator_values")
        verify.run_suite(seed=1234, n_points=5)
        solved = [spec for stack in values for spec in stack]
        # 2 engines x 5 grid points; 2 x (100 matched efficiencies + the
        # near-limit probe); 20 stationary-relation rate sets.
        assert len(solved) == 2 * 5 + 202 + 20
        assert len(set(solved)) == len(solved)
        # One stack per engine for the grid, ceil(101 / _STACK) per engine
        # for check 5 and ceil(20 / _STACK) for check 7.
        stack = continuous._STACK
        assert len(values) == 2 + 2 * -(-101 // stack) + -(-20 // stack)

    @pytest.mark.parametrize("name", list(exact_agreement_specs()))
    def test_report_fields_equal_the_standalone_audits_exactly(self, name):
        spec = exact_agreement_specs()[name]
        report = steady_state_report(spec)
        rho = report.rho_ss
        assert report.currents == tuple(probability_currents(spec, rho).tolist())
        checks = ness_condition_checks(spec, rho)
        assert checks["int_vanish"] == report.int_vanish_residuals
        assert checks["catalyst_flow"] == report.catalysis_residuals
        assert checks["clausius_margin"] == report.clausius_margin
        assert entropy_production_rate(spec, rho) == report.entropy_production
        assert term_by_term_audit(spec, rho) == (
            report.int_vanish_residuals,
            report.catalysis_residuals,
            report.entropy_production,
        )

    def test_thermo_check_does_not_depend_on_the_checks_run_before_it(self):
        def grid():
            return sample_grid(np.random.Generator(np.random.PCG64(1234)), 5)

        fresh = verify.check_thermo_consistency(grid())
        shared = grid()
        verify.check_efficiency_design_match(shared)
        verify.check_current_closed_form(shared)
        verify.check_time_bridge(shared)
        assert verify.check_thermo_consistency(shared) == fresh


def current_operator(spec: EngineSpec, pair_index: int) -> Operator:
    """i g_i (|u_i><d_i| - |d_i><u_i|), the pair's transfer-rate observable."""
    pair = spec.swaps[pair_index]
    mat = np.zeros((spec.dim, spec.dim), dtype=complex)
    mat[pair.u, pair.d] = 1j * pair.g
    mat[pair.d, pair.u] = -1j * pair.g
    return Operator(spec.layout, mat)


def random_state(layout: HilbertLayout, rng: np.random.Generator) -> DensityMatrix:
    """A random full-rank density matrix; no generator holds it stationary."""
    dim = layout.total_dim
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = raw @ raw.conj().T
    return DensityMatrix(Operator(layout, mat / np.trace(mat).real))


class TestCurrentOracle:
    """The two-term transfer rates against ``expectation`` of the full
    current observable, bit for bit."""

    @staticmethod
    def assert_equal_to_the_observable(spec: EngineSpec, rho: DensityMatrix):
        expected = [
            expectation(current_operator(spec, i), rho).real for i in range(len(spec.swaps))
        ]
        assert probability_currents(spec, rho).tolist() == expected

    def test_steady_and_random_states_of_every_spec_family(self):
        hot = bath_from_factor(0.7)
        cold = bath_from_factor(0.3, omega=2.0)
        specs = [
            *certificate_specs(),
            *golden_specs(),
            *(ladder_spec(d, a, b, 1.0) for d in (3, 4) for a, b in ((hot, cold), (cold, hot))),
        ]
        rng = np.random.Generator(np.random.PCG64(11))
        for spec in specs:
            self.assert_equal_to_the_observable(spec, steady_state_report(spec).rho_ss)
            self.assert_equal_to_the_observable(spec, random_state(spec.layout, rng))

    def test_a_non_hermitian_state_raises_on_the_imaginary_part(self):
        spec = catalyst_from_factors(0.5, 0.2)
        rho = DensityMatrix(random_operator(spec.layout, seed=5))
        with pytest.raises(AssertionError, match="imaginary part"):
            probability_currents(spec, rho)


def stack_spec(kind: str, a_h: float, a_c: float, g: float) -> EngineSpec:
    """One spec of each structure the stacked solve may meet in one call."""
    hot, cold = bath_from_factor(a_h), bath_from_factor(a_c, omega=2.0)
    if kind == "otto":
        return ladder_spec(1, hot, bath_from_factor(a_c, omega=0.6), g)
    if kind == "qubit_catalyst":
        return ladder_spec(2, hot, bath_from_factor(a_c, omega=1.2), g)
    return ladder_spec(int(kind[-1]), hot, cold, 1.0)


def decoupled_level_spec() -> EngineSpec:
    """A d = 3 catalyst with only the two pairs of the d = 2 ladder: level 2
    never couples, so the steady state is not unique."""
    layout = HilbertLayout((3, 2, 2))
    pairs = (
        SwapPair(layout.flat_index(1, 0, 0), layout.flat_index(0, 1, 0), 1.0),
        SwapPair(layout.flat_index(0, 0, 1), layout.flat_index(1, 1, 0), 1.0),
    )
    return EngineSpec(3, bath_from_factor(0.7), bath_from_factor(0.3, omega=2.0), pairs)


stack_specs = st.builds(
    stack_spec,
    st.sampled_from(["otto", "qubit_catalyst", "ladder-3", "ladder-4"]),
    gibbs_factors,
    gibbs_factors,
    st.floats(min_value=0.1, max_value=10.0),
)


class TestStackedSolves:
    @given(
        data=st.data(),
        length=st.sampled_from(
            [1, continuous._STACK - 1, continuous._STACK, continuous._STACK + 1]
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_stacked_reports_equal_the_reports_one_by_one(self, data, length):
        specs = data.draw(st.lists(stack_specs, min_size=length, max_size=length))
        for stacked, spec in zip(continuous.steady_state_reports(specs), specs, strict=True):
            alone = steady_state_report(spec)
            assert stacked.rho_ss.matrix.tobytes() == alone.rho_ss.matrix.tobytes()
            assert report_fields(stacked) == report_fields(alone)

    def test_interleaved_structures_keep_the_input_order(self):
        kinds = ["otto", "qubit_catalyst", "ladder-3"] * continuous._STACK
        specs = [stack_spec(kind, 0.7, 0.2, 1.0 + i) for i, kind in enumerate(kinds)]
        reports = list(continuous.steady_state_reports(specs))
        assert len(reports) == len(specs)
        for spec, report in zip(specs, reports):
            assert report.rho_ss.matrix.tobytes() == steady_state_report(spec).rho_ss.matrix.tobytes()

    def test_a_non_ergodic_spec_in_mid_stack_is_named_by_position(self):
        specs = [catalyst_from_factors(0.5, 0.2, g=1.0 + i) for i in range(continuous._STACK)]
        specs[7] = decoupled_level_spec()
        message = "^non-ergodic Liouvillian: steady state not unique$"
        with pytest.raises(ValueError, match=message) as caught:
            list(continuous.steady_state_reports(specs))
        assert caught.value.index == 7
        with pytest.raises(ValueError, match="^non-ergodic Liouvillian"):
            steady_state_report(specs[7])

    def test_a_failed_audit_is_named_by_position(self, monkeypatch):
        specs = [catalyst_from_factors(0.5, 0.2, g=1.0 + i) for i in range(3)]
        audit = continuous._audit

        def failing(stack, states):
            if specs[2] in stack:
                exc = AssertionError("first-law residual 1.000e-09 exceeds 1.0e-10")
                exc.index = stack.index(specs[2])
                raise exc
            return audit(stack, states)

        monkeypatch.setattr(continuous, "_audit", failing)
        with pytest.raises(AssertionError, match="^first-law residual") as caught:
            list(continuous.steady_state_reports(specs))
        assert caught.value.index == 2

    def test_an_earlier_audit_fault_is_named_before_a_later_solve_fault(self, monkeypatch):
        # The stack fails in the solve, at row 7, before its audit runs; one
        # spec at a time, row 2 fails first, in the audit.
        specs = [catalyst_from_factors(0.5, 0.2, g=1.0 + i) for i in range(continuous._STACK)]
        specs[7] = catalyst_from_factors(0.5, 0.2, g=1e-9)
        audit = continuous._audit

        def failing(stack, states):
            if specs[2] in stack:
                exc = AssertionError("first-law residual 1.000e-09 exceeds 1.0e-10")
                exc.index = stack.index(specs[2])
                raise exc
            return audit(stack, states)

        monkeypatch.setattr(continuous, "_audit", failing)
        with pytest.raises(AssertionError, match="^first-law residual") as caught:
            list(continuous.steady_state_reports(specs))
        assert caught.value.index == 2

    @pytest.mark.filterwarnings(
        "ignore:overflow encountered in matmul:RuntimeWarning",
        "ignore:invalid value encountered in matmul:RuntimeWarning",
    )
    def test_an_error_no_check_raised_is_named_by_the_spec_that_fails_alone(self):
        # At g = 9e307 the stack's eigen-solve meets infs and raises NumPy's
        # own ValueError, which names no row; alone, g = 4.5e307 fails first.
        specs = [otto_from_factors(0.5, 0.2, g=g) for g in (1.0, 4.5e307, 9e307)]
        with pytest.raises(ValueError) as alone:
            steady_state_report(specs[1])
        with pytest.raises(ValueError) as caught:
            list(continuous.steady_state_reports(specs))
        assert caught.value.index == 1
        assert str(caught.value) == str(alone.value)

    def test_the_golden_sweep_runs_one_eig_per_stack_and_one_full_lu_per_spec(
        self, monkeypatch, tmp_path
    ):
        calls = {"eig": [], "eigvals": [], "solve": []}
        for name, shapes in calls.items():
            original = getattr(np.linalg, name)

            def counted(a, *args, _original=original, _shapes=shapes):
                _shapes.append(a.shape)
                return _original(a, *args)

            monkeypatch.setattr(np.linalg, name, counted)
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(GOLDEN_CONFIG), "--output", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_CONFIG.with_suffix(".csv").read_bytes()
        stacks = -(-100 // continuous._STACK)  # per engine
        last = 100 - (stacks - 1) * continuous._STACK
        for size in (6, 14):  # the real block of |0><0|: Otto, qubit catalyst
            expected = [(continuous._STACK, size, size)] * (stacks - 1) + [(last, size, size)]
            assert [shape for shape in calls["eig"] if shape[1] == size] == expected
        assert len(calls["eig"]) == 2 * stacks
        full = [shape for shape in calls["solve"] if len(shape) == 2]
        assert sorted(full) == [(16, 16)] * 100 + [(64, 64)] * 100
        assert len(calls["solve"]) == len(full) + 2 * 2 * stacks  # two refinement steps
        sizes = {  # one eigvals per block size and stack
            kind: len(continuous._generator_plan(*make(0.5, 0.2).structure)[1][3])
            for kind, make in (("otto", otto_from_factors), ("cat", catalyst_from_factors))
        }
        assert len(calls["eigvals"]) == stacks * (sizes["otto"] + sizes["cat"])


def test_per_structure_caches_keep_at_most_64_entries():
    spec = catalyst_from_factors(0.5, 0.2)
    report = steady_state_report(spec)
    table = pair_table(*spec.structure)
    structures = [
        ((d, 2, 2), ((u, v),))
        for d in (1, 2, 3)
        for u in range(4 * d)
        for v in range(4 * d)
        if u != v
    ][:100]
    for dims, pairs in structures:
        continuous._generator_plan(dims, pairs)
        pair_table(dims, pairs)
    for d in range(1, 101):
        level_table((d, 2, 2))
    caches = (
        continuous._bath_jumps,
        continuous._generator_plan,
        level_table,
        pair_table,
    )
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == 64 and info.currsize <= 64, cache
    rebuilt = pair_table(*spec.structure)
    assert rebuilt is not table  # evicted, then built again alike
    assert rebuilt[:3] == table[:3] and rebuilt.overlap == table.overlap
    assert all(np.array_equal(a, b) for a, b in zip(rebuilt[3:6], table[3:6]))
    again = steady_state_report(spec)
    assert again.rho_ss.matrix.tobytes() == report.rho_ss.matrix.tobytes()
    assert report_fields(again) == report_fields(report)
