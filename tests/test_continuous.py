"""Tests for the autonomous picture: Lindblad generator and steady state."""

from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottocat import analytic, cli, continuous, engine_spec, verify
from ottocat.continuous import (
    build_dissipator,
    build_liouvillian,
    currents_and_power,
    entropy_production_rate,
    ness_condition_checks,
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
    pair_sums,
    pair_table,
)
from ottocat.qstate import (
    DensityMatrix,
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


def random_operator(dim: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def interaction_operator(spec: EngineSpec) -> np.ndarray:
    """V0 = sum_i g_i (|u_i><d_i| + |d_i><u_i|) of one spec, a stack of one."""
    return continuous._unvec(continuous._interactions([spec])[0], spec.dim)


def pair_currents(spec: EngineSpec, rho_ss: DensityMatrix) -> np.ndarray:
    """The stationary transfer rate of each swap pair, a stack of one."""
    return continuous._currents([spec], rho_ss.matrix[None])[0]


def dissipators_only(spec) -> np.ndarray:
    """D_h + D_c with the coherent swap switched off."""
    return (build_dissipator(spec.hot, "hot", spec.layout)
            + build_dissipator(spec.cold, "cold", spec.layout))


def apply(superoperator: np.ndarray, op: np.ndarray) -> np.ndarray:
    """A dense column-stacked superoperator applied to an operator."""
    return continuous._unvec(superoperator @ op.reshape(-1, order="F"), len(op))


def pattern_state(layout: tuple[int, ...], mat: np.ndarray) -> tuple[DensityMatrix, float]:
    """The steady state and gap of a handmade generator, its blocks taken
    from its own nonzero pattern: a stack of one."""
    values = np.append(mat[mat != 0], 0.0)[None]
    [state] = continuous._stationary_stack(layout, values, pattern_blocks(mat))
    return state


class TestGeneratorStructure:
    def test_interaction_couples_exactly_the_swap_levels(self):
        spec = catalyst_from_factors(0.5, 0.2, g=1.3)
        v = interaction_operator(spec)
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
            identity = np.eye(spec.dim, dtype=complex)
            assert np.abs(apply(lv.conj().T, identity)).max() <= 1e-12

    def test_generator_preserves_hermiticity(self):
        spec = catalyst_from_factors(0.5, 0.2)
        lv = build_liouvillian(spec)
        x = random_operator(spec.dim, seed=5)
        lhs = apply(lv, x.conj().T)
        rhs = apply(lv, x).conj().T
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_each_dissipator_fixes_its_own_gibbs_state(self):
        spec = catalyst_from_factors(0.5, 0.2)
        cat = DensityMatrix((2,), np.diag([0.7, 0.3]))
        hot = gibbs_qubit(spec.hot.beta, spec.hot.omega)
        cold = gibbs_qubit(spec.cold.beta, spec.cold.omega)
        product = tensor_all([cat, hot, cold]).matrix
        for which, bath in (("hot", spec.hot), ("cold", spec.cold)):
            diss = build_dissipator(bath, which, spec.layout)
            assert np.abs(apply(diss, product)).max() <= 1e-14

    def test_hot_dissipator_is_blind_to_the_cold_hamiltonian(self):
        spec = catalyst_from_factors(0.5, 0.2)
        h_hot, h_cold = hamiltonians(spec)
        d_hot = build_dissipator(spec.hot, "hot", spec.layout).conj().T
        d_cold = build_dissipator(spec.cold, "cold", spec.layout).conj().T
        assert np.abs(apply(d_hot, h_cold)).max() <= 1e-14
        assert np.abs(apply(d_cold, h_hot)).max() <= 1e-14

    def test_dissipator_rejects_unknown_qubit_selector(self):
        spec = otto_from_factors(0.5, 0.25)
        with pytest.raises(ValueError):
            build_dissipator(spec.hot, "warm", spec.layout)


class TestStationaryState:
    def test_the_state_and_gap_are_the_reports_bit_for_bit(self):
        hot, cold = bath_from_factor(0.7), bath_from_factor(0.2, omega=2.0)
        ladders = [ladder_spec(d, hot, cold, g) for d in range(1, 5) for g in (0.1, 10.0, 1e3)]
        for spec in [*golden_specs(), *ladders]:
            rho_ss, gap = stationary_state(spec)
            report = steady_state_report(spec)
            assert np.array_equal(rho_ss.matrix, report.rho_ss.matrix)
            assert gap == report.spectral_gap

    def test_coupled_engine_has_a_unique_steady_state(self):
        spec = catalyst_from_factors(0.5, 0.2)
        rho_ss, gap = stationary_state(spec)
        rho_ss.validate()
        assert gap > 0.0
        lv = build_liouvillian(spec)
        residual = np.abs(apply(lv, rho_ss.matrix)).max()
        assert residual <= 1e-12

    def test_dissipators_alone_relax_to_the_gibbs_product(self):
        spec = otto_from_factors(0.5, 0.25)
        rho_ss, gap = pattern_state(spec.layout, dissipators_only(spec))
        hot = gibbs_qubit(spec.hot.beta, spec.hot.omega)
        cold = gibbs_qubit(spec.cold.beta, spec.cold.omega)
        expected = tensor_all([DensityMatrix((1,), np.eye(1)), hot, cold])
        np.testing.assert_allclose(rho_ss.matrix, expected.matrix, atol=1e-12)
        assert gap == pytest.approx(min(spec.hot.big_gamma, spec.cold.big_gamma), rel=1e-9)

    def test_decoupled_catalyst_makes_the_generator_non_ergodic(self):
        spec = catalyst_from_factors(0.5, 0.2)
        with pytest.raises(ValueError, match="non-ergodic"):
            pattern_state(spec.layout, dissipators_only(spec))


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
        rho_ss, _ = stationary_state(spec)
        flows = pair_currents(spec, rho_ss)
        assert flows.dtype == np.float64

    def test_reversed_bias_is_not_an_engine(self):
        report = steady_state_report(otto_from_factors(0.3, 0.6, omega_c=0.6))
        assert report.regime == "non_engine"
        assert report.j_hot < 0.0


class TestSteadyStateConditions:
    def test_condition_bundle_is_small_at_the_steady_state(self):
        spec = catalyst_from_factors(0.5, 0.2)
        rho_ss, _ = stationary_state(spec)
        checks = ness_condition_checks(spec, rho_ss)
        assert checks["liouvillian_residual"] <= 1e-12
        assert max(checks["int_vanish"]) <= 1e-13
        assert max(abs(x) for x in checks["catalyst_flow"]) <= 1e-13
        assert checks["clausius_margin"] >= -1e-12

    @given(a_h=gibbs_factors, a_c=gibbs_factors)
    @settings(max_examples=25, deadline=None)
    def test_entropy_production_is_nonnegative(self, a_h, a_c):
        spec = catalyst_from_factors(a_h, a_c)
        rho_ss, _ = stationary_state(spec)
        assert entropy_production_rate(spec, rho_ss) >= -1e-10

    def test_entropy_production_matches_the_clausius_margin_at_steady_state(self):
        # with <adj D_k>[V] = 0 the rate reduces to -sum_k beta_k J_k
        spec = catalyst_from_factors(0.9, 0.2)
        report = steady_state_report(spec)
        sigma = entropy_production_rate(spec, report.rho_ss)
        assert sigma == pytest.approx(report.clausius_margin, rel=1e-10)

    def test_the_standalone_audits_return_python_floats(self):
        spec = next(spec for spec in golden_specs() if spec.catalyst_dim == 2)
        rho_ss = steady_state_report(spec).rho_ss
        checks = ness_condition_checks(spec, rho_ss)
        numbers = [checks["liouvillian_residual"], *checks["int_vanish"],
                   *checks["catalyst_flow"], checks["clausius_margin"],
                   entropy_production_rate(spec, rho_ss)]
        assert [type(x) for x in numbers] == [float] * len(numbers)  # not np.float64


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


def kron_jumps(which: str, catalyst_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The raising and the lowering jump L . L^+ - (1/2){L^+ L, .} of one
    bath qubit, built from scratch with np.kron."""
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

    return jump(lifted(raise_2)), jump(lifted(raise_2.conj().T))


def kron_dissipator(bath: BathParams, which: str, catalyst_dim: int) -> np.ndarray:
    """The local dissipator built from scratch with np.kron."""
    raising, lowering = kron_jumps(which, catalyst_dim)
    return bath.gamma_plus * raising + bath.gamma_minus * lowering


def kron_commutator(dim: int, u: int, d: int) -> np.ndarray:
    """-i[|u><d| + |d><u|, .] built from scratch with np.kron."""
    eye = np.eye(dim, dtype=complex)
    swap = np.zeros((dim, dim), dtype=complex)
    swap[u, d] = swap[d, u] = 1.0
    return -1j * (np.kron(eye, swap) - np.kron(swap.T, eye))


def dense_terms(adjoints: list[np.ndarray]) -> tuple:
    """The two-term table of two dense adjoints: ``(rows, cols, up, down)``
    for the first nonzero of each row, then for the second."""
    rows, cols = np.nonzero((adjoints[0] != 0) | (adjoints[1] != 0))
    slot = np.arange(len(rows)) - np.searchsorted(rows, rows)  # k-th nonzero of its row
    assert slot.max() <= 1
    picked = [(rows[slot == k], cols[slot == k]) for k in (0, 1)]
    return tuple((r, c, adjoints[0][r, c], adjoints[1][r, c]) for r, c in picked)


def same_arrays(a, b) -> bool:
    """Whether two nests of tuples hold equal arrays of one dtype at equal places."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same_arrays, a, b))
    return np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype


def dense_plan(factor_dims: tuple[int, ...], pairs: tuple) -> tuple:
    """``(pieces, blocks, terms)`` of :func:`continuous._generator_plan` and
    of both baths' :func:`continuous._bath_jumps` from dense np.kron pieces,
    reduced to their nonzero entries."""
    dim = math.prod(factor_dims)
    jumps = {label: kron_jumps(label, factor_dims[0]) for label in ("hot", "cold")}
    pieces = [kron_commutator(dim, u, d) for u, d in pairs] + [*jumps["hot"], *jumps["cold"]]
    real, imaginary = (np.logical_or.reduce([part(piece) != 0 for piece in pieces]).ravel()
                       for part in (np.real, np.imag))
    positions = np.flatnonzero(real | imaginary)
    blocks = continuous._kernel_blocks(dim * dim, positions, real[positions], imaginary[positions])
    terms = {label: dense_terms([jump.conj().T for jump in pair]) for label, pair in jumps.items()}
    return np.stack([piece.ravel()[positions] for piece in pieces]), blocks, terms


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
            built = build_dissipator(bath, which, spec.layout)
            assert np.array_equal(built, kron_dissipator(bath, which, catalyst_dim))

    @pytest.mark.parametrize("family", list(ASSEMBLY_FAMILIES))
    def test_liouvillian_equals_the_kron_construction(self, family):
        for spec in ASSEMBLY_FAMILIES[family]():
            v0 = interaction_operator(spec)
            eye = np.eye(spec.dim, dtype=complex)
            expected = (
                -1j * (np.kron(eye, v0) - np.kron(v0.T, eye))
                + kron_dissipator(spec.hot, "hot", spec.catalyst_dim)
                + kron_dissipator(spec.cold, "cold", spec.catalyst_dim)
            )
            for _ in range(2):
                assert np.array_equal(build_liouvillian(spec), expected)

    def test_cached_arrays_reject_writes(self):
        spec = spec_with_catalyst(2)
        build_liouvillian(spec)
        dims = spec.layout
        pieces, (positions, main, real_basis, others, gather, mirrored) = (
            continuous._generator_plan(*spec.structure)
        )
        jumps = [continuous._bath_jumps(dims, label) for label in ("hot", "cold")]
        cached = [
            *(array for where, values, _ in jumps for array in (where, values)),
            *(array for *_, terms in jumps for term in terms for array in term),
            pieces,
            positions,
            main,
            *real_basis,
            *(members for members, *_ in others),
            *(gauge for *_, gauge in others),
            gather,
            mirrored,
        ]
        for array in cached:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    def test_the_generator_matrix_is_read_only(self):
        liouv = build_liouvillian(spec_with_catalyst(2))
        with pytest.raises(ValueError, match="read-only"):
            liouv[0, 0] = 1.0

    def test_layout_without_a_catalyst_factor_is_rejected_on_every_call(self):
        bath = bath_from_factor(0.5)
        for _ in range(2):
            with pytest.raises(ValueError, match="catalyst, 2, 2"):
                build_dissipator(bath, "hot", (2, 2))

    def test_a_bath_other_than_hot_or_cold_is_rejected_on_every_call(self):
        bath = bath_from_factor(0.5)
        for _ in range(2):
            with pytest.raises(ValueError, match="must be 'hot' or 'cold', got 'warm'"):
                build_dissipator(bath, "warm", (2, 2, 2))

    @pytest.mark.parametrize("make", [otto_from_factors, catalyst_from_factors])
    def test_energy_differences_equal_the_hamiltonian_diagonals(self, make):
        spec = make(0.5, 0.2)
        h0h, h0c = hamiltonians(spec)
        for i, pair in enumerate(spec.swaps):
            en = energy_differences(spec, i)
            assert en.d_eps_h == (h0h[pair.u, pair.u] - h0h[pair.d, pair.d]).real
            assert en.d_eps_c == (h0c[pair.u, pair.u] - h0c[pair.d, pair.d]).real


def kernel_mask(eigvals: np.ndarray) -> np.ndarray:
    """The stationary eigenvalues under the rule the solver applies."""
    return np.abs(eigvals.real) <= continuous.KERNEL_TOL * np.max(np.abs(eigvals))


def dense_certificate(mat: np.ndarray, dim: int) -> tuple[int, float, np.ndarray]:
    """(kernel count, gap, kernel state) from one eig of the whole generator."""
    eigvals, eigvecs = np.linalg.eig(mat)
    zero = kernel_mask(eigvals)
    rho = continuous._normalize_state(eigvecs[:, zero][:, 0].reshape((dim, dim), order="F"))
    return int(np.count_nonzero(zero)), float(-np.max(eigvals[~zero].real)), rho


def pattern_blocks(mat: np.ndarray) -> tuple:
    """The :func:`continuous._kernel_blocks` of a generator's own pattern."""
    positions = np.flatnonzero(mat)
    values = mat.ravel()[positions]
    return continuous._kernel_blocks(len(mat), positions, values.real != 0, values.imag != 0)


def block_spectrum(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block-by-block spectrum of one generator, a stack of one:
    ``(eigvals, main, main_vecs)``."""
    blocks = pattern_blocks(mat)
    padded = np.append(mat[mat != 0], 0.0)
    eigvals, real_vecs = continuous._block_spectrum(padded[None], blocks)
    return eigvals[0], blocks[1], blocks[2][1] @ real_vecs[0]  # from the real basis


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
            mat = build_liouvillian(spec)
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
        mat = build_liouvillian(spec)
        blocks = continuous._generator_plan(*spec.structure)[1]
        assert same_arrays(blocks, pattern_blocks(mat))
        _, main, _, others, _, _ = blocks
        dim = math.isqrt(mat.shape[0])
        found = [len(main)]
        covered = [main]
        for members, paired, _ in others:
            assert paired
            for block in members:  # one group per block size
                assert len(block) == members.shape[1]
                found += [len(block)] * 2
                covered += [block, (block % dim) * dim + block // dim]  # and its mirror
        assert sorted(found, reverse=True) == sizes
        assert np.array_equal(np.sort(np.concatenate(covered)), np.arange(mat.shape[0]))

    def test_a_one_ulp_break_of_a_mirror_block_raises(self):
        spec = catalyst_from_factors(0.5, 0.2)
        mat = build_liouvillian(spec).copy()
        v = 1  # |1><0| of the cold qubit, in an 8 x 8 block mirrored by |0><1|'s
        assert mat[v, v].real != 0.0
        mat[v, v] = complex(np.nextafter(mat[v, v].real, 0.0), mat[v, v].imag)
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            pattern_state(spec.layout, mat)

    def test_qutrit_catalyst_spec_solves(self):
        spec = spec_with_catalyst(3)
        rho_ss, gap = stationary_state(spec)
        n_dense, gap_dense, rho_dense = dense_certificate(build_liouvillian(spec), spec.dim)
        assert n_dense == 1
        assert gap == pytest.approx(gap_dense, rel=1e-9)
        assert np.max(np.abs(rho_ss.matrix - rho_dense)) <= continuous.SOLVER_CROSS_TOL

    def test_dissipators_alone_have_the_same_degenerate_kernel_on_both_routes(self):
        spec = catalyst_from_factors(0.5, 0.2)
        mat = dissipators_only(spec)
        # One stationary direction per catalyst operator |s><s'|.
        n_block = int(np.count_nonzero(kernel_mask(block_spectrum(mat)[0])))
        assert n_block == dense_certificate(mat, spec.dim)[0] == 4

    def test_zero_generator_raises(self):
        layout = (1, 2, 2)
        with pytest.raises(ValueError, match="identically zero"):
            pattern_state(layout, np.zeros((16, 16), dtype=complex))

    def test_kernel_outside_the_ground_population_block_raises(self):
        # Not trace preserving: the only stationary direction is the
        # population |1><1| (vec index 5), which no entry links to |0><0|.
        # (A lone coherence |1><0| would break the mirror certificate.)
        mat = -np.eye(16, dtype=complex)
        mat[5, 5] = 0.0
        with pytest.raises(ValueError, match="outside the block"):
            pattern_state((1, 2, 2), mat)
        mat[5, 5], mat[1, 1] = -1.0, 0.0
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            pattern_state((1, 2, 2), mat)


def full_refinement_state(mat: np.ndarray) -> np.ndarray:
    """The bordered solve refined on the whole generator: three solves of
    the full matrix, all of it cast to extended precision."""
    dim = math.isqrt(len(mat))
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
    """(<D_k^+[H_0k + V0]>, <D_k^+[V0]>) per bath through dense adjoints,
    arrays and ``expectation``."""
    v0 = interaction_operator(spec)
    heat, interaction = [], []
    for (label, bath), h0k in zip((("hot", spec.hot), ("cold", spec.cold)), hamiltonians(spec)):
        adj = build_dissipator(bath, label, spec.layout).conj().T
        heat.append(expectation(apply(adj, h0k + v0), rho_ss))
        interaction.append(float(abs(expectation(apply(adj, v0), rho_ss))))
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
            spec, DensityMatrix(spec.layout, rho_full), report.spectral_gap
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
    currents = pair_currents(spec, rho_ss)
    v0 = interaction_operator(spec)
    int_vanish = []
    sigma = 0.0
    for label, bath in (("hot", spec.hot), ("cold", spec.cold)):
        j_k = 0.0
        for i in range(len(spec.swaps)):
            en = energy_differences(spec, i)
            j_k += (en.d_eps_h if label == "hot" else en.d_eps_c) * currents[i]
        adj = build_dissipator(bath, label, spec.layout).conj().T
        int_term = expectation(apply(adj, v0), rho_ss)
        int_vanish.append(float(abs(int_term)))
        sigma -= bath.beta * (j_k - int_term.real)
    flow = []
    for level in range(spec.catalyst_dim):
        net = 0.0
        for i, pair in enumerate(spec.swaps):
            # flat index 4s + 2h + c sits on catalyst level s
            weight = float(pair.u // 4 == level) - float(pair.d // 4 == level)
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
        assert report.currents == tuple(pair_currents(spec, rho).tolist())
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


def current_operator(spec: EngineSpec, pair_index: int) -> np.ndarray:
    """i g_i (|u_i><d_i| - |d_i><u_i|), the pair's transfer-rate observable."""
    pair = spec.swaps[pair_index]
    mat = np.zeros((spec.dim, spec.dim), dtype=complex)
    mat[pair.u, pair.d] = 1j * pair.g
    mat[pair.d, pair.u] = -1j * pair.g
    return mat


def random_state(layout: tuple[int, ...], rng: np.random.Generator) -> DensityMatrix:
    """A random full-rank density matrix; no generator holds it stationary."""
    dim = math.prod(layout)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = raw @ raw.conj().T
    return DensityMatrix(layout, mat / np.trace(mat).real)


class TestCurrentOracle:
    """The two-term transfer rates against ``expectation`` of the full
    current observable, bit for bit."""

    @staticmethod
    def assert_equal_to_the_observable(spec: EngineSpec, rho: DensityMatrix):
        expected = [
            expectation(current_operator(spec, i), rho).real for i in range(len(spec.swaps))
        ]
        assert pair_currents(spec, rho).tolist() == expected

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
        rho = DensityMatrix(spec.layout, random_operator(spec.dim, seed=5))
        with pytest.raises(AssertionError, match="imaginary part"):
            pair_currents(spec, rho)


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
    # |1,0,0> <-> |0,1,0> and |0,0,1> <-> |1,1,0>, at flat index 4s + 2h + c
    pairs = (SwapPair(4, 2, 1.0), SwapPair(1, 6, 1.0))
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

    def test_a_report_equals_its_stacked_twin(self):
        # Reports compare their states by layout and matrix, so == answers.
        spec = catalyst_from_factors(0.5, 0.2)
        report = steady_state_report(spec)
        assert report == list(continuous.steady_state_reports([spec, spec]))[1]
        assert report != steady_state_report(catalyst_from_factors(0.5, 0.2, g=2.0))

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

    def test_an_error_no_check_raised_is_named_by_the_spec_that_fails_alone(self):
        # At g = 9e307 the block of |0><0| leaves double range in its real
        # basis, and the stack is refused there with no NumPy warning; one
        # spec at a time, g = 4.5e307 fails first.
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
        complex_inputs = set()
        for name, shapes in calls.items():
            original = getattr(np.linalg, name)

            def counted(a, *args, _original=original, _shapes=shapes, _name=name):
                _shapes.append(a.shape)
                if np.iscomplexobj(a):
                    complex_inputs.add(_name)
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
        # Each block of |0><0| in its real basis, each other block in its gauge.
        assert complex_inputs == {"solve"}


def gauge_specs(g: float) -> dict[str, EngineSpec]:
    """Ladders d = 1...4 and the other structures the tests' spec files take."""
    hot, cold = bath_from_factor(0.7), bath_from_factor(0.2, omega=2.0)
    specs = {f"ladder-{d}": ladder_spec(d, hot, cold, g) for d in range(1, 5)}
    swaps = (SwapPair(4, 2, g), SwapPair(6, 0, g))  # a swap set no catalyst balances
    specs["no-catalyst"] = EngineSpec(2, hot, cold, swaps)
    specs["qutrit"] = spec_with_catalyst(3)
    specs["decoupled-level"] = decoupled_level_spec()
    return specs


def assert_same_multiset(found: np.ndarray, expected: np.ndarray, tol: float) -> None:
    """Each value of ``found`` within ``tol`` of its own value of ``expected``
    (sorting would misorder conjugate pairs)."""
    left = list(expected)
    for z in found:
        nearest = int(np.argmin(np.abs(np.array(left) - z)))
        assert abs(left.pop(nearest) - z) <= tol
    assert not left


class TestRealGauge:
    @pytest.mark.parametrize("g", [0.05, 1.0, 40.0])
    @pytest.mark.parametrize("name", list(gauge_specs(1.0)))
    def test_every_coherence_block_is_real_in_its_gauge(self, name, g):
        spec = gauge_specs(g)[name]
        pieces, blocks = continuous._generator_plan(*spec.structure)
        _, main, _, others, gather, _ = blocks
        padded = continuous._generator_values([spec], pieces)[0]
        start = len(main) ** 2
        for members, _, gauge in others:
            count, size = members.shape
            stop = start + count * size**2
            entries = padded[gather[start:stop]]
            assert gauge is not None
            gauged = entries * gauge
            assert np.all(gauged.imag == 0.0)
            assert np.array_equal(np.abs(gauged), np.abs(entries))
            for real, plain in zip(gauged.real.reshape(-1, size, size),
                                   entries.reshape(-1, size, size)):
                expected = np.linalg.eigvals(plain)
                scale = np.abs(expected).max()
                assert_same_multiset(np.linalg.eigvals(real), expected, 1e-12 * scale)
            start = stop

    def test_a_block_with_an_odd_imaginary_cycle_keeps_complex_arithmetic(self):
        # |1><0|, |2><0|, |3><0| (vec 1, 2, 3) form a triangle of imaginary
        # entries, so no parity flips across all three; their mirrors hold
        # the conjugates.  Every other index decays at rate 1, |0><0| not.
        mat = -np.eye(16, dtype=complex)
        mat[0, 0] = 0.0
        for k, l in ((1, 2), (2, 3), (3, 1)):
            mat[k, l], mat[4 * k, 4 * l] = -0.5j, 0.5j
        blocks = pattern_blocks(mat)
        gauges = {tuple(members[0]): gauge for members, _, gauge in blocks[3]}
        assert gauges.pop((1, 2, 3)) is None
        assert all(gauge is not None for gauge in gauges.values())
        eigvals, _, _ = block_spectrum(mat)
        assert_same_multiset(eigvals, np.linalg.eigvals(mat), 1e-14)
        # The triangle's eigenvalues -1 - 0.5i w, w^3 = 1, hold no conjugate pair.
        rho, gap = pattern_state((1, 2, 2), mat)
        assert rho.matrix[0, 0] == 1.0
        assert gap == pytest.approx(1.0 - math.sqrt(3.0) / 4.0, rel=1e-14)


def audit_specs(g: float) -> dict[str, EngineSpec]:
    """:func:`gauge_specs` and the d = 5 ladder."""
    hot, cold = bath_from_factor(0.7), bath_from_factor(0.2, omega=2.0)
    return {**gauge_specs(g), "ladder-5": ladder_spec(5, hot, cold, g)}


def plan_specs() -> dict[str, EngineSpec]:
    """Ladders d = 1...6 and the spec-file structures of :func:`audit_specs`."""
    hot, cold = bath_from_factor(0.7), bath_from_factor(0.2, omega=2.0)
    return {**audit_specs(1.0), "ladder-6": ladder_spec(6, hot, cold, 1.0)}


class TestPlanFromIndexRules:
    @pytest.mark.parametrize("name", list(plan_specs()))
    def test_the_plan_equals_the_dense_construction(self, name):
        spec = plan_specs()[name]
        pieces, blocks = continuous._generator_plan(*spec.structure)
        terms = {label: continuous._bath_jumps(spec.layout, label)[2]
                 for label in ("hot", "cold")}
        expected = dense_plan(*spec.structure)
        assert same_arrays((pieces, blocks, terms["hot"], terms["cold"]),
                           (expected[0], expected[1], expected[2]["hot"], expected[2]["cold"]))
        assert pieces.tobytes() == expected[0].tobytes()
        assert_dense_labelling(build_liouvillian(spec), blocks)

    @pytest.mark.parametrize("seed", range(8))
    def test_edge_list_blocks_equal_a_dense_labelling(self, seed):
        # A random mirror-closed pattern on a (1, 2, 2) layout: real,
        # imaginary and complex entries, diagonal ones and long chains.
        rng = np.random.default_rng(seed)
        n = 16
        mirror = (np.arange(n) % 4) * 4 + np.arange(n) // 4
        mat = np.zeros((n, n), dtype=complex)
        for k, l in rng.integers(n, size=(int(rng.integers(3, 12)), 2)):
            value = rng.choice([1.0, 1.0j, 1.0 + 1.0j])
            mat[k, l], mat[mirror[k], mirror[l]] = value, np.conj(value)
        assert_dense_labelling(mat, pattern_blocks(mat))


def dense_cover(real: np.ndarray, imaginary: np.ndarray) -> np.ndarray:
    """Each index's least label in the double cover of a dense pattern
    (index k + n*p: k at parity p), propagated over a 2n x 2n link matrix."""
    same, flip = real | real.T, imaginary | imaginary.T
    linked = np.block([[same, flip], [flip, same]])
    cover = np.arange(len(linked))
    while True:
        least = np.minimum(cover, np.where(linked, cover, len(linked)).min(axis=1))
        if np.array_equal(least, cover):
            return cover
        cover = least


def assert_dense_labelling(mat: np.ndarray, blocks: tuple) -> None:
    """``blocks`` of a generator with ``mat``'s pattern hold its components
    and gauges as :func:`dense_cover` labels them, and read its entries."""
    n, dim = len(mat), math.isqrt(len(mat))
    mirror = (np.arange(n) % dim) * dim + np.arange(n) // dim
    cover = dense_cover(mat.real != 0, mat.imag != 0)
    label = np.minimum(cover[:n], cover[n:])
    _, main, _, others, gather, mirrored = blocks
    padded = np.append(mat[mat != 0], 0.0)
    row, col = np.divmod(np.flatnonzero(mat), n)
    assert np.array_equal(padded[mirrored], mat[mirror[row], mirror[col]])
    assert np.array_equal(main, np.flatnonzero(label == 0))
    covered, start = [main], len(main) ** 2
    for members, _, gauge in others:
        entries = []
        for block in members:
            assert np.array_equal(block, np.flatnonzero(label == label[block[0]]))
            assert (gauge is None) == (cover[block[0]] == cover[block[0] + n])
            entries.append(mat[np.ix_(block, block)].ravel())
            covered += [block, mirror[block]]
        stop = start + members.size * members.shape[1]
        assert np.array_equal(padded[gather[start:stop]], np.concatenate(entries))
        if gauge is not None:
            assert np.all((padded[gather[start:stop]] * gauge).imag == 0.0)
        start = stop
    assert np.array_equal(np.unique(np.concatenate(covered)), np.arange(n))


def random_states(dim: int, count: int, seed: int) -> np.ndarray:
    """Hermitian unit-trace matrices, exactly Hermitian (not positive: the
    audit reads any state)."""
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    herm = (mats + mats.conj().swapaxes(1, 2)) / 2.0
    return herm / np.trace(herm, axis1=1, axis2=2).real[:, None, None]


def dense_adjoint_audit(specs: list[EngineSpec], rho: np.ndarray):
    """(adjoint_heat, int_vanish, entropy_production) of a stack of one
    structure through each bath's dense adjoint gamma_+ R^+ + gamma_- L^+,
    four specs per ``np.matmul``."""
    dims, dim, n = specs[0].layout, specs[0].dim, len(specs)
    j_hot, j_cold = pair_sums(specs, continuous._currents(specs, rho).T)[:2]
    v0 = continuous._interactions(specs)
    heat, interaction, sigma = [], [], 0.0
    for label, excitation, j_k in (("hot", level_table(dims).hot, j_hot),
                                   ("cold", level_table(dims).cold, j_cold)):
        raising, lowering = (jump.conj().T for jump in kron_jumps(label, dims[0]))
        baths = [getattr(spec, label) for spec in specs]
        omega, beta = (np.array([getattr(b, name) for b in baths]) for name in ("omega", "beta"))
        target = v0.copy()
        target[:, :: dim + 1] += omega[:, None] * excitation
        applied = np.empty((2, n, dim * dim), dtype=complex)
        for first in range(0, n, 4):
            rows = slice(first, first + 4)
            stack = np.stack([b.gamma_plus * raising + b.gamma_minus * lowering
                              for b in baths[rows]])
            for out, operand in zip(applied, (target, v0)):
                out[rows] = np.matmul(stack, operand[rows, :, None])[..., 0]
        heat_k, int_k = (applied * rho.reshape(n, -1)).sum(axis=-1)
        heat.append(heat_k)
        interaction.append([abs(z) for z in int_k.tolist()])
        sigma = sigma - beta * (j_k - int_k.real)
    return np.array(heat), np.array(interaction), sigma


def assert_audit_is_dense_audit(specs: list[EngineSpec], rho: np.ndarray) -> None:
    ex = continuous._exchanges(specs, rho)
    heat, interaction, sigma = dense_adjoint_audit(specs, rho)
    assert ex.adjoint_heat.tolist() == heat.tolist()
    assert ex.int_vanish.tolist() == interaction.tolist()
    assert ex.entropy_production.tolist() == sigma.tolist()


class TestTwoTermAdjoints:
    @pytest.mark.parametrize("name", list(audit_specs(1.0)))
    def test_the_table_holds_every_adjoint_nonzero_at_most_two_a_row(self, name):
        dims = audit_specs(1.0)[name].layout
        for label in ("hot", "cold"):
            terms = continuous._bath_jumps(dims, label)[2]
            adjoints = [jump.conj().T for jump in kron_jumps(label, dims[0])]
            nonzero = (adjoints[0] != 0) | (adjoints[1] != 0)
            assert nonzero.sum(axis=1).max() <= 2
            found = np.zeros_like(nonzero)
            for rows, cols, up, down in terms:
                assert not found[rows, cols].any()
                found[rows, cols] = True
                assert np.array_equal(up, adjoints[0][rows, cols])
                assert np.array_equal(down, adjoints[1][rows, cols])
            assert np.array_equal(found, nonzero)
            assert set(terms[1][0]) <= set(terms[0][0])  # a second term only after a first

    def test_a_row_with_a_third_nonzero_is_refused(self, monkeypatch):
        column = np.arange(3) * 64  # entries (0, 0), (1, 0), (2, 0): row 0 of the adjoint
        entries = [(column, np.ones(3)), (column[:0], np.ones(0))]
        monkeypatch.setattr(continuous, "_jump_entries", lambda dims, which: entries)
        with pytest.raises(ValueError, match="^a row of the hot adjoint holds more than two"):
            continuous._bath_jumps.__wrapped__((2, 2, 2), "hot")

    @pytest.mark.parametrize("name", list(audit_specs(1.0)))
    def test_the_audit_equals_the_dense_adjoints_exactly(self, name):
        specs = [audit_specs(g)[name] for g in (0.05, 1.0, 40.0)]
        assert_audit_is_dense_audit(specs, random_states(specs[0].dim, len(specs), len(name)))

    def test_the_golden_audit_equals_the_dense_adjoints_exactly(self):
        specs = golden_specs()
        for structure in {spec.structure for spec in specs}:
            stack = [spec for spec in specs if spec.structure == structure]
            rho = np.stack([r.rho_ss.matrix for r in continuous.steady_state_reports(stack)])
            assert_audit_is_dense_audit(stack, rho)


@pytest.mark.parametrize(
    "d, pairs", [(1, ((1, 2), (2, 3))), (2, ((4, 2), (2, 6)))], ids=["d=1", "d=2"]
)
def test_a_malformed_swap_set_never_reaches_the_steady_state(d, pairs):
    hot = BathParams.from_relaxation_time(0.1, 1.0, 1.0)
    cold = BathParams.from_relaxation_time(1.0, 0.6, 1.0)
    swaps = tuple(SwapPair(u, v, 1.0) for u, v in pairs)
    with pytest.raises(ValueError, match="^swap 1: index 2 appears in more than one pair$"):
        steady_state_report(EngineSpec(d, hot, cold, swaps))
    level_table.cache_clear()
    with pytest.raises(ValueError, match=(
        r"^catalyst_dim 1000000000 exceeds the 4 catalyst levels that 2 swap pair\(s\) can touch$"
    )):
        EngineSpec(10**9, hot, cold, swaps)
    assert level_table.cache_info().currsize == 0


def test_per_structure_caches_keep_at_most_64_entries():
    spec = catalyst_from_factors(0.5, 0.2)
    report = steady_state_report(spec)
    table = pair_table(*spec.structure)
    structures = [
        ((d, 2, 2), ((u, v),))
        for d in (1, 2)
        for u in range(4 * d)
        for v in range(4 * d)
        if u != v
    ]
    for dims, pairs in structures:
        continuous._generator_plan(dims, pairs)
        pair_table(dims, pairs)
    for d in range(1, 101):
        level_table((d, 2, 2))
        engine_spec._ladder_pairs(d)
    caches = (
        continuous._bath_jumps,
        continuous._generator_plan,
        engine_spec._ladder_pairs,
        level_table,
        pair_table,
    )
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == 64 and info.currsize <= 64, cache
    rebuilt = pair_table(*spec.structure)
    assert rebuilt is not table  # evicted, then built again alike
    assert rebuilt[:3] == table[:3]
    assert all(np.array_equal(a, b) for a, b in zip(rebuilt[3:6], table[3:6]))
    again = steady_state_report(spec)
    assert again.rho_ss.matrix.tobytes() == report.rho_ss.matrix.tobytes()
    assert report_fields(again) == report_fields(report)


def test_a_heat_route_disagreement_prints_plain_floats(monkeypatch):
    monkeypatch.setattr(continuous, "CURRENT_CROSS_TOL", -1.0)  # every audit disagrees
    number = r"[-+.e\d]+"  # a float's repr, not np.float64(...)
    with pytest.raises(AssertionError, match=(
        f"^hot heat current routes disagree: pairwise {number} vs adjoint {number}$"
    )):
        steady_state_report(catalyst_from_factors(0.5, 0.2))


def test_every_current_obeys_the_one_over_g_squared_law():
    # Measured, not proven: scale every coupling of a spec by lambda, and
    # 1/J is affine in 1/lambda^2.  Fitted at lambda = 1 and 10, the law
    # predicts the currents at 0.3, 3 and 100 to 2.5e-15 relative here.
    rng = np.random.default_rng(20261020)
    lambdas = (1.0, 10.0, 0.3, 3.0, 100.0)
    specs = []
    for _ in range(3):
        a_h, a_c, omega_h, omega_c, tau_h, tau_c = rng.uniform(
            [0.05, 0.05, 0.5, 0.5, 0.5, 0.5], [0.95, 0.95, 2.0, 2.0, 2.0, 2.0]).tolist()
        hot = bath_from_factor(a_h, omega=omega_h, tau_eq=tau_h)
        cold = bath_from_factor(a_c, omega=omega_c, tau_eq=tau_c)
        ladders = [(d, (1.0,) * d) for d in range(1, 5)]
        for d, couplings in [*ladders, (2, (1.0, 2.7)), (3, (1.0, 0.4, 2.5))]:
            spec = ladder_spec(d, hot, cold, 1.0)
            specs += [replace(spec, swaps=tuple(replace(pair, g=g * scale)
                                                for pair, g in zip(spec.swaps, couplings)))
                      for scale in lambdas]
    reports = continuous.steady_state_reports(specs)
    worst = 0.0
    for start in range(0, len(specs), len(lambdas)):
        currents = np.array([(*r.currents, r.j_hot, r.j_cold)
                             for r in reports[start : start + len(lambdas)]])
        slope = (1.0 / currents[0] - 1.0 / currents[1]) / (1.0 - 1.0 / lambdas[1] ** 2)
        offset = 1.0 / currents[0] - slope
        for scale, current in zip(lambdas[2:], currents[2:]):
            law = 1.0 / (offset + slope / scale**2)
            worst = max(worst, float(np.max(np.abs(law - current) / np.abs(current))))
    assert len(specs) == 90 and worst <= 5e-15


#: The law's couplings, in units of a drawn ladder's own: fitted at the first
#: two, held at the other three.
LAW_LAMBDAS = (1.0, 10.0, 0.3, 3.0, 100.0)


@st.composite
def scaled_ladders(draw) -> list[EngineSpec]:
    """A ladder, d = 1 to 4, with its own coupling in [0.3, 3] per pair, at
    each lambda of :data:`LAW_LAMBDAS` times those couplings.  Its Gibbs
    factors sit at least 1e-2 off a_c = a_h^d, where the flow vanishes; its
    frequencies lie in [0.5, 2] and its two relaxation times in [0.1, 10]
    differ."""
    d = draw(st.integers(min_value=1, max_value=4))
    a_h = draw(gibbs_factors)
    a_c = draw(gibbs_factors.filter(lambda a: abs(a - a_h**d) >= 1e-2))
    omega_h, omega_c = draw(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=2))
    tau_h = draw(st.floats(0.1, 10.0))
    tau_c = draw(st.floats(0.1, 10.0).filter(lambda tau: tau != tau_h))
    couplings = draw(st.lists(st.floats(0.3, 3.0), min_size=d, max_size=d))
    spec = ladder_spec(d, bath_from_factor(a_h, omega_h, tau_h),
                       bath_from_factor(a_c, omega_c, tau_c), 1.0)
    return [replace(spec, swaps=tuple(replace(pair, g=g * scale)
                                      for pair, g in zip(spec.swaps, couplings)))
            for scale in LAW_LAMBDAS]


# Measured, not proven: fitted at lambda = 1 and 10, 1/J = A + B/lambda^2
# predicts every pair current, J_h and J_c at 0.3, 3 and 100 to within
# 4.6e-13 of the spec's largest current there, at worst over these draws (a
# d = 4 ladder; another 200 draws read 7.5e-13, also at d = 4).  The comment
# stands outside the test: Hypothesis derives a derandomized test's draws
# from its source.
@given(specs=scaled_ladders())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_the_one_over_g_squared_law_holds_on_drawn_ladders(specs):
    currents = np.array([(*r.currents, r.j_hot, r.j_cold)
                         for r in continuous.steady_state_reports(specs)])
    slope = (1.0 / currents[0] - 1.0 / currents[1]) / (1.0 - 1.0 / LAW_LAMBDAS[1] ** 2)
    offset = 1.0 / currents[0] - slope
    for scale, current in zip(LAW_LAMBDAS[2:], currents[2:]):
        law = 1.0 / (offset + slope / scale**2)
        assert np.max(np.abs(law - current)) <= 5e-13 * np.max(np.abs(current))


def test_the_one_over_g_squared_law_fails_for_the_heat_of_two_parallel_channels():
    # Two swaps of one Otto space at unequal couplings (1, 2.7) * lambda, each
    # a channel from hot to cold of its own: each pair current obeys the law,
    # but J_h, their weighted sum, does not (1.23, 0.10 and 0.015 relative at
    # lambda = 0.3, 3 and 100).  So the law is claimed for ladders only.
    hot = BathParams.from_relaxation_time(0.1, 1.0, 1.0)
    cold = BathParams.from_relaxation_time(1.0, 0.6, 1.0)
    specs = [EngineSpec(1, hot, cold, (SwapPair(2, 1, scale), SwapPair(3, 0, 2.7 * scale)))
             for scale in LAW_LAMBDAS]
    currents = np.array([(*r.currents, r.j_hot)
                         for r in continuous.steady_state_reports(specs)])
    slope = (1.0 / currents[0] - 1.0 / currents[1]) / (1.0 - 1.0 / LAW_LAMBDAS[1] ** 2)
    offset = 1.0 / currents[0] - slope
    misses = np.array([np.abs(1.0 / (offset + slope / scale**2) - current) / np.abs(current)
                       for scale, current in zip(LAW_LAMBDAS[2:], currents[2:])])
    assert np.max(misses[:, :2]) <= 5e-15
    assert misses[0, 2] > 0.1
