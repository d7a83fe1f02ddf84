"""Tests for the tensor-product state layer."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ottocat.qstate import (
    DensityMatrix,
    HilbertLayout,
    expectation,
    gibbs_qubit,
    partial_trace,
    tensor,
    tensor_all,
)

THREE_QUBITS = HilbertLayout((2, 2, 2))

gibbs_factors = st.floats(min_value=0.05, max_value=0.95)


class TestHilbertLayout:
    def test_total_dim_is_product_of_factors(self):
        assert THREE_QUBITS.total_dim == 8
        assert HilbertLayout((3, 2)).total_dim == 6

    def test_flat_index_is_row_major_with_last_factor_fastest(self):
        # |s h c> -> 4s + 2h + c on three qubits
        assert THREE_QUBITS.flat_index(0, 0, 0) == 0
        assert THREE_QUBITS.flat_index(0, 0, 1) == 1
        assert THREE_QUBITS.flat_index(0, 1, 0) == 2
        assert THREE_QUBITS.flat_index(1, 0, 0) == 4
        assert THREE_QUBITS.flat_index(1, 1, 1) == 7

    def test_flat_index_round_trips_through_factor_indices(self):
        for flat in range(THREE_QUBITS.total_dim):
            assert THREE_QUBITS.flat_index(*THREE_QUBITS.factor_indices(flat)) == flat

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            THREE_QUBITS.flat_index(0, 2, 0)
        with pytest.raises(ValueError):
            THREE_QUBITS.factor_indices(8)
        with pytest.raises(ValueError):
            HilbertLayout(())

    def test_dimensions_must_be_integers(self):
        layout = HilbertLayout((np.int64(3), 2))
        assert layout.factor_dims == (3, 2)
        assert type(layout.factor_dims[0]) is int
        for bad in (2.5, 2.0, "2", None):
            with pytest.raises(ValueError, match="factor dimension must be an integer"):
                HilbertLayout((bad, 2))


class TestDensityMatrix:
    def test_accepts_a_valid_gibbs_state(self):
        gibbs_qubit(beta=1.0, omega=0.7).validate()

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="expected a 8x8 matrix, got shape"):
            DensityMatrix(THREE_QUBITS, np.eye(4))
        with pytest.raises(ValueError, match="expected a 8x8 matrix, got shape"):
            DensityMatrix(THREE_QUBITS, np.ones(8))

    def test_holds_a_read_only_complex_copy(self):
        mat = np.diag([0.25, 0.75])
        rho = DensityMatrix(HilbertLayout((2,)), mat)
        mat[0, 0] = 1.0
        assert rho.matrix.dtype == complex
        assert rho.matrix[0, 0] == 0.25
        assert not rho.matrix.flags.writeable
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_states_compare_by_layout_and_matrix(self):
        assert gibbs_qubit(1.0, 1.0) == gibbs_qubit(1.0, 1.0)
        assert gibbs_qubit(1.0, 1.0) != gibbs_qubit(1.0, 2.0)
        assert gibbs_qubit(1.0, 1.0) != "rho"
        mixed = np.eye(4) / 4
        assert DensityMatrix(HilbertLayout((2, 2)), mixed) == DensityMatrix(
            HilbertLayout((2, 2)), mixed
        )
        assert DensityMatrix(HilbertLayout((2, 2)), mixed) != DensityMatrix(
            HilbertLayout((4,)), mixed
        )
        with pytest.raises(TypeError, match="unhashable"):
            hash(gibbs_qubit(1.0, 1.0))

    def test_rejects_non_hermitian_matrices(self):
        layout = HilbertLayout((2,))
        mat = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(layout, mat).validate()

    def test_rejects_wrong_trace(self):
        layout = HilbertLayout((2,))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(layout, np.diag([0.7, 0.7])).validate()

    def test_rejects_negative_eigenvalues(self):
        layout = HilbertLayout((2,))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(layout, np.diag([1.2, -0.2])).validate()

    def test_populations_are_the_real_diagonal(self):
        rho = gibbs_qubit(beta=2.0, omega=0.5)
        pops = rho.populations()
        assert pops.dtype == np.float64
        np.testing.assert_allclose(pops, np.diag(rho.matrix).real, atol=0.0)


class TestGibbsQubit:
    def test_known_populations_at_log_two_frequency(self):
        # a = exp(-ln 2) = 1/2 -> populations (2/3, 1/3)
        rho = gibbs_qubit(beta=1.0, omega=math.log(2.0))
        np.testing.assert_allclose(rho.populations(), [2 / 3, 1 / 3], atol=1e-15)

    @given(beta=st.floats(min_value=0.01, max_value=5.0), omega=st.floats(min_value=0.1, max_value=3.0))
    def test_populations_obey_detailed_balance_ratio(self, beta, omega):
        pops = gibbs_qubit(beta, omega).populations()
        assert math.isclose(pops[1] / pops[0], math.exp(-beta * omega), rel_tol=1e-12)
        assert math.isclose(pops.sum(), 1.0, rel_tol=1e-12)

    def test_infinite_temperature_is_maximally_mixed(self):
        np.testing.assert_allclose(
            gibbs_qubit(beta=0.0, omega=1.0).populations(), [0.5, 0.5], atol=1e-15
        )

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            gibbs_qubit(beta=-1.0, omega=1.0)


class TestTensorAndPartialTrace:
    @given(a1=gibbs_factors, a2=gibbs_factors)
    def test_partial_trace_recovers_product_marginals(self, a1, a2):
        rho1 = gibbs_qubit(beta=-math.log(a1), omega=1.0)
        rho2 = gibbs_qubit(beta=-math.log(a2), omega=1.0)
        joint = tensor(rho1, rho2)
        left = partial_trace(joint, keep=(0,))
        right = partial_trace(joint, keep=(1,))
        np.testing.assert_allclose(left.matrix, rho1.matrix, atol=1e-14)
        np.testing.assert_allclose(right.matrix, rho2.matrix, atol=1e-14)

    def test_tensor_all_multiplies_dimensions_in_order(self):
        factors = [
            DensityMatrix(HilbertLayout((2,)), np.diag([1.0, 2.0])),
            DensityMatrix(HilbertLayout((3,)), np.eye(3)),
            DensityMatrix(HilbertLayout((2,)), np.diag([1.0, 0.0])),
        ]
        big = tensor_all(factors)
        assert big.layout.factor_dims == (2, 3, 2)
        # the (1, 2, 0) diagonal entry is the product of the factor entries
        flat = big.layout.flat_index(1, 2, 0)
        assert big.matrix[flat, flat] == 2.0

    def test_tensor_is_the_outer_product_construction_bit_for_bit(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for dim_a, dim_b in ((2, 2), (4, 2), (2, 4), (8, 2), (3, 2)):
            a, b = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                    for n in (dim_a, dim_b))
            outer = np.multiply.outer(a, b).swapaxes(1, 2).reshape(dim_a * dim_b, -1)
            joint = tensor(DensityMatrix(HilbertLayout((dim_a,)), a),
                           DensityMatrix(HilbertLayout((dim_b,)), b))
            assert joint.layout.factor_dims == (dim_a, dim_b)
            assert np.array_equal(joint.matrix, outer)

    def test_partial_trace_preserves_trace_and_hermiticity(self):
        rng = np.random.Generator(np.random.PCG64(11))
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        mat = raw @ raw.conj().T
        mat /= np.trace(mat).real
        rho = DensityMatrix(THREE_QUBITS, mat)
        reduced = partial_trace(rho, keep=(0, 2))
        reduced.validate()
        assert reduced.layout.factor_dims == (2, 2)

    def test_partial_trace_rejects_bad_keep_sets(self):
        rho = DensityMatrix(THREE_QUBITS, np.eye(8) / 8)
        with pytest.raises(ValueError):
            partial_trace(rho, keep=())
        with pytest.raises(ValueError):
            partial_trace(rho, keep=(3,))


class TestExpectationAndEntropy:
    def test_expectation_of_diagonal_observable_is_population_average(self):
        rho = gibbs_qubit(beta=1.0, omega=math.log(2.0))
        number = np.diag([0.0, 1.0])
        assert math.isclose(expectation(number, rho).real, 1 / 3, rel_tol=1e-14)

    def test_expectation_refuses_a_shape_mismatch(self):
        rho = gibbs_qubit(beta=1.0, omega=1.0)
        for obs in (np.eye(4), np.ones(2), np.ones((2, 3))):
            with pytest.raises(ValueError, match="shape mismatch: observable"):
                expectation(obs, rho)
