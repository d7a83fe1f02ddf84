"""Tests for the tensor-product state layer."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ottocat.qstate import (
    DensityMatrix,
    expectation,
    gibbs_qubit,
    partial_trace,
    tensor,
    tensor_all,
)

THREE_QUBITS = (2, 2, 2)

gibbs_factors = st.floats(min_value=0.05, max_value=0.95)


class TestDensityMatrix:
    def test_accepts_a_valid_gibbs_state(self):
        gibbs_qubit(beta=1.0, omega=0.7).validate()

    def test_layout_dimensions_must_be_integers(self):
        rho = DensityMatrix((np.int64(3), 2), np.eye(6) / 6)
        assert rho.layout == (3, 2)
        assert type(rho.layout[0]) is int
        assert DensityMatrix([2, 2], np.eye(4) / 4).layout == (2, 2)
        for bad in (2.5, 2.0, "2", None):
            with pytest.raises(ValueError, match="factor dimension must be an integer"):
                DensityMatrix((bad, 2), np.eye(4) / 4)

    def test_layout_needs_a_factor_of_positive_dimension(self):
        with pytest.raises(ValueError, match="layout needs at least one tensor factor"):
            DensityMatrix((), np.eye(1))
        with pytest.raises(ValueError, match=r"factor dimensions must be >= 1, got \(0, 2\)"):
            DensityMatrix((0, 2), np.zeros((0, 0)))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="expected a 8x8 matrix, got shape"):
            DensityMatrix(THREE_QUBITS, np.eye(4))
        with pytest.raises(ValueError, match="expected a 8x8 matrix, got shape"):
            DensityMatrix(THREE_QUBITS, np.ones(8))

    def test_holds_a_read_only_complex_copy(self):
        mat = np.diag([0.25, 0.75])
        rho = DensityMatrix((2,), mat)
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
        assert DensityMatrix((2, 2), mixed) == DensityMatrix((2, 2), mixed)
        assert DensityMatrix((2, 2), mixed) != DensityMatrix((4,), mixed)
        with pytest.raises(TypeError, match="unhashable"):
            hash(gibbs_qubit(1.0, 1.0))

    def test_a_state_is_unequal_to_its_array_from_either_side(self):
        rho = gibbs_qubit(1.0, 1.0)
        for result, expected in ((rho == rho.matrix, False), (rho.matrix == rho, False),
                                 (rho != rho.matrix, True), (rho.matrix != rho, True)):
            assert type(result) is bool and result is expected

    def test_rejects_non_hermitian_matrices(self):
        layout = (2,)
        mat = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(layout, mat).validate()

    def test_rejects_wrong_trace(self):
        layout = (2,)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(layout, np.diag([0.7, 0.7])).validate()

    def test_rejects_negative_eigenvalues(self):
        layout = (2,)
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
            DensityMatrix((2,), np.diag([1.0, 2.0])),
            DensityMatrix((3,), np.eye(3)),
            DensityMatrix((2,), np.diag([1.0, 0.0])),
        ]
        big = tensor_all(factors)
        assert big.layout == (2, 3, 2)
        # the (1, 2, 0) diagonal entry is the product of the factor entries
        flat = np.ravel_multi_index((1, 2, 0), big.layout)
        assert flat == 1 * 6 + 2 * 2 + 0
        assert big.matrix[flat, flat] == 2.0

    @pytest.mark.parametrize("layout", [(2, 2, 2), (3, 2, 2), (2, 3, 2), (4, 2, 3)])
    def test_tensor_all_places_each_ket_at_its_row_major_index(self, layout):
        # |i0 i1 i2><i0 i1 i2| lands at i0 * n1 * n2 + i1 * n2 + i2, the index
        # numpy.ravel_multi_index gives; the last factor varies fastest.
        n0, n1, n2 = layout
        for kets in np.ndindex(layout):
            projectors = [DensityMatrix((n,), np.diag(np.arange(n) == i))
                          for n, i in zip(layout, kets)]
            flat = kets[0] * n1 * n2 + kets[1] * n2 + kets[2]
            assert flat == np.ravel_multi_index(kets, layout)
            big = tensor_all(projectors).matrix
            assert big[flat, flat] == 1.0 and np.count_nonzero(big) == 1

    def test_tensor_is_the_outer_product_construction_bit_for_bit(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for dim_a, dim_b in ((2, 2), (4, 2), (2, 4), (8, 2), (3, 2)):
            a, b = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                    for n in (dim_a, dim_b))
            outer = np.multiply.outer(a, b).swapaxes(1, 2).reshape(dim_a * dim_b, -1)
            joint = tensor(DensityMatrix((dim_a,), a), DensityMatrix((dim_b,), b))
            assert joint.layout == (dim_a, dim_b)
            assert np.array_equal(joint.matrix, outer)

    def test_partial_trace_preserves_trace_and_hermiticity(self):
        rng = np.random.Generator(np.random.PCG64(11))
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        mat = raw @ raw.conj().T
        mat /= np.trace(mat).real
        rho = DensityMatrix(THREE_QUBITS, mat)
        reduced = partial_trace(rho, keep=(0, 2))
        reduced.validate()
        assert reduced.layout == (2, 2)

    def test_partial_trace_rejects_bad_keep_sets(self):
        rho = DensityMatrix(THREE_QUBITS, np.eye(8) / 8)
        with pytest.raises(ValueError):
            partial_trace(rho, keep=())
        with pytest.raises(ValueError):
            partial_trace(rho, keep=(3,))

    def test_partial_trace_refuses_a_keep_index_that_is_not_an_integer(self):
        rho = tensor_all([gibbs_qubit(1.0, 1.0), gibbs_qubit(1.0, 2.0)])
        for bad in (0.5, 1.9, "0", 1.0):
            with pytest.raises(ValueError, match="keep index must be an integer"):
                partial_trace(rho, keep=(bad,))
        assert partial_trace(rho, keep=(np.int64(1),)) == partial_trace(rho, keep=(1,))


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
