"""Dense complex linear algebra on small labeled tensor-product spaces.

Everything downstream (engine cycles, Lindblad steady states) runs on
Hilbert spaces of a few dozen dimensions at most (the d = 6 ladder has
24), so all storage is dense complex double (row-major numpy arrays) and
all eigenproblems use direct LAPACK solves.  A state is the one labeled
matrix, :class:`DensityMatrix`; operators (observables, Hamiltonians,
unitaries) are plain square arrays on the state's flat basis.
Units: hbar = k_B = 1 throughout; energies and rates share one unit system.

Values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "EIGENVALUE_FLOOR",
    "as_index",
    "HilbertLayout",
    "DensityMatrix",
    "state_defects",
    "gibbs_qubit",
    "tensor",
    "tensor_all",
    "partial_trace",
    "expectation",
]

#: Max-abs tolerance on rho - rho^+ for a valid density matrix.
HERMITICITY_TOL = 1e-12
#: Tolerance on |Tr rho - 1| for a valid density matrix.
TRACE_TOL = 1e-12
#: Eigenvalues of a density matrix may round off below zero by this much.
EIGENVALUE_FLOOR = -1e-10


def as_index(value, name: str) -> int:
    """``value`` as a Python int; ``ValueError`` naming ``name`` unless it is
    an integer (a numpy integer included)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class HilbertLayout:
    """Ordered tensor factorization of a Hilbert space.

    The factor order is fixed once per space and follows the convention
    catalyst (x) hot (x) cold; basis kets are written |s h c> with the
    catalyst index slowest.  Flat basis indices are row-major over the
    factor indices (the last factor varies fastest), matching the
    ordering produced by ``numpy.kron``.
    """

    factor_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(as_index(d, "factor dimension") for d in self.factor_dims)
        object.__setattr__(self, "factor_dims", dims)
        if not dims:
            raise ValueError("layout needs at least one tensor factor")
        if any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be >= 1, got {dims}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.factor_dims)

    def flat_index(self, *factor_indices: int) -> int:
        """Flat basis index of the ket |i0 i1 ...> in this layout."""
        if len(factor_indices) != len(self.factor_dims):
            raise ValueError(
                f"expected {len(self.factor_dims)} factor indices, "
                f"got {len(factor_indices)}"
            )
        flat = 0
        for idx, dim in zip(factor_indices, self.factor_dims):
            if not 0 <= idx < dim:
                raise ValueError(f"factor index {idx} out of range for dim {dim}")
            flat = flat * dim + idx
        return flat

    def factor_indices(self, flat: int) -> tuple[int, ...]:
        """Inverse of :meth:`flat_index`."""
        if not 0 <= flat < self.total_dim:
            raise ValueError(f"flat index {flat} out of range")
        out = []
        for dim in reversed(self.factor_dims):
            out.append(flat % dim)
            flat //= dim
        return tuple(reversed(out))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A state on a labeled space: a read-only square complex copy of
    ``matrix``, whose ``layout`` :func:`partial_trace` and :func:`tensor` read.

    Construction is deliberately cheap: validity (Hermiticity, unit trace,
    positivity) is only checked by an explicit :meth:`validate` call so
    that hot loops are not paying for eigendecompositions.  The
    steady-state solver always validates its output.  Two states are
    equal when their layouts and matrices are; states are unhashable.
    """

    layout: HilbertLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat, dim = np.array(self.matrix, dtype=complex), self.layout.total_dim
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return self.layout == other.layout and np.array_equal(self.matrix, other.matrix)

    def validate(self) -> None:
        """Raise ``ValueError`` unless this is a physical state."""
        bad, why = state_defects(self.matrix[None])
        if bad[0]:
            raise ValueError(why(0))

    def populations(self) -> np.ndarray:
        """Real diagonal of the matrix (no diagonality check)."""
        return self.matrix.diagonal().real.copy()


def state_defects(mats: np.ndarray) -> tuple:
    """One flag per matrix of a stack ``(n, d, d)`` that is not a physical
    state, and a function of its index that says why."""
    adjoint = mats.conj().swapaxes(-1, -2)
    herm = np.abs(mats - adjoint).max(axis=(-2, -1))
    tr = np.trace(mats, axis1=-2, axis2=-1)
    lowest = np.linalg.eigvalsh((mats + adjoint) / 2.0).min(axis=-1)

    def why(k: int) -> str:
        if herm[k] > HERMITICITY_TOL:
            return f"density matrix not Hermitian: max |rho - rho^+| = {herm[k]:.3e}"
        if abs(tr[k] - 1.0) > TRACE_TOL:
            return f"density matrix trace {complex(tr[k])} differs from 1"
        return f"density matrix has negative eigenvalue {lowest[k]:.3e}"

    return (herm > HERMITICITY_TOL) | (abs(tr - 1.0) > TRACE_TOL) | (lowest < EIGENVALUE_FLOOR), why


def gibbs_qubit(beta: float, omega: float) -> DensityMatrix:
    """Thermal state of a qubit with Hamiltonian H = omega |1><1|.

    Returns diag(1, a) / (1 + a) with a = exp(-beta*omega) in the
    {|0>, |1>} basis.  ``beta`` is an inverse energy (>= 0, with beta = 0
    the maximally mixed infinite-temperature state), ``omega`` an energy.
    """
    if not (math.isfinite(beta) and math.isfinite(omega)):
        raise ValueError("beta and omega must be finite")
    if beta < 0:
        raise ValueError(f"negative inverse temperature beta = {beta}")
    if omega <= 0:
        raise ValueError(f"qubit frequency must be positive, got {omega}")
    a = math.exp(-beta * omega)
    z = 1.0 + a
    mat = np.array([[1.0 / z, 0.0], [0.0, a / z]], dtype=complex)
    return DensityMatrix(HilbertLayout((2,)), mat)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; layouts concatenate."""
    layout = HilbertLayout(a.layout.factor_dims + b.layout.factor_dims)
    return DensityMatrix(layout, np.kron(a.matrix, b.matrix))


def tensor_all(states: list[DensityMatrix] | tuple[DensityMatrix, ...]) -> DensityMatrix:
    """Left-fold of :func:`tensor` over a non-empty list of states."""
    if not states:
        raise ValueError("tensor_all needs at least one state")
    return reduce(tensor, states)


def partial_trace(rho: DensityMatrix, keep: tuple[int, ...] | list[int]) -> DensityMatrix:
    """Trace out all tensor factors not listed in ``keep``.

    ``keep`` holds indices into ``rho.layout.factor_dims`` (order
    irrelevant; the kept factors stay in their original order).  The
    trace is preserved exactly.
    """
    keep_sorted = sorted(set(int(k) for k in keep))
    dims = rho.layout.factor_dims
    n = len(dims)
    if not keep_sorted:
        raise ValueError("keep set must be non-empty")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} factors")

    # View the matrix as a rank-2n tensor (row multi-index, column
    # multi-index) and contract the traced row/column axis pairs.
    tensor_view = rho.matrix.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep_sorted]
    for offset, axis in enumerate(traced):
        # Each trace removes one row axis and one column axis; earlier
        # contractions shift the remaining axis numbers down.
        row_ax = axis - offset
        col_ax = axis - offset + (n - offset)
        tensor_view = np.trace(tensor_view, axis1=row_ax, axis2=col_ax)
    kept_dims = tuple(dims[i] for i in keep_sorted)
    reduced_dim = math.prod(kept_dims)
    reduced = tensor_view.reshape(reduced_dim, reduced_dim)
    return DensityMatrix(HilbertLayout(kept_dims), reduced)


def expectation(obs: np.ndarray, rho: DensityMatrix) -> complex:
    """Tr[obs . rho] for an array ``obs`` of the state's shape; complex in
    general, real up to round-off for Hermitian obs."""
    if np.shape(obs) != rho.matrix.shape:
        raise ValueError(f"shape mismatch: observable {np.shape(obs)} vs state {rho.matrix.shape}")
    # Tr[A B] = sum_{ij} A_ij B_ji without forming the product.
    return complex(np.sum(obs * rho.matrix.T))
