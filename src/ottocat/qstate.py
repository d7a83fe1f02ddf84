"""Dense complex linear algebra on small labeled tensor-product spaces.

Everything downstream (engine cycles, Lindblad steady states) runs on
Hilbert spaces of a few dozen dimensions at most (the d = 6 ladder has
24), so all storage is dense complex double (row-major numpy arrays) and
all eigenproblems use direct LAPACK solves.  A state is the one labeled
matrix, :class:`DensityMatrix`, on a layout: the tuple of its factor
dimensions (catalyst, hot, cold for an engine), flat indices row-major as
in ``numpy.kron``.  Operators (observables, Hamiltonians, unitaries) are
plain square arrays on the state's flat basis.
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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A state on a labeled space: a read-only square complex copy of
    ``matrix``, whose ``layout``, a tuple of Python-int factor dimensions,
    :func:`partial_trace` and :func:`tensor` read.

    Construction is deliberately cheap: validity (Hermiticity, unit trace,
    positivity) is only checked by an explicit :meth:`validate` call so
    that hot loops are not paying for eigendecompositions.  The
    steady-state solver always validates its output.  Two states are
    equal when their layouts and matrices are; states are unhashable, and
    a state compared with an array is unequal to it.
    """

    __array_ufunc__ = None  # ``array == state`` defers to :meth:`__eq__`

    layout: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        layout = tuple(as_index(d, "factor dimension") for d in self.layout)
        if not layout:
            raise ValueError("layout needs at least one tensor factor")
        if any(d < 1 for d in layout):
            raise ValueError(f"factor dimensions must be >= 1, got {layout}")
        mat, dim = np.array(self.matrix, dtype=complex), math.prod(layout)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "layout", layout)
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
    return DensityMatrix((2,), mat)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; layouts concatenate."""
    return DensityMatrix(a.layout + b.layout, np.kron(a.matrix, b.matrix))


def tensor_all(states: list[DensityMatrix] | tuple[DensityMatrix, ...]) -> DensityMatrix:
    """Left-fold of :func:`tensor` over a non-empty list of states."""
    if not states:
        raise ValueError("tensor_all needs at least one state")
    return reduce(tensor, states)


def partial_trace(rho: DensityMatrix, keep: tuple[int, ...] | list[int]) -> DensityMatrix:
    """Trace out all tensor factors not listed in ``keep``.

    ``keep`` holds indices into ``rho.layout`` (order
    irrelevant; the kept factors stay in their original order).  The
    trace is preserved exactly.
    """
    keep_sorted = sorted(set(as_index(k, "keep index") for k in keep))
    dims = rho.layout
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
    return DensityMatrix(kept_dims, reduced)


def expectation(obs: np.ndarray, rho: DensityMatrix) -> complex:
    """Tr[obs . rho] for an array ``obs`` of the state's shape; complex in
    general, real up to round-off for Hermitian obs."""
    if np.shape(obs) != rho.matrix.shape:
        raise ValueError(f"shape mismatch: observable {np.shape(obs)} vs state {rho.matrix.shape}")
    # Tr[A B] = sum_{ij} A_ij B_ji without forming the product.
    return complex(np.sum(obs * rho.matrix.T))
