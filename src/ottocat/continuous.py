"""Autonomous engine: local Lindblad dynamics driven to a steady state.

The generator acts on the full space catalyst (x) hot (x) cold,

    L[rho] = -i [V0, rho] + D_h[rho] + D_c[rho],

with the static resonant interaction V0 = sum_i g_i (|u_i><d_i| + h.c.)
and one local thermal dissipator per bath qubit.  Rates follow detailed
balance, gamma_plus / gamma_minus = exp(-beta*omega), with gamma_plus
pumping |0> -> |1>.  Everything lives in the interaction picture where
V0 is time-independent; lab-frame transients are out of scope.

Superoperators are stored as dim^2 x dim^2 matrices acting on
column-stacked operators, vec(A X B) = (B^T (x) A) vec(X), so the
commutator part of the generator is -i (I (x) V0 - V0^T (x) I) and the
Hilbert-Schmidt adjoint (Heisenberg picture) is the plain conjugate
transpose.

The stationary state is found twice — by a trace-normalized bordered
solve of the full generator, and as a kernel eigenvector — and the two
must agree, so a silent drift into a wrong subspace cannot go unnoticed.
The bordered solve is refined in extended precision on the block of
|0><0| alone, the only block its solution lives on.
Heat currents are likewise computed along two routes (energy-difference
sums over the pair transfer rates vs. adjoint dissipators applied to the
energy operators) and cross-checked on every call.

The eigenvector route is a block certificate: no nonzero entry of the
generator couples two connected components of its sparsity pattern, so
its spectrum is the union of theirs.  They come in mirror pairs (|i><j|
against |j><i|), exact complex conjugates, certified entry by entry.  The
component of the |0><0| population gets a real eigendecomposition and
yields the kernel vector; one of each other pair only its eigenvalues.
The components are found once per structure.

Specs of one structure are solved and audited in stacks
(:func:`~ottocat.engine_spec.stacked`): each eigen-solve, the refinement,
the checks, the pair currents and both baths' adjoint dissipators, formed
from the cached jump positions and applied in one stacked product, are
shared by the stack; only the LU of the full generator stays one per
spec.  Every result equals the one of a stack of one bit for bit, and a
failure raises the bare message, with no spec's name or position.

Sign conventions match the two-stroke module: J_k > 0 is energy drawn
from bath k, power > 0 is extracted.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine_spec import BathParams, EngineSpec, fail, level_table, pair_sums, pair_table, stacked
from .qstate import DensityMatrix, HilbertLayout, Operator, state_defects
# Not called here: bench/test_bench.py checks that the tracer wraps and
# restores ``continuous.expectation``.
from .qstate import expectation  # noqa: F401

__all__ = [
    "KERNEL_TOL",
    "SOLVER_CROSS_TOL",
    "CURRENT_IMAG_TOL",
    "CURRENT_CROSS_TOL",
    "FIRST_LAW_TOL",
    "Superoperator",
    "SteadyStateReport",
    "build_interaction",
    "build_dissipator",
    "build_liouvillian",
    "stationary_state",
    "probability_currents",
    "currents_and_power",
    "ness_condition_checks",
    "entropy_production_rate",
    "steady_state_report",
    "steady_state_reports",
]

#: Eigenvalues whose real part is within this fraction of the spectral
#: scale count as stationary; two of them means a degenerate kernel.
KERNEL_TOL = 1e-10

#: Max elementwise disagreement between the two steady-state routes.
SOLVER_CROSS_TOL = 1e-9

#: Allowed imaginary part on measured (Hermitian-observable) currents.
CURRENT_IMAG_TOL = 1e-10

#: Relative agreement required between the two heat-current routes.
CURRENT_CROSS_TOL = 1e-9

#: Specs per stack in :func:`steady_state_reports`, chosen from peak RSS.
#: Stacks of 1, 8, 16, 32 and 100 ran the golden sweep in 117, 62, 56, 54
#: and 50 ms (96 ms one spec at a time) and raised a default ``verify``'s
#: peak RSS by 0.5, 0.7, 0.9, 1.4 and 3.9 MB over 41.5 MB (one BLAS thread).
_STACK = 16

#: Specs per stacked product of the audit's dense dim^2 x dim^2 adjoints,
#: so the audit of a stack holds a quarter of its 16 adjoints at a time.
_ADJOINT_STACK = 4

_NON_ERGODIC = "non-ergodic Liouvillian: steady state not unique"

#: Allowed violation of P = J_h + J_c (power accumulated over pair
#: resonance frequencies vs. the two heat currents separately).
FIRST_LAW_TOL = 1e-10


def _vec(mat: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(mat).reshape(-1, order="F")


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`_vec`; on a stack of vectors, of each."""
    return np.asarray(v).reshape(*np.shape(v)[:-1], dim, dim).swapaxes(-1, -2)


@dataclass(frozen=True)
class Superoperator:
    """Linear map on operators, stored in column-stacking convention."""

    layout: HilbertLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        d2 = self.layout.total_dim ** 2
        if mat.shape != (d2, d2):
            raise ValueError(f"superoperator must be {d2}x{d2}, got {mat.shape}")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def apply(self, op: Operator) -> Operator:
        if op.layout.factor_dims != self.layout.factor_dims:
            raise ValueError("layout mismatch between superoperator and operand")
        return Operator(self.layout, _unvec(self.matrix @ _vec(op.entries), self.dim))

    def adjoint(self) -> "Superoperator":
        """Hilbert-Schmidt adjoint: the Heisenberg-picture generator."""
        return Superoperator(self.layout, self.matrix.conj().T)


@dataclass(frozen=True)
class SteadyStateReport:
    """Steady state of the autonomous engine plus its audited energetics.

    ``currents[i]`` is the stationary transfer rate of swap pair i (the
    continuous analog of the per-cycle delta_p_i).  ``efficiency`` is
    ``None`` when no heat flows from the hot bath.
    ``entropy_production`` is sigma = -sum_k beta_k (J_k - <D_k^+[V0]>).
    ``int_vanish_residuals`` holds |<D_k^+[V0]>| for the hot and cold
    dissipators, ``catalysis_residuals`` the signed net transfer rate
    through each catalyst level, and ``first_law_residual`` the gap
    |P - J_h - J_c| between power and the two heat currents.
    """

    rho_ss: DensityMatrix
    currents: tuple[float, ...]
    j_hot: float
    j_cold: float
    power: float
    efficiency: float | None
    spectral_gap: float
    clausius_margin: float
    entropy_production: float
    int_vanish_residuals: tuple[float, float]
    catalysis_residuals: tuple[float, ...]
    first_law_residual: float
    regime: str


def _interactions(specs: Sequence[EngineSpec]) -> np.ndarray:
    """vec(V0) of each spec of a stack of one structure."""
    dim = specs[0].dim
    v0 = np.zeros((len(specs), dim * dim), dtype=complex)
    for i, pair in enumerate(specs[0].swaps):
        g = np.array([spec.swaps[i].g for spec in specs])
        v0[:, pair.u + pair.d * dim] += g
        v0[:, pair.d + pair.u * dim] += g
    return v0


def build_interaction(spec: EngineSpec) -> Operator:
    """V0 = sum_i g_i (|u_i><d_i| + |d_i><u_i|); a stack of one."""
    return Operator(spec.layout, _unvec(_interactions([spec])[0], spec.dim))


@functools.lru_cache(maxsize=64)
def _bath_jumps(
    factor_dims: tuple[int, ...], which_qubit: str
) -> tuple[np.ndarray, ...]:
    """(raising, lowering) jumps of one bath qubit, the flat positions where
    either adjoint is nonzero, and both adjoints there.

    Raising |0> -> |1> is the gamma_plus jump; lowering |1> -> |0> the
    gamma_minus jump.  The layout is (catalyst, hot, cold).  None depends
    on the rates, so each is built once per layout and bath qubit and
    handed out read-only.  The jumps are real, so a(R^+) + b(L^+) equals
    (aR + bL)^+ bit for bit.
    """
    if len(factor_dims) != 3 or factor_dims[1:] != (2, 2):
        raise ValueError(f"expected a (catalyst, 2, 2) layout, got {factor_dims}")
    raise_2 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|
    lower_2 = raise_2.conj().T  # |0><1|
    eye_cat = np.eye(factor_dims[0], dtype=complex)
    eye_2 = np.eye(2, dtype=complex)
    if which_qubit == "hot":
        raising = np.kron(np.kron(eye_cat, raise_2), eye_2)
        lowering = np.kron(np.kron(eye_cat, lower_2), eye_2)
    elif which_qubit == "cold":
        raising = np.kron(np.kron(eye_cat, eye_2), raise_2)
        lowering = np.kron(np.kron(eye_cat, eye_2), lower_2)
    else:
        raise ValueError(f"bath selector must be 'hot' or 'cold', got {which_qubit!r}")
    jumps = (_jump_superoperator(raising), _jump_superoperator(lowering))
    adjoints = [jump.conj().T.ravel() for jump in jumps]
    positions = np.flatnonzero((adjoints[0] != 0) | (adjoints[1] != 0))
    jumps += (positions, *(adjoint[positions] for adjoint in adjoints))
    for array in jumps:
        array.setflags(write=False)
    return jumps


def _jump_superoperator(lindblad_op: np.ndarray) -> np.ndarray:
    """L . L^+ - (1/2){L^+ L, .} in column-stacking form."""
    dim = lindblad_op.shape[0]
    eye = np.eye(dim, dtype=complex)
    ldl = lindblad_op.conj().T @ lindblad_op
    return (
        np.kron(lindblad_op.conj(), lindblad_op)
        - 0.5 * np.kron(eye, ldl)
        - 0.5 * np.kron(ldl.T, eye)
    )


def build_dissipator(bath: BathParams, which_qubit: str, layout: HilbertLayout) -> Superoperator:
    """Local thermal dissipator of one bath qubit, identity elsewhere.

    gamma_plus drives the raising jump |0> -> |1> and gamma_minus the
    lowering jump, so the bath's own Gibbs qubit is an exact fixed point.
    """
    raising, lowering = _bath_jumps(layout.factor_dims, which_qubit)[:2]
    return Superoperator(layout, bath.gamma_plus * raising + bath.gamma_minus * lowering)


@functools.lru_cache(maxsize=64)
def _generator_plan(factor_dims: tuple[int, ...], pairs: tuple) -> tuple[np.ndarray, tuple]:
    """``(pieces, blocks)``: -i[|u><d| + |d><u|, .] of each swap pair (u, d),
    then the raising and lowering jumps of the hot and of the cold qubit, on
    the flat positions where any is nonzero, and the :func:`_kernel_blocks`
    of that pattern.  Built once per structure."""
    dim = math.prod(factor_dims)
    eye = np.eye(dim, dtype=complex)
    pieces = []
    for u, d in pairs:
        swap = np.zeros((dim, dim), dtype=complex)
        swap[u, d] = swap[d, u] = 1.0
        pieces.append(-1j * (np.kron(eye, swap) - np.kron(swap.T, eye)))
    pieces += [*_bath_jumps(factor_dims, "hot")[:2], *_bath_jumps(factor_dims, "cold")[:2]]
    pattern = np.logical_or.reduce([piece.ravel() != 0 for piece in pieces])
    gathered = np.stack([piece.ravel()[pattern] for piece in pieces])
    gathered.setflags(write=False)
    return gathered, _kernel_blocks(pattern.reshape(dim * dim, -1))


def _generator_values(specs: Sequence[EngineSpec], pieces: np.ndarray) -> np.ndarray:
    """One row per spec: its generator's nonzero entries,
    sum_i g_i C_i + (gamma_+ R + gamma_- L)_h + (gamma_+ R + gamma_- L)_c,
    each by the dense sum's operations in the same order (bit-identical)."""
    *commutators, raise_h, lower_h, raise_c, lower_c = pieces
    rates = np.array(
        [[*(pair.g for pair in s.swaps), s.hot.gamma_plus, s.hot.gamma_minus,
          s.cold.gamma_plus, s.cold.gamma_minus] for s in specs],
        dtype=complex,
    )
    *couplings, up_h, down_h, up_c, down_c = rates.T[..., None]
    coherent = np.zeros((len(specs), pieces.shape[1]), dtype=complex)
    for g, commutator in zip(couplings, commutators):
        coherent += g * commutator
    return coherent + (up_h * raise_h + down_h * lower_h) + (up_c * raise_c + down_c * lower_c)


def build_liouvillian(spec: EngineSpec) -> Superoperator:
    """Full generator -i[V0, .] + D_h + D_c, evaluated on its nonzero entries
    only (:func:`_generator_values`)."""
    pieces, blocks = _generator_plan(*spec.structure)
    total = np.zeros(spec.dim**4, dtype=complex)
    total[blocks[0]] = _generator_values([spec], pieces)[0]
    return Superoperator(spec.layout, total.reshape(spec.dim**2, -1))


def _normalize_state(mat: np.ndarray) -> np.ndarray:
    """Rotate away any global phase, hermitize, and scale to unit trace;
    on a stack of matrices, each one."""
    tr = np.trace(mat, axis1=-2, axis2=-1)
    bound = 1e-14 * np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))
    fail(np.abs(tr) < bound, ValueError, "candidate steady state is traceless; cannot normalize")
    mat = mat / tr[..., None, None]
    herm = (mat + mat.conj().swapaxes(-1, -2)) / 2.0
    return herm / np.trace(herm, axis1=-2, axis2=-1).real[..., None, None]


def _refined_bordered_solve(
    dim: int, values: np.ndarray, sub: np.ndarray, blocks: tuple
) -> np.ndarray:
    """Solve the bordered systems (row 0 the trace row, right-hand side
    e_0) of a stack of generators with ``values`` on ``blocks``' pattern.

    One LU solve of each full matrix, assembled one at a time since its
    bits depend on the full embedding, then two steps of iterative
    refinement with residuals in extended precision, so stiff generators
    (fast rates next to a slow transfer mode) still yield currents
    accurate near machine level.  Partial pivoting never mixes blocks
    that no entry couples, so each solve is exactly zero off the block of
    |0><0| (checked), and both refinement steps run on ``sub``, the
    stack's bordered blocks of |0><0|, alone.
    """
    positions, main = blocks[:2]
    n = dim * dim
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = 1.0
    solution = np.empty((len(values), n), dtype=complex)
    for row, entries in enumerate(values):
        bordered = np.zeros((n, n), dtype=complex)
        bordered.flat[positions] = entries
        bordered[0, :] = 0.0
        bordered[0, :: dim + 1] = 1.0  # the diagonal (j, j) in column stacking
        try:
            solution[row] = np.linalg.solve(bordered, rhs)
        except np.linalg.LinAlgError:
            raise ValueError(_NON_ERGODIC) from None
    block = solution[:, main]
    outside = np.count_nonzero(block, axis=1) != np.count_nonzero(solution, axis=1)
    fail(outside, AssertionError, "bordered solve is nonzero outside the block of |0><0|")
    sub_ld = sub.astype(np.clongdouble)
    rhs_ld = rhs[main].astype(np.clongdouble)
    for _ in range(2):
        residual = rhs_ld - (sub_ld @ block.astype(np.clongdouble)[..., None])[..., 0]
        block = block + np.linalg.solve(sub, residual.astype(complex)[..., None])[..., 0]
    solution[:, main] = block
    return solution


def _kernel_blocks(mask: np.ndarray) -> tuple:
    """Independent blocks of an n x n generator whose nonzero entries are ``mask``.

    The blocks are the connected components of ``mask | mask.T``; no entry
    couples two blocks, so the spectrum is the union of the blocks'
    spectra.  The mirror i + j*dim <-> j + i*dim (|i><j| <-> |j><i|) of a
    Hermiticity-preserving generator maps blocks onto blocks; a pattern
    where it does not raises ``ValueError``.  Returns
    ``(positions, main, (T, T^-1), others, gather, mirrored)``: the flat
    positions of the nonzero entries; the block of vec index 0 and its real
    basis (row k of T reads x_k on a population, x_k + x_k' on the first of
    a coherence pair k < k', i(x_k' - x_k) on the second); ``(members,
    paired)`` per block size for one block of every other mirror pair; and
    where, among the nonzero entries (-1: a zero), to read those blocks
    row-major, and each entry's mirror image.
    """
    n = len(mask)
    linked = mask | mask.T
    label = np.arange(n)
    while True:  # every index takes the least label around it, until none changes
        least = np.minimum(label, np.where(linked, label, n).min(axis=1))
        if np.array_equal(least, label):
            break
        label = least
    roots, block_of = np.unique(label, return_inverse=True)
    blocks = [np.flatnonzero(label == root) for root in roots]
    dim = math.isqrt(n)
    mirror = (np.arange(n) % dim) * dim + np.arange(n) // dim
    by_size = {}  # (size, whether a partner block shares the spectrum) -> blocks
    for b, block in enumerate(blocks):
        partner = int(block_of[mirror[block[0]]])
        if not np.array_equal(np.sort(mirror[block]), blocks[partner]):
            raise ValueError("generator does not preserve Hermiticity")
        if 0 < b <= partner:
            by_size.setdefault((len(block), partner != b), []).append(block)
    main = blocks[0]
    k = np.arange(len(main))
    mk = np.searchsorted(main, mirror[main])
    to_real = (
        np.where(k > mk, -1j, 1.0)[:, None] * np.eye(len(main))
        + np.where(k < mk, 1.0, 1j * (k > mk))[:, None] * np.eye(len(main))[mk]
    )
    others = tuple((np.array(members), paired) for (_, paired), members in by_size.items())
    kept = [main, *(block for members, _ in others for block in members)]
    grids = [np.meshgrid(block, block, indexing="ij") for block in kept]
    rows, cols = (np.concatenate([grid[i].ravel() for grid in grids]) for i in (0, 1))
    positions = np.flatnonzero(mask)
    entry_of = np.where(mask.ravel(), np.cumsum(mask, dtype=np.intp) - 1, -1)
    gather = entry_of[rows * n + cols]
    mirrored = entry_of[mirror[positions // n] * n + mirror[positions % n]]
    real_basis = (to_real, np.linalg.inv(to_real))
    for array in (positions, main, *real_basis, *(m for m, _ in others), gather, mirrored):
        array.setflags(write=False)
    return positions, main, real_basis, others, gather, mirrored


def _block_spectrum(padded: np.ndarray, blocks: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``(eigvals, main_vecs)`` of a stack of generators on ``blocks``
    (:func:`_kernel_blocks`), one row of nonzero entries each, then a zero.

    Each row of ``eigvals`` starts with the block of |0><0|, in the order
    of the columns of its right eigenvectors ``main_vecs``.  One exact
    comparison certifies every entry as the conjugate of its mirror image,
    or raises ``ValueError``; then one real ``eig`` per stack runs on the
    block of |0><0| in its real basis, one ``eigvals`` per block size on
    one block of every other mirror pair.
    """
    _, main, (to_real, from_real), others, gather, mirrored = blocks
    broken = (padded[:, mirrored] != padded[:, :-1].conj()).any(axis=1)
    fail(broken, ValueError, "generator does not preserve Hermiticity")
    entries = padded[:, gather]
    start = len(main) ** 2
    # Real in exact arithmetic by the certificate; the rest is round-off.
    real = (to_real @ entries[:, :start].reshape(-1, len(main), len(main)) @ from_real).real
    main_vals, real_vecs = np.linalg.eig(real)
    parts = [main_vals]
    for members, paired in others:
        count, size = members.shape
        stop = start + count * size**2
        vals = np.linalg.eigvals(entries[:, start:stop].reshape(-1, size, size))
        vals = vals.reshape(len(padded), -1)
        parts += [vals, vals.conj()] if paired else [vals]
        start = stop
    return np.concatenate(parts, axis=1), from_real @ real_vecs


def _stationary_stack(
    layout: HilbertLayout, values: np.ndarray, blocks: tuple
) -> list[tuple[DensityMatrix, float]]:
    """:func:`stationary_state` of a stack of generators on one pattern,
    ``values[k]`` the nonzero entries of the k-th, ``blocks`` the pattern's
    :func:`_kernel_blocks`."""
    dim = layout.total_dim
    count, main = len(values), blocks[1]
    padded = np.concatenate([values, np.zeros((count, 1))], axis=1)
    eigvals, main_vecs = _block_spectrum(padded, blocks)
    scale = np.abs(eigvals).max(axis=1)
    fail(scale == 0.0, ValueError, "generator is identically zero; every state is stationary")
    zero_mask = np.abs(eigvals.real) <= KERNEL_TOL * scale[:, None]
    n_zero = np.count_nonzero(zero_mask, axis=1)
    fail(n_zero == 0, ValueError, "no stationary state found (kernel is numerically empty)")
    fail(n_zero > 1, ValueError, _NON_ERGODIC)
    main_zero = zero_mask[:, : len(main)]
    fail(~main_zero.any(axis=1), ValueError, "stationary kernel lies outside the block "
          "of |0><0|; generator is not trace preserving")
    kernel_vecs = np.zeros((count, dim * dim), dtype=complex)
    kernel_vecs[:, main] = main_vecs[np.arange(count), :, main_zero.argmax(axis=1)]
    rho_eig = _normalize_state(_unvec(kernel_vecs, dim))

    # Primary route: bordered linear solve with the trace constraint.  The
    # block of |0><0| starts at vec index 0, so its row 0 is the trace row.
    sub = padded[:, blocks[4][: len(main) ** 2]].reshape(count, len(main), len(main))
    sub[:, 0, :] = main % (dim + 1) == 0
    solved = _refined_bordered_solve(dim, values, sub, blocks)
    rho_lin = _normalize_state(_unvec(solved, dim))

    apart = np.abs(rho_eig - rho_lin).max(axis=(1, 2))
    fail(apart > SOLVER_CROSS_TOL, AssertionError, lambda k: "steady-state routes "
          f"disagree by {apart[k]:.3e} (> {SOLVER_CROSS_TOL:.1e})")
    bad, why = state_defects(rho_lin)
    fail(bad, ValueError, why)
    decay = -np.where(zero_mask, -np.inf, eigvals.real).max(axis=1)
    return [(DensityMatrix(Operator(layout, rho)), float(d)) for rho, d in zip(rho_lin, decay)]


def stationary_state(liouvillian: Superoperator) -> tuple[DensityMatrix, float]:
    """Unique steady state and spectral gap of a generator.

    The spectrum is pooled block by block (see the module docstring): if
    mirror blocks are not exact complex conjugates, "generator does not
    preserve Hermiticity" raises ``ValueError``.  The kernel is the single
    eigenvalue whose real part sits within ``KERNEL_TOL`` of zero
    (relative to the spectral scale); two or more raise "non-ergodic
    Liouvillian: steady state not unique".  Each block holding a
    population has the identity, restricted to it, as a left null vector,
    so a trace-preserving generator whose populations fall into several
    blocks always has a degenerate kernel, and a unique kernel always
    lies in the block of |0><0|.

    The returned state comes from the better-conditioned route: one
    generator row replaced by the trace constraint, solved on the full
    generator, then refined in extended precision on the block of |0><0|,
    which holds the whole solution.  The kernel eigenvector of that block
    must agree with it elementwise to ``SOLVER_CROSS_TOL``.

    Returns ``(rho_ss, spectral_gap)`` where the gap is the smallest decay
    rate -Re(lambda) over the nonstationary spectrum; a stack of one.
    """
    mat = liouvillian.matrix
    blocks = _kernel_blocks(mat != 0)
    [state] = _stationary_stack(liouvillian.layout, mat[mat != 0][None], blocks)
    return state


def _currents(specs: Sequence[EngineSpec], rho: np.ndarray) -> np.ndarray:
    """:func:`probability_currents` of a stack of one structure, one row each."""
    table = pair_table(*specs[0].structure)
    g = np.array([[pair.g for pair in spec.swaps] for spec in specs])
    val = (1j * g) * rho[:, table.d, table.u] + (-1j * g) * rho[:, table.u, table.d]
    bad = np.abs(val.imag) > CURRENT_IMAG_TOL
    fail(bad.any(axis=1), AssertionError, lambda k: f"transfer rate of pair {np.argmax(bad[k])} "
         f"has imaginary part {val[k, np.argmax(bad[k])].imag:.3e}")
    return val.real


def probability_currents(spec: EngineSpec, rho_ss: DensityMatrix) -> np.ndarray:
    """Stationary transfer rate of each swap pair.

    Measured as the expectation of i g_i (|u_i><d_i| - |d_i><u_i|), read
    off its only two nonzero terms, i g_i rho[d_i, u_i] and
    -i g_i rho[u_i, d_i]; the observable is Hermitian, so an imaginary part
    beyond ``CURRENT_IMAG_TOL`` raises.  A stack of one.
    """
    if rho_ss.layout.factor_dims != spec.layout.factor_dims:
        raise ValueError(
            f"state layout {rho_ss.layout.factor_dims} does not match "
            f"spec layout {spec.layout.factor_dims}"
        )
    return _currents([spec], rho_ss.matrix[None])[0]


class _Exchange(NamedTuple):
    """Everything the audits read off a stack of states, one array each."""

    currents: np.ndarray
    j_hot: np.ndarray
    j_cold: np.ndarray
    power: np.ndarray
    adjoint_heat: np.ndarray  # <D_k^+[H_0k + V0]>, hot then cold
    int_vanish: np.ndarray  # |<D_k^+[V0]>|, hot then cold
    clausius_margin: np.ndarray
    entropy_production: np.ndarray
    catalyst_flow: tuple[np.ndarray, ...]


def _exchanges(specs: Sequence[EngineSpec], rho: np.ndarray) -> _Exchange:
    """Measure the pair currents of a stack of states once and derive every
    bath exchange: J_k, P and the catalyst flow through
    :func:`~ottocat.engine_spec.pair_sums`, and, from each bath's adjoint
    dissipator D_k^+ formed on the cached jump positions for
    ``_ADJOINT_STACK`` specs at a time, <D_k^+[H_0k + V0]> and <D_k^+[V0]>
    by stacked products; sigma = -sum_k beta_k (J_k - Re<D_k^+[V0]>)."""
    spec = specs[0]
    dims, dim, n = spec.layout.factor_dims, spec.dim, len(specs)
    currents = _currents(specs, rho)
    j_hot, j_cold, power, cat_flow = pair_sums(specs, currents.T)
    v0 = _interactions(specs)
    adjoints = np.zeros((min(n, _ADJOINT_STACK), dim**4), dtype=complex)  # one bath's, in turn
    heat, interaction, sigma = [], [], 0.0
    for label, excitation, j_k in (("hot", level_table(dims).hot, j_hot),
                                   ("cold", level_table(dims).cold, j_cold)):
        positions, raising, lowering = _bath_jumps(dims, label)[2:]
        baths = [getattr(s, label) for s in specs]
        gamma_plus, gamma_minus, omega, beta = np.array(
            [(b.gamma_plus, b.gamma_minus, b.omega, b.beta) for b in baths]
        ).T[..., None]
        values = gamma_plus * raising + gamma_minus * lowering
        target = v0.copy()
        target[:, :: dim + 1] += omega * excitation  # the diagonal of H_0k
        applied = np.empty((2, n, dim * dim), dtype=complex)
        for first in range(0, n, len(adjoints)):
            rows = slice(first, first + len(adjoints))
            chunk = adjoints[: len(values[rows])]
            chunk[:, positions] = values[rows]
            stack = chunk.reshape(len(chunk), dim * dim, -1)
            for out, operand in zip(applied, (target, v0)):
                out[rows] = np.matmul(stack, operand[rows, :, None])[..., 0]
        adjoints[:, positions] = 0.0
        # Tr[A rho] summed as expectation() sums it, without an Operator.
        heat_k, int_k = (applied * rho.reshape(n, -1)).sum(axis=-1)
        heat.append(heat_k)
        interaction.append([abs(z) for z in int_k.tolist()])  # Python's complex abs
        sigma = sigma - beta[:, 0] * (j_k - int_k.real)
    betas = np.array([(s.hot.beta, s.cold.beta) for s in specs]).T
    return _Exchange(currents, j_hot, j_cold, power, np.array(heat), np.array(interaction),
                     -(betas[0] * j_hot + betas[1] * j_cold), sigma, cat_flow)


def _audit(specs: Sequence[EngineSpec], states: list) -> list[SteadyStateReport]:
    """:func:`currents_and_power` of a stack of one structure, ``states`` its
    ``(rho_ss, spectral_gap)`` pairs."""
    ex = _exchanges(specs, np.stack([rho_ss.matrix for rho_ss, _ in states]))
    for label, direct, val in zip(("hot", "cold"), (ex.j_hot, ex.j_cold), ex.adjoint_heat):
        fail(np.abs(val.imag) > CURRENT_IMAG_TOL, AssertionError, lambda k:
             f"adjoint-route {label} current has imaginary part {val[k].imag:.3e}")
        fail(np.abs(direct - val.real) > CURRENT_CROSS_TOL * np.maximum(1.0, np.abs(direct)),
             AssertionError, lambda k: f"{label} heat current routes disagree: pairwise "
             f"{direct[k]!r} vs adjoint {float(val[k].real)!r}")
    first_law = np.abs(ex.power - (ex.j_hot + ex.j_cold))
    fail(first_law > FIRST_LAW_TOL * np.maximum(1.0, np.abs(ex.power)), AssertionError,
         lambda k: f"first-law residual {first_law[k]:.3e} exceeds {FIRST_LAW_TOL:.1e}")
    currents, int_vanish = ex.currents.tolist(), ex.int_vanish.T.tolist()
    catalyst_flow = list(zip(*(level.tolist() for level in ex.catalyst_flow)))
    return [
        SteadyStateReport(
            rho_ss=rho_ss,
            currents=tuple(currents[k]),
            j_hot=j_hot,
            j_cold=j_cold,
            power=power,
            efficiency=None if j_hot == 0.0 else power / j_hot,
            spectral_gap=float(gap),
            clausius_margin=margin,
            entropy_production=sigma,
            int_vanish_residuals=tuple(int_vanish[k]),
            catalysis_residuals=catalyst_flow[k],
            first_law_residual=residual,
            regime="engine" if (power > 0.0 and j_hot > 0.0) else "non_engine",
        )
        for k, ((rho_ss, gap), j_hot, j_cold, power, margin, sigma, residual) in enumerate(zip(
            states, ex.j_hot, ex.j_cold, ex.power, ex.clausius_margin, ex.entropy_production,
            first_law,
        ))
    ]


def currents_and_power(
    spec: EngineSpec, rho_ss: DensityMatrix, spectral_gap: float
) -> SteadyStateReport:
    """Audit the energetics of a steady state.

    Heat currents are formed from the pair transfer rates,
    J_k = sum_i d_eps_i^k <n_i>, and re-derived through the adjoint
    dissipators, J_k = <D_k^+[H_0k + V0]>; the two must agree to
    ``CURRENT_CROSS_TOL`` (relative).  Power is accumulated separately
    over the pair resonance frequencies, P = sum_i Omega_i <n_i>, and
    ``first_law_residual`` = |P - J_h - J_c| is required to stay below
    ``FIRST_LAW_TOL``.  ``spectral_gap`` is the gap the solve of
    ``rho_ss`` found; it is passed through to the report.  A stack of one.
    """
    [report] = _audit([spec], [(rho_ss, spectral_gap)])
    return report


def ness_condition_checks(spec: EngineSpec, rho_ss: DensityMatrix) -> dict:
    """Structural steady-state identities, returned as a residual bundle.

    * ``liouvillian_residual`` — max |L[rho_ss]| elementwise, how
      stationary the state actually is;
    * ``int_vanish`` — (|<D_h^+[V0]>|, |<D_c^+[V0]>|): the interaction
      energy exchanged with each bath, which must vanish for the
      entropy-production and Clausius statements to take their clean
      forms;
    * ``catalyst_flow`` — per catalyst level m, the signed net transfer
      rate sum_i (indicator_m(u_i) - indicator_m(d_i)) <n_i>, which must
      vanish for the engine to run without consuming its catalyst;
    * ``clausius_margin`` — -(beta_h J_h + beta_c J_c).

    All but the first are the values :func:`steady_state_report` reports.
    """
    l_rho = build_liouvillian(spec).apply(Operator(spec.layout, rho_ss.matrix))
    ex = _exchanges([spec], rho_ss.matrix[None])
    return {
        "liouvillian_residual": float(np.max(np.abs(l_rho.entries))),
        "int_vanish": tuple(ex.int_vanish[:, 0].tolist()),
        "catalyst_flow": tuple(float(level[0]) for level in ex.catalyst_flow),
        "clausius_margin": ex.clausius_margin[0],
    }


def entropy_production_rate(spec: EngineSpec, rho_ss: DensityMatrix) -> float:
    """Stationary irreversible entropy production rate.

    sigma = -sum_k beta_k (J_k - <D_k^+[V0]>).  In the steady state the
    system entropy is constant, so this is the entropy dumped into the
    baths per unit time; it is nonnegative for thermal dissipators in
    detailed balance, and coincides with the Clausius margin whenever
    the interaction terms <D_k^+[V0]> vanish.  At the steady state it is
    the report's ``entropy_production``.
    """
    return _exchanges([spec], rho_ss.matrix[None]).entropy_production[0]


def steady_state_report(spec: EngineSpec) -> SteadyStateReport:
    """Solve for the steady state and return its audited energetics: one
    solve, as a stack of one, and one measurement of the currents."""
    [report] = _reports([spec])
    return report


def _reports(specs: Sequence[EngineSpec]) -> list[SteadyStateReport]:
    """Solve and audit a stack of specs of one structure."""
    pieces, blocks = _generator_plan(*specs[0].structure)
    values = _generator_values(specs, pieces)
    return _audit(specs, _stationary_stack(specs[0].layout, values, blocks))


def steady_state_reports(specs: Sequence[EngineSpec]) -> list[SteadyStateReport]:
    """:func:`steady_state_report` of every spec, in input order, bit for bit,
    solved and audited in stacks of one structure of up to ``_STACK``; a
    failure raises for the first spec that fails, with its position as
    ``index``."""
    reports, fault = stacked(_reports, specs, size=_STACK)
    if fault is not None:
        raise fault
    return reports
