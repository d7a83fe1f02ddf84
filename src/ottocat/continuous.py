"""Autonomous engine: local Lindblad dynamics driven to a steady state.

The generator acts on the full space catalyst (x) hot (x) cold,

    L[rho] = -i [V0, rho] + D_h[rho] + D_c[rho],

with the static resonant interaction V0 = sum_i g_i (|u_i><d_i| + h.c.)
and one local thermal dissipator per bath qubit.  Rates follow detailed
balance, gamma_plus / gamma_minus = exp(-beta*omega), with gamma_plus
pumping |0> -> |1>.  Everything lives in the interaction picture where
V0 is time-independent; lab-frame transients are out of scope.

The generator acts on column-stacked operators, vec(A X B) =
(B^T (x) A) vec(X): its commutator part is
-i (I (x) V0 - V0^T (x) I), the Hilbert-Schmidt adjoint (Heisenberg
picture) the conjugate transpose.  Only :func:`build_liouvillian` and
:func:`build_dissipator` form one as a dense, read-only dim^2 x dim^2
matrix; the solver keeps the flat positions and values of the nonzero
entries, written from index rules.

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
yields the kernel vector; one of each other pair only its eigenvalues,
in real arithmetic too: the commutator's entries are purely imaginary and
the jumps' real, so a diagonal similarity by powers of i, exact in
floating point, makes such a block real.  The components and their
gauges are found once per structure.

Specs of one structure are solved and audited in stacks
(:func:`~ottocat.engine_spec.stacked`): each eigen-solve, the refinement,
the checks, the pair currents and both baths' adjoint dissipators, applied
from their cached two-term rows (no row has more), are shared by the
stack; only the LU of the full generator stays one per spec, the one
dense dim^2 x dim^2 matrix a solve holds.  Every result equals the
one of a stack of one bit for bit, and a failure raises the bare
message, with no spec's name or position.

Sign conventions match the two-stroke module: J_k > 0 is energy drawn
from bath k, power > 0 is extracted, and :func:`~ottocat.engine_spec.verdict`
judges (J_h, J_c, P) by the cycle's rule: margin, efficiency and regime.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .engine_spec import (
    BathParams, EngineSpec, fail, level_table, pair_sums, pair_table, stacked, verdict,
)
from .qstate import DensityMatrix, state_defects
# Not called here: bench/test_bench.py checks that the tracer wraps and
# restores ``continuous.expectation``.
from .qstate import expectation  # noqa: F401

__all__ = [
    "KERNEL_TOL",
    "SOLVER_CROSS_TOL",
    "CURRENT_IMAG_TOL",
    "CURRENT_CROSS_TOL",
    "FIRST_LAW_TOL",
    "SteadyStateReport",
    "build_dissipator",
    "build_liouvillian",
    "stationary_state",
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

#: Specs per stack in :func:`steady_state_reports`, chosen from memory: the
#: largest multiple of 16 whose full stack of qubit-catalyst specs stays
#: under the 1.35 MB that ``tests/test_rows.py`` allows a solve.  Stacks of
#: 32, 64 and 112 ran the golden sweep in 41.7, 38.7 and 37.7 ms (median of
#: 40, interleaved, on 2 vCPUs with one BLAS thread), a default ``verify``
#: peaked at 41.4, 41.6 and 41.8 MB RSS, and the solve peaked at 0.58, 0.86
#: and 1.28 MB traced on a full qubit-catalyst stack (1.42 MB at 128) and at
#: 0.81, 0.97 and 1.29 MB on the golden specs.  Larger catalysts take more.
_STACK = 112

#: Specs per chunk of the solve's largest temporaries: the generator terms,
#: the block of |0><0| in its real basis and the extended-precision
#: refinement residual.  A spec's rows of each depend on
#: that spec alone, so a chunk gives the bits of the whole stack.
_CHUNK = 32

_NON_ERGODIC = "non-ergodic Liouvillian: steady state not unique"

#: Allowed violation of P = J_h + J_c (power accumulated over pair
#: resonance frequencies vs. the two heat currents separately).
FIRST_LAW_TOL = 1e-10


def _chunks(count: int) -> list[slice]:
    """Consecutive slices of ``_CHUNK`` rows of a stack of ``count``."""
    return [slice(start, start + _CHUNK) for start in range(0, count, _CHUNK)]


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of column stacking, X.reshape(-1, order="F"); on a stack of
    vectors, of each."""
    return np.asarray(v).reshape(*np.shape(v)[:-1], dim, dim).swapaxes(-1, -2)


class SteadyStateReport(NamedTuple):
    """Steady state of the autonomous engine plus its audited energetics.

    ``currents[i]`` is the stationary transfer rate of swap pair i (the
    continuous analog of the per-cycle delta_p_i).  ``clausius_margin``,
    ``efficiency`` (``None`` when no heat flows from the hot bath) and
    ``regime`` are the :func:`~ottocat.engine_spec.verdict` of (J_h, J_c, P).
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


def _union(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union of the flat positions of ``(positions, values)``
    parts, and each part's values there, zero where it has none, a row each."""
    positions, where = np.unique(np.concatenate([p for p, _ in parts]), return_inverse=True)
    rows = np.zeros((len(parts), len(positions)))
    part = np.repeat(np.arange(len(parts)), [len(p) for p, _ in parts])
    rows[part, where] = np.concatenate([v for _, v in parts])
    return positions, rows


def _jump_entries(factor_dims: tuple[int, ...], which_qubit: str) -> list:
    """``(positions, values)`` of the nonzero entries of L . L^+ - (1/2){L^+ L, .}
    for the raising, then the lowering, jump L of one bath qubit, by index
    rule.  L moves |a> to |a + shift>, shift = +-stride, from each a whose
    qubit reads 0 (1), so L . L^+ moves |a><a'| to |a + shift><a' + shift|
    with value 1, and the anticommutator puts -(P_kk + P_ii)/2 on |k><i|,
    P = L^+ L; no value is rounded, here or in the dense sum."""
    dim = math.prod(factor_dims)
    stride, level, entries = 2 if which_qubit == "hot" else 1, np.arange(dim), []
    for reads, shift in ((0, stride), (1, -stride)):
        p = (level // stride % 2 == reads).astype(float)  # the diagonal of P
        moved = (level[p == 1, None] + level[p == 1] * dim).ravel()  # vec of |a><a'|
        half = -(p[:, None] + p).ravel() / 2
        diagonal = np.flatnonzero(half)
        entries.append((np.append((moved + shift * (dim + 1)) * dim**2 + moved,
                                  diagonal * (dim**2 + 1)),
                        np.append(np.ones(len(moved)), half[diagonal])))
    return entries


@functools.lru_cache(maxsize=64)
def _bath_jumps(factor_dims: tuple[int, ...], which_qubit: str) -> tuple:
    """``(positions, jumps, terms)``: the :func:`_union` of the raising and
    the lowering jump of one bath qubit (:func:`_jump_entries`) on a
    (catalyst, hot, cold) layout, and the two-term table of their adjoints.

    A row of the adjoints R^+ and L^+ holds the anticommutator term and at
    most one jump term; a third raises ``ValueError``.  ``terms`` holds
    ``(rows, cols, up, down)`` for the first nonzero of each row, then for
    the second: the rows, the columns read, and R^+ and L^+ there.  All is
    built once per layout and bath qubit and handed out read-only.  The
    jumps are real, so a(R^+) + b(L^+) equals (aR + bL)^+ bit for bit."""
    if len(factor_dims) != 3 or factor_dims[1:] != (2, 2):
        raise ValueError(f"expected a (catalyst, 2, 2) layout, got {factor_dims}")
    if which_qubit not in ("hot", "cold"):
        raise ValueError(f"bath selector must be 'hot' or 'cold', got {which_qubit!r}")
    n = math.prod(factor_dims) ** 2
    positions, jumps = _union(_jump_entries(factor_dims, which_qubit))
    transposed = positions % n * n + positions // n  # (r, c) of a jump is (c, r) of its adjoint
    order = np.argsort(transposed)
    rows, cols = np.divmod(transposed[order], n)
    adjoints = jumps[:, order].astype(complex).conj()
    slot = np.arange(len(rows)) - np.searchsorted(rows, rows)  # k-th nonzero of its row
    if slot.max() > 1:
        raise ValueError(f"a row of the {which_qubit} adjoint holds more than two nonzeros")
    terms = tuple((rows[slot == k], cols[slot == k], *adjoints[:, slot == k]) for k in (0, 1))
    for array in (positions, jumps, *(a for term in terms for a in term)):
        array.setflags(write=False)
    return positions, jumps, terms


def build_dissipator(bath: BathParams, which_qubit: str, layout: tuple[int, ...]) -> np.ndarray:
    """Local thermal dissipator of one bath qubit, identity elsewhere, as a
    read-only column-stacked matrix.

    gamma_plus drives the raising jump |0> -> |1> and gamma_minus the
    lowering jump, so the bath's own Gibbs qubit is an exact fixed point.
    """
    positions, jumps, _ = _bath_jumps(layout, which_qubit)
    matrix = np.zeros(math.prod(layout) ** 4, dtype=complex)
    matrix[positions] = bath.gamma_plus * jumps[0] + bath.gamma_minus * jumps[1]
    matrix.setflags(write=False)
    return matrix.reshape(math.prod(layout) ** 2, -1)


@functools.lru_cache(maxsize=64)
def _generator_plan(factor_dims: tuple[int, ...], pairs: tuple) -> tuple[np.ndarray, tuple]:
    """``(pieces, blocks)``: -i[|u><d| + |d><u|, .] of each swap pair (u, d),
    then the raising and lowering jumps of the hot and of the cold qubit, at
    their :func:`_union`, and the :func:`_kernel_blocks` of that pattern,
    the commutators' entries imaginary and the jumps' real.  A commutator
    is -i times 1 between u + k*dim and d + k*dim (V X) and -1 between
    k + u*dim and k + d*dim (X V), both ways, for each k, rounded as a dense
    construction rounds it.  Built once per structure."""
    dim = math.prod(factor_dims)
    k, parts = np.arange(dim), []
    for u, d in pairs:
        rows = np.concatenate([u + k * dim, d + k * dim, k + u * dim, k + d * dim])
        cols = np.concatenate([d + k * dim, u + k * dim, k + d * dim, k + u * dim])
        parts.append((rows * dim**2 + cols, np.repeat([1.0, -1.0], 2 * dim)))
    for label in ("hot", "cold"):
        positions, jumps, _ = _bath_jumps(factor_dims, label)
        parts += [(positions, jump) for jump in jumps]
    positions, coefficients = _union(parts)
    imaginary, real = (part.any(axis=0) for part in np.split(coefficients, [len(pairs)]))
    blocks = _kernel_blocks(dim**2, positions, real, imaginary)
    pieces = coefficients.astype(complex)
    pieces[: len(pairs)] *= -1j
    pieces.setflags(write=False)
    return pieces, blocks


def _generator_values(specs: Sequence[EngineSpec], pieces: np.ndarray) -> np.ndarray:
    """One row per spec: its generator's nonzero entries,
    sum_i g_i C_i + (gamma_+ R + gamma_- L)_h + (gamma_+ R + gamma_- L)_c,
    each by the dense sum's operations in the same order (bit-identical),
    then a zero, the entry that :func:`_kernel_blocks` reads for a zero."""
    *commutators, raise_h, lower_h, raise_c, lower_c = pieces
    rates = np.array(
        [[*(pair.g for pair in s.swaps), s.hot.gamma_plus, s.hot.gamma_minus,
          s.cold.gamma_plus, s.cold.gamma_minus] for s in specs],
        dtype=complex,
    )
    values = np.zeros((len(specs), pieces.shape[1] + 1), dtype=complex)
    for chunk in _chunks(len(specs)):
        *couplings, up_h, down_h, up_c, down_c = rates[chunk].T[..., None]
        total = values[chunk, :-1]
        for g, commutator in zip(couplings, commutators):
            total += g * commutator
        for up, raising, down, lowering in ((up_h, raise_h, down_h, lower_h),
                                            (up_c, raise_c, down_c, lower_c)):
            jumps = up * raising
            jumps += down * lowering
            total += jumps
    return values


def build_liouvillian(spec: EngineSpec) -> np.ndarray:
    """Full generator -i[V0, .] + D_h + D_c as a read-only column-stacked
    matrix, evaluated on its nonzero entries only (:func:`_generator_values`)."""
    pieces, blocks = _generator_plan(*spec.structure)
    total = np.zeros(spec.dim**4, dtype=complex)
    total[blocks[0]] = _generator_values([spec], pieces)[0, :-1]
    total.setflags(write=False)
    return total.reshape(spec.dim**2, -1)


def _normalize_state(mat: np.ndarray) -> np.ndarray:
    """Rotate away any global phase, hermitize, and scale to unit trace;
    on a stack of matrices, each one."""
    tr = np.trace(mat, axis1=-2, axis2=-1)
    bound = 1e-14 * np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))
    fail(np.abs(tr) < bound, ValueError, "candidate steady state is traceless; cannot normalize")
    mat = mat / tr[..., None, None]
    herm = mat + mat.conj().swapaxes(-1, -2)
    herm /= 2.0
    herm /= np.trace(herm, axis1=-2, axis2=-1).real[..., None, None]
    return herm


def _refined_bordered_solve(
    dim: int, values: np.ndarray, sub: np.ndarray, blocks: tuple
) -> np.ndarray:
    """Solve the bordered systems (row 0 the trace row, right-hand side
    e_0) of a stack of generators with ``values`` on ``blocks``' pattern.

    One LU solve of each full matrix, assembled one at a time in one dense
    buffer (a stacked solve gives the same bits: they depend on the
    matrix size, not the stack), then two steps of iterative
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
    bordered = np.zeros((n, n), dtype=complex)  # every spec writes the same positions
    for row, entries in enumerate(values):
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
    rhs_ld, residual = rhs[main].astype(np.clongdouble), np.empty_like(block)
    for _ in range(2):
        for chunk in _chunks(len(block)):  # extended precision a few specs at a time
            block_ld = block[chunk, :, None].astype(np.clongdouble)
            residual[chunk] = rhs_ld - (sub[chunk].astype(np.clongdouble) @ block_ld)[..., 0]
        block += np.linalg.solve(sub, residual[..., None])[..., 0]
    solution[:, main] = block
    return solution


def _kernel_blocks(n: int, positions: np.ndarray, real: np.ndarray, imaginary: np.ndarray) -> tuple:
    """Independent blocks of an n x n generator whose nonzero entries sit at
    the sorted flat ``positions``, with nonzero real parts where ``real``
    and nonzero imaginary parts where ``imaginary``.

    The blocks are the connected components of the pattern and its
    transpose; no entry couples two blocks, so the spectrum is the union
    of the blocks' spectra.  The mirror i + j*dim <-> j + i*dim (|i><j| <->
    |j><i|) of a Hermiticity-preserving generator maps blocks onto blocks;
    a pattern where it does not raises ``ValueError``.

    A block has a real gauge when each index k takes a parity p_k that
    stays across every real entry and flips across every imaginary one:
    then i^(p_l - p_k), one of 1, i and -i, times entry (k, l) rounds
    nothing and is real, a diagonal similarity, so the spectrum is kept.
    The parities are the components of the double cover, index k + n*p
    standing for k at parity p; a block where k and k + n meet (an entry
    with both parts, or an odd cycle of imaginary ones) has no gauge.
    Labels run along the nonzero entries both ways; no n x n array is formed.

    Returns ``(positions, main, (T, T^-1), others, gather, mirrored)``:
    ``positions``, read-only; the block of vec index 0 and its
    real basis (row k of T reads x_k on a population, x_k + x_k' on the
    first of a coherence pair k < k', i(x_k' - x_k) on the second);
    ``(members, paired, gauge)`` per block size, pairing and whether a
    gauge exists, for one block of every other mirror pair, ``gauge`` the
    factor of each entry of ``members`` read row-major, or ``None``; and
    where, among the nonzero entries (-1: a zero), to read those blocks
    row-major, and each entry's mirror image.
    """
    row, col = np.divmod(positions, n)
    # k + n*p is k at parity p: a real entry links like parities, an imaginary one unlike.
    head = np.concatenate([row[real], row[real] + n, row[imaginary], row[imaginary] + n])
    tail = np.concatenate([col[real], col[real] + n, col[imaginary] + n, col[imaginary]])
    cover, before = np.arange(2 * n), None
    while not np.array_equal(cover, before):  # a label: an index of the component, at most its own
        before = cover.copy()
        np.minimum.at(cover, head, cover[tail])
        np.minimum.at(cover, tail, cover[head])
        cover = cover[cover]
    label = np.minimum(cover[:n], cover[n:])
    gauged, parity = cover[:n] != cover[n:], (cover[:n] != label).astype(np.intp)
    roots, block_of = np.unique(label, return_inverse=True)
    blocks = [np.flatnonzero(label == root) for root in roots]
    dim = math.isqrt(n)
    mirror = (np.arange(n) % dim) * dim + np.arange(n) // dim
    by_kind = {}  # (size, whether a partner block shares the spectrum, gauged) -> blocks
    for b, block in enumerate(blocks):
        partner = int(block_of[mirror[block[0]]])
        if not np.array_equal(np.sort(mirror[block]), blocks[partner]):
            raise ValueError("generator does not preserve Hermiticity")
        if 0 < b <= partner:
            by_kind.setdefault((len(block), partner != b, gauged[block[0]]), []).append(block)
    main = blocks[0]
    k = np.arange(len(main))
    mk = np.searchsorted(main, mirror[main])
    to_real = (
        np.where(k > mk, -1j, 1.0)[:, None] * np.eye(len(main))
        + np.where(k < mk, 1.0, 1j * (k > mk))[:, None] * np.eye(len(main))[mk]
    )
    kept = [main, *(block for members in by_kind.values() for block in members)]
    grids = [np.meshgrid(block, block, indexing="ij") for block in kept]
    rows, cols = (np.concatenate([grid[i].ravel() for grid in grids]) for i in (0, 1))
    factors = np.array([1.0, 1j, -1.0, -1j])[(parity[cols] - parity[rows]) % 4]
    others, start = [], len(main) ** 2
    for (size, paired, has_gauge), members in by_kind.items():
        stop = start + len(members) * size**2
        others.append((np.array(members), paired, factors[start:stop] if has_gauge else None))
        start = stop

    def entry_of(flat: np.ndarray) -> np.ndarray:  # its place among the nonzeros, or -1
        found = np.searchsorted(positions, flat)
        return np.where(np.append(positions, -1)[found] == flat, found, -1)

    gather, mirrored = entry_of(rows * n + cols), entry_of(mirror[row] * n + mirror[col])
    real_basis = (to_real, np.linalg.inv(to_real))
    groups = [a for members, _, gauge in others for a in (members, gauge) if a is not None]
    for array in (positions, main, *real_basis, *groups, gather, mirrored):
        array.setflags(write=False)
    return positions, main, real_basis, tuple(others), gather, mirrored


def _block_spectrum(values: np.ndarray, blocks: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``(eigvals, real_vecs)`` of a stack of generators on ``blocks``
    (:func:`_kernel_blocks`), one row of nonzero entries each, then a zero.

    Each row of ``eigvals`` starts with the block of |0><0|, in the order
    of the columns of its right eigenvectors in the real basis,
    ``real_vecs`` (``from_real @ real_vecs`` are the eigenvectors).  One
    exact comparison certifies every entry as the conjugate of its mirror
    image, or raises ``ValueError``; then one real ``eig`` per stack runs
    on the block of |0><0| in its real basis, refusing a row that leaves
    double range there, and one ``eigvals`` per group of ``others`` on one
    block of every other mirror pair, real in its gauge where it has one,
    each group's entries gathered when it is used.
    """
    _, main, (to_real, from_real), others, gather, mirrored = blocks
    broken = (values[:, mirrored] != values[:, :-1].conj()).any(axis=1)
    fail(broken, ValueError, "generator does not preserve Hermiticity")
    start = len(main) ** 2
    real = np.empty((len(values), len(main), len(main)))
    # Real in exact arithmetic by the certificate; the rest is round-off.
    with np.errstate(over="ignore", invalid="ignore"):  # a row out of range is refused below
        for chunk in _chunks(len(values)):
            entries = values[chunk, gather[:start]].reshape(-1, len(main), len(main))
            real[chunk] = (to_real @ entries @ from_real).real
    fail(~np.isfinite(real).all(axis=(1, 2)), ValueError,
         "generator leaves double range in the real basis of |0><0|")
    main_vals, real_vecs = np.linalg.eig(real)
    del real  # before the other groups' temporaries
    parts = [main_vals]
    for members, paired, gauge in others:
        count, size = members.shape
        stop = start + count * size**2
        block = values[:, gather[start:stop]]
        if gauge is not None:  # every factor is 1, i or -i: exact, and real
            block *= gauge
            block = block.real
        vals = np.linalg.eigvals(block.reshape(-1, size, size)).reshape(len(values), -1)
        parts += [vals, vals.conj()] if paired else [vals]
        start = stop
    return np.concatenate(parts, axis=1), real_vecs


def _kernel_route(dim: int, values: np.ndarray, blocks: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``(rho_eig, decay)`` of a stack of generators: the normalized kernel
    vectors of :func:`_block_spectrum`, each checked to be the one
    stationary eigenvalue, in the block of |0><0|, and each spectral gap."""
    count, main, from_real = len(values), blocks[1], blocks[2][1]
    eigvals, real_vecs = _block_spectrum(values, blocks)
    scale = np.abs(eigvals).max(axis=1)
    fail(scale == 0.0, ValueError, "generator is identically zero; every state is stationary")
    zero_mask = np.abs(eigvals.real) <= KERNEL_TOL * scale[:, None]
    n_zero = np.count_nonzero(zero_mask, axis=1)
    fail(n_zero == 0, ValueError, "no stationary state found (kernel is numerically empty)")
    fail(n_zero > 1, ValueError, _NON_ERGODIC)
    main_zero = zero_mask[:, : len(main)]
    fail(~main_zero.any(axis=1), ValueError, "stationary kernel lies outside the block "
          "of |0><0|; generator is not trace preserving")
    column = main_zero.argmax(axis=1)
    kernel_vecs = np.zeros((count, dim * dim), dtype=complex)
    kernel_vecs[:, main] = real_vecs[np.arange(count), :, column] @ from_real.T
    decay = -np.where(zero_mask, -np.inf, eigvals.real).max(axis=1)
    del eigvals, real_vecs  # before the normalization's temporaries
    return _normalize_state(_unvec(kernel_vecs, dim)), decay


def _stationary_stack(
    layout: tuple[int, ...], values: np.ndarray, blocks: tuple
) -> list[tuple[DensityMatrix, float]]:
    """:func:`stationary_state` of a stack of generators on one pattern,
    ``values[k]`` the nonzero entries of the k-th, then a zero
    (:func:`_generator_values`), ``blocks`` the pattern's
    :func:`_kernel_blocks`.  ``values`` is released once solved."""
    dim, main = math.prod(layout), blocks[1]
    rho_eig, decay = _kernel_route(dim, values, blocks)

    # Primary route: bordered linear solve with the trace constraint.  The
    # block of |0><0| starts at vec index 0, so its row 0 is the trace row.
    sub = values[:, blocks[4][: len(main) ** 2]].reshape(len(values), len(main), len(main))
    sub[:, 0, :] = main % (dim + 1) == 0
    solved = _refined_bordered_solve(dim, values[:, :-1], sub, blocks)
    del values, sub  # the generators, before the checks' temporaries
    rho_lin = _normalize_state(_unvec(solved, dim))

    apart = np.abs(rho_eig - rho_lin).max(axis=(1, 2))
    fail(apart > SOLVER_CROSS_TOL, AssertionError, lambda k: "steady-state routes "
          f"disagree by {apart[k]:.3e} (> {SOLVER_CROSS_TOL:.1e})")
    bad, why = state_defects(rho_lin)
    fail(bad, ValueError, why)
    return [(DensityMatrix(layout, rho), float(d)) for rho, d in zip(rho_lin, decay)]


def stationary_state(spec: EngineSpec) -> tuple[DensityMatrix, float]:
    """Unique steady state and spectral gap of a spec's generator.

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
    pieces, blocks = _generator_plan(*spec.structure)
    [state] = _stationary_stack(spec.layout, _generator_values([spec], pieces), blocks)
    return state


def _currents(specs: Sequence[EngineSpec], rho: np.ndarray) -> np.ndarray:
    """Stationary transfer rate of each swap pair, a row per spec of a stack
    of one structure: <i g_i (|u_i><d_i| - |d_i><u_i|)>, read off its only
    two nonzero terms, i g_i rho[d_i, u_i] and -i g_i rho[u_i, d_i]; the
    observable is Hermitian, so an imaginary part beyond ``CURRENT_IMAG_TOL`` raises."""
    table = pair_table(*specs[0].structure)
    g = np.array([[pair.g for pair in spec.swaps] for spec in specs])
    val = (1j * g) * rho[:, table.d, table.u] + (-1j * g) * rho[:, table.u, table.d]
    bad = np.abs(val.imag) > CURRENT_IMAG_TOL
    fail(bad.any(axis=1), AssertionError, lambda k: f"transfer rate of pair {np.argmax(bad[k])} "
         f"has imaginary part {val[k, np.argmax(bad[k])].imag:.3e}")
    return val.real


class _Exchange(NamedTuple):
    """Everything the audits read off a stack of states, one array each."""

    currents: np.ndarray
    j_hot: np.ndarray
    j_cold: np.ndarray
    power: np.ndarray
    adjoint_heat: np.ndarray  # <D_k^+[H_0k + V0]>, hot then cold
    int_vanish: np.ndarray  # |<D_k^+[V0]>|, hot then cold
    entropy_production: np.ndarray
    catalyst_flow: tuple[np.ndarray, ...]


def _exchanges(specs: Sequence[EngineSpec], rho: np.ndarray) -> _Exchange:
    """Measure the pair currents of a stack of states once and derive every
    bath exchange: J_k, P and the catalyst flow through
    :func:`~ottocat.engine_spec.pair_sums`, and <D_k^+[H_0k + V0]> and
    <D_k^+[V0]> from each bath's adjoint dissipator D_k^+, applied by the
    two-term rows of :func:`_bath_jumps`: the nonzero products of a dense
    product, one gathered product per term and operator over the whole
    stack, and one add per row, in place; sigma = -sum_k beta_k (J_k -
    Re<D_k^+[V0]>)."""
    spec = specs[0]
    dims, dim, n = spec.layout, spec.dim, len(specs)
    currents = _currents(specs, rho)
    j_hot, j_cold, power, cat_flow = pair_sums(specs, currents.T)
    v0 = _interactions(specs)
    heat, interaction, sigma = [], [], 0.0
    for label, excitation, j_k in (("hot", level_table(dims).hot, j_hot),
                                   ("cold", level_table(dims).cold, j_cold)):
        baths = [getattr(s, label) for s in specs]
        gamma_plus, gamma_minus, omega, beta = np.array(
            [(b.gamma_plus, b.gamma_minus, b.omega, b.beta) for b in baths]
        ).T[..., None]
        rates = []
        for rows, cols, up, down in _bath_jumps(dims, label)[2]:
            rate = gamma_plus * up
            rate += gamma_minus * down
            rates.append((rows, cols, rate))
        hamiltonian = v0.copy()
        hamiltonian[:, :: dim + 1] += omega * excitation  # H_0k + V0
        expectations = []
        for operand in (hamiltonian, v0):
            applied = np.zeros_like(operand)
            for rows, cols, rate in rates:
                term = operand[:, cols]
                np.multiply(rate, term, out=term)  # rate * term, in place
                applied[:, rows] += term
            applied *= rho.reshape(n, -1)  # Tr[A rho] summed as expectation() sums it
            expectations.append(applied.sum(axis=-1))
        heat_k, int_k = expectations
        heat.append(heat_k)
        interaction.append([abs(z) for z in int_k.tolist()])  # Python's complex abs
        sigma = sigma - beta[:, 0] * (j_k - int_k.real)
    return _Exchange(currents, j_hot, j_cold, power, np.array(heat), np.array(interaction),
                     sigma, cat_flow)


def _audit(specs: Sequence[EngineSpec], states: list) -> list[SteadyStateReport]:
    """:func:`currents_and_power` of a stack of one structure, ``states`` its
    ``(rho_ss, spectral_gap)`` pairs."""
    ex = _exchanges(specs, np.stack([rho_ss.matrix for rho_ss, _ in states]))
    for label, direct, val in zip(("hot", "cold"), (ex.j_hot, ex.j_cold), ex.adjoint_heat):
        fail(np.abs(val.imag) > CURRENT_IMAG_TOL, AssertionError, lambda k:
             f"adjoint-route {label} current has imaginary part {val[k].imag:.3e}")
        fail(np.abs(direct - val.real) > CURRENT_CROSS_TOL * np.maximum(1.0, np.abs(direct)),
             AssertionError, lambda k: f"{label} heat current routes disagree: pairwise "
             f"{float(direct[k])!r} vs adjoint {float(val[k].real)!r}")
    first_law = np.abs(ex.power - (ex.j_hot + ex.j_cold))
    fail(first_law > FIRST_LAW_TOL * np.maximum(1.0, np.abs(ex.power)), AssertionError,
         lambda k: f"first-law residual {first_law[k]:.3e} exceeds {FIRST_LAW_TOL:.1e}")
    margin, efficiency, regime = verdict(specs, ex.j_hot, ex.j_cold, ex.power)
    rho_ss, gaps = zip(*states)
    j_hot, j_cold, power, margin, sigma, first_law = (x.tolist() for x in (
        ex.j_hot, ex.j_cold, ex.power, margin, ex.entropy_production, first_law))
    return list(map(SteadyStateReport._make, zip(
        rho_ss, map(tuple, ex.currents.tolist()), j_hot, j_cold, power, efficiency,
        map(float, gaps), margin, sigma, map(tuple, ex.int_vanish.T.tolist()),
        zip(*(level.tolist() for level in ex.catalyst_flow)), first_law, regime,
    )))


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
    l_rho = build_liouvillian(spec) @ rho_ss.matrix.reshape(-1, order="F")
    ex = _exchanges([spec], rho_ss.matrix[None])
    return {
        "liouvillian_residual": float(np.max(np.abs(l_rho))),
        "int_vanish": tuple(ex.int_vanish[:, 0].tolist()),
        "catalyst_flow": tuple(float(level[0]) for level in ex.catalyst_flow),
        "clausius_margin": float(verdict([spec], ex.j_hot, ex.j_cold, ex.power)[0][0]),
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
    return float(_exchanges([spec], rho_ss.matrix[None]).entropy_production[0])


def steady_state_report(spec: EngineSpec) -> SteadyStateReport:
    """Solve for the steady state and return its audited energetics: one
    solve, as a stack of one, and one measurement of the currents."""
    [report] = _reports([spec])
    return report


def _reports(specs: Sequence[EngineSpec]) -> list[SteadyStateReport]:
    """Solve and audit a stack of specs of one structure."""
    pieces, blocks = _generator_plan(*specs[0].structure)
    # No name here holds the generators: the solve releases them before the audit.
    states = _stationary_stack(specs[0].layout, _generator_values(specs, pieces), blocks)
    return _audit(specs, states)


def steady_state_reports(specs: Sequence[EngineSpec]) -> list[SteadyStateReport]:
    """:func:`steady_state_report` of every spec, in input order, bit for bit,
    solved and audited in stacks of one structure of up to ``_STACK``; a
    failure raises for the first spec that fails, with its position as
    ``index``."""
    reports, fault = stacked(_reports, specs, size=_STACK)
    if fault is not None:
        raise fault
    return reports
