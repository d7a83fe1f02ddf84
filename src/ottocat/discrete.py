"""Two-stroke engine cycle: permutation work stroke, rethermalizing heat stroke.

One cycle acts on the product state sigma_s (x) tau_h (x) tau_c:

1. **work stroke** — a permutation ``S`` of basis states exchanges the
   populations of each swap pair |u_i> <-> |d_i>;
2. **heat stroke** — the hot and cold qubits are traced out and replaced
   by fresh Gibbs states, while the catalyst (never bath-coupled) keeps
   whatever marginal the work stroke left it.

Every state in the cycle is diagonal, so :func:`run_cycle` and
:func:`solve_catalyst` move population vectors: p0 = q (x) w_h (x) w_c, the
work stroke is the index swap p1 = p0[perm], and Q_k = sum_n eps_n^k
(p0 - p1)_n over the bare level energies, cross-checked against the
pairwise form sum_i d_eps_i^k * delta_p_i of
:func:`~ottocat.engine_spec.pair_sums` on every run.  Specs of one
structure run as one stack of population arrays from the
:func:`~ottocat.engine_spec.pair_table` index maps; only the catalyst's
least-squares solve stays one per spec.  :func:`run_cycle` and
:func:`solve_catalyst` are stacks of one, bit for bit.  Positive Q_k means
energy drawn *from* bath k into the machine; positive work means work
extracted.  The operator route (:func:`permutation_matrix`,
:func:`build_initial_state`, :func:`heat_stroke`, operator traces) is the
independent oracle that ``verify`` check 8 runs against it.

The cycle is exactly periodic iff the catalyst marginal is restored by
the work stroke; for diagonal states this is equivalent to all pair
flows delta_p_i being equal ("simple" permutations), and
:func:`solve_catalyst` finds diagonal catalyst populations with that
property by a linear solve, checked on the work stroke that
:func:`run_cycle` then accounts instead of deriving it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine_spec import EngineSpec, fail, level_table, pair_sums, pair_table
from .qstate import (
    DensityMatrix,
    HilbertLayout,
    Operator,
    gibbs_qubit,
    partial_trace,
    tensor_all,
)

__all__ = [
    "HEAT_CROSS_CHECK_TOL",
    "CLAUSIUS_TOL",
    "CATALYST_SOLVE_TOL",
    "CatalystState",
    "CycleReport",
    "permutation_matrix",
    "build_initial_state",
    "heat_stroke",
    "solve_catalyst",
    "run_cycle",
    "clausius_check",
]

#: Agreement required between the level-energy heats and d_eps . delta_p.
HEAT_CROSS_CHECK_TOL = 1e-12

#: Slack on the second-law margin before it counts as a violation.
CLAUSIUS_TOL = 1e-12

#: Residual ceiling for the catalyst linear solve and its post-checks.
CATALYST_SOLVE_TOL = 1e-10


@dataclass(frozen=True)
class CatalystState:
    """Diagonal catalyst state, stored as a population vector."""

    populations: tuple[float, ...]

    def __post_init__(self) -> None:
        pops = tuple(float(p) for p in self.populations)
        object.__setattr__(self, "populations", pops)
        if not pops:
            raise ValueError("catalyst needs at least one level")
        if any(not math.isfinite(p) or p < -1e-12 for p in pops):
            raise ValueError(f"catalyst populations must be nonnegative, got {pops}")
        if abs(sum(pops) - 1.0) > 1e-10:
            raise ValueError(f"catalyst populations sum to {sum(pops)}, expected 1")

    @property
    def dim(self) -> int:
        return len(self.populations)

    def as_operator(self) -> Operator:
        return Operator(
            HilbertLayout((self.dim,)),
            np.diag(np.clip(np.asarray(self.populations, dtype=float), 0.0, None)).astype(
                complex
            ),
        )


@dataclass(frozen=True)
class CycleReport:
    """Everything measurable about one two-stroke cycle.

    ``efficiency`` is ``None`` when no heat is drawn from the hot bath
    (the ratio W/Q_h is then undefined).  ``regime`` is ``"engine"``
    when W > 0 and Q_h > 0, else ``"non_engine"``.
    """

    delta_p: tuple[float, ...]
    q_hot: float
    q_cold: float
    work: float
    efficiency: float | None
    clausius_margin: float
    catalyst_residual: float
    regime: str


def _swap_permutation(spec: EngineSpec) -> np.ndarray:
    """Index map of the work stroke, level n <-> perm[n], read-only; raises
    ``ValueError`` if swap pairs overlap or leave the space."""
    table = pair_table(*spec.structure)
    if table.overlap is not None:
        raise ValueError(table.overlap)
    return table.perm


def permutation_matrix(spec: EngineSpec) -> Operator:
    """The work-stroke unitary: transposition of each swap pair."""
    dim = spec.dim
    mat = np.zeros((dim, dim), dtype=complex)
    mat[_swap_permutation(spec), np.arange(dim)] = 1.0
    return Operator(spec.layout, mat)


def _require_catalyst_dim(spec: EngineSpec, catalyst: CatalystState) -> None:
    if catalyst.dim != spec.catalyst_dim:
        raise ValueError(
            f"catalyst has {catalyst.dim} levels but spec declares {spec.catalyst_dim}"
        )


def build_initial_state(spec: EngineSpec, catalyst: CatalystState) -> DensityMatrix:
    """Cycle-start state sigma_s (x) tau_h (x) tau_c with Gibbs bath qubits."""
    _require_catalyst_dim(spec, catalyst)
    tau_h = gibbs_qubit(spec.hot.beta, spec.hot.omega)
    tau_c = gibbs_qubit(spec.cold.beta, spec.cold.omega)
    full = tensor_all([catalyst.as_operator(), tau_h.op, tau_c.op])
    return DensityMatrix(full)


def heat_stroke(spec: EngineSpec, rho: DensityMatrix) -> DensityMatrix:
    """Rethermalize the bath qubits, keeping the catalyst marginal.

    Implements the partial trace over hot and cold followed by tensoring
    fresh Gibbs states back in.
    """
    sigma = partial_trace(rho, keep=(0,))
    tau_h = gibbs_qubit(spec.hot.beta, spec.hot.omega)
    tau_c = gibbs_qubit(spec.cold.beta, spec.cold.omega)
    return DensityMatrix(tensor_all([sigma.op, tau_h.op, tau_c.op]))


def _gibbs_weights(a: float) -> tuple[float, float]:
    """Qubit Gibbs populations (ground, excited) for ratio a = exp(-beta*omega)."""
    return 1.0 / (1.0 + a), a / (1.0 + a)


def _catalyst_q(spec: EngineSpec, a_mat: np.ndarray) -> np.ndarray:
    """The normalized least-squares solution q of one spec's catalyst system
    (the last row the normalization), checked as :func:`solve_catalyst` says."""
    b_vec = np.zeros(len(a_mat))
    b_vec[-1] = 1.0
    q, _, rank, _ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    residual = float(abs(a_mat @ q - b_vec).max())
    absent = "no simple-permutation catalyst exists for this spec"
    if residual > CATALYST_SOLVE_TOL:
        raise ValueError(f"{absent} (linear system residual {residual:.3e})")
    if rank < spec.catalyst_dim:
        raise ValueError("the simple-permutation catalyst of this spec is not unique "
                         f"(linear system rank {rank} < catalyst dimension {spec.catalyst_dim})")
    if float(q.min()) < -CATALYST_SOLVE_TOL:
        raise ValueError(f"{absent} (solution has negative population {q.min():.3e})")
    q = np.clip(q, 0.0, None)
    return q / q.sum()


def _strokes(specs: list[EngineSpec], catalysts: list) -> tuple:
    """``(q, p0 - p1, delta_p, catalyst marginals before and after)`` of one
    work stroke per spec of a stack of one structure, on ``catalysts[k]`` or,
    where ``None``, on (1.0,) or the one :func:`solve_catalyst` finds, checked."""
    spec, n = specs[0], len(specs)
    d_s, table = spec.catalyst_dim, pair_table(*spec.structure)
    if d_s == 1:
        catalysts = [CatalystState((1.0,)) if c is None else c for c in catalysts]
    w_h, w_c = np.array([[_gibbs_weights(s.hot.gibbs_factor), _gibbs_weights(s.cold.gibbs_factor)]
                         for s in specs]).swapaxes(0, 1)
    # delta_p_i = row_i . q; (i) equal flows across consecutive pairs, (ii)
    # zero net flow through each catalyst level, (iii) normalization.
    flow_rows = np.zeros((n, len(specs[0].swaps), d_s))
    balance = np.zeros((n, d_s, d_s))
    for i, ((s_u, h_u, c_u), (s_d, h_d, c_d)) in enumerate(zip(table.levels_u, table.levels_d)):
        flow_rows[:, i, s_u] += w_h[:, h_u] * w_c[:, c_u]
        flow_rows[:, i, s_d] -= w_h[:, h_d] * w_c[:, c_d]
    for row, level_u, level_d in zip(flow_rows.swapaxes(0, 1), table.levels_u, table.levels_d):
        balance[:, level_d[0]] += row
        balance[:, level_u[0]] -= row
    equal = flow_rows[:, :-1] - flow_rows[:, 1:]
    systems = np.concatenate([equal, balance, np.ones((n, 1, d_s))], axis=1)
    solved = np.array([catalyst is None for catalyst in catalysts])
    q = np.empty((n, d_s))
    for k, (s, catalyst) in enumerate(zip(specs, catalysts)):
        if catalyst is not None:
            _require_catalyst_dim(s, catalyst)
        q[k] = _catalyst_q(s, systems[k]) if catalyst is None else catalyst.populations
    q = np.clip(q, 0.0, None)
    fail(table.overlap is not None, ValueError, table.overlap)
    # q (x) w_h (x) w_c in np.kron's element order and arithmetic.
    p0 = ((q[:, :, None] * w_h[:, None, :])[..., None] * w_c[:, None, None, :]).reshape(n, -1)
    p1 = p0[:, table.perm]
    flows = p0[:, table.u] - p0[:, table.d]
    # Marginals sum out hot then cold, as :func:`~ottocat.qstate.partial_trace` does.
    shape = (n, *spec.layout.factor_dims)
    marginals = tuple(p.reshape(shape).sum(axis=2).sum(axis=2) for p in (p0, p1))
    unequal = np.abs(flows - flows[:, :1]).max(axis=1) > CATALYST_SOLVE_TOL
    fail(solved & unequal, ValueError, "catalyst solve left unequal pair flows; "
         "spec is inconsistent")
    moved = np.abs(marginals[1] - marginals[0]).max(axis=1) > CATALYST_SOLVE_TOL
    fail(solved & moved, ValueError, "catalyst solve failed to restore the catalyst marginal")
    return q, p0 - p1, flows, marginals


def solve_catalyst(spec: EngineSpec) -> CatalystState:
    """Diagonal catalyst populations making the permutation simple.

    Solves the linear system over catalyst populations q that (i) makes
    every pair flow equal, delta_p_1 = ... = delta_p_n, (ii) balances the
    net population flow through each catalyst level, and (iii) normalizes
    sum(q) = 1.  A least-squares solve is used so that redundant rows are
    harmless; if the system is inconsistent, the solution has negative
    populations, or the work stroke still fails to restore the catalyst
    marginal, ``ValueError`` is raised: no simple-permutation catalyst
    exists for this spec.  ``ValueError`` is also raised when the system
    has rank below the catalyst dimension: the catalyst is not unique.
    """
    return CatalystState(tuple(_strokes([spec], [None])[0][0]))


def _cycles(specs: list[EngineSpec], catalysts: list) -> list[CycleReport]:
    """:func:`run_cycle` of a stack of one structure, as :func:`_strokes`
    reads ``catalysts``; a failure raises the bare message."""
    _, diff, flows, marginals = _strokes(specs, catalysts)
    levels = level_table(specs[0].layout.factor_dims)
    # Level energies times population changes, summed in complex like the
    # operator traces Tr[H_0k (rho0 - rho1)] that check 8 computes, and
    # cross-checked against the pairwise energy-difference form.
    heats, omegas = [], np.array([(s.hot.omega, s.cold.omega) for s in specs]).T[..., None]
    pair_heats = pair_sums(specs, flows.T)[:2]
    for label, omega, excitation, pairwise in zip(
        ("hot", "cold"), omegas, (levels.hot, levels.cold), pair_heats
    ):
        level_sum = ((omega * excitation).astype(complex) * diff).sum(axis=-1).real
        scale = np.maximum(1.0, np.abs(level_sum))
        fail(np.abs(level_sum - pairwise) > HEAT_CROSS_CHECK_TOL * scale, AssertionError, lambda k:
             f"{label} heat mismatch: level-energy sum {float(level_sum[k])!r} vs "
             f"pairwise form {pairwise[k]!r}")
        heats.append(level_sum.tolist())
    residuals = np.abs(marginals[1] - marginals[0]).max(axis=1).tolist()
    reports = []
    for k, (s, flow, q_h, q_c) in enumerate(zip(specs, flows.tolist(), *heats)):
        margin = clausius_check(s, q_h, q_c, (marginals[0][k], marginals[1][k]))
        work = q_h + q_c
        reports.append(CycleReport(
            delta_p=tuple(flow),
            q_hot=q_h,
            q_cold=q_c,
            work=work,
            efficiency=None if q_h == 0.0 else work / q_h,
            clausius_margin=margin,
            catalyst_residual=residuals[k],
            regime="engine" if (work > 0.0 and q_h > 0.0) else "non_engine",
        ))
    return reports


def run_cycle(spec: EngineSpec, catalyst: CatalystState | None = None) -> CycleReport:
    """Execute one two-stroke cycle and account for its energy flows.

    When ``catalyst`` is omitted it is the trivial single-level state for
    catalyst-free specs and the :func:`solve_catalyst` solution otherwise.
    A stack of one.
    """
    [cycle] = _cycles([spec], [catalyst])
    return cycle


def _shannon_entropy(p: np.ndarray) -> float:
    """-sum p log p over the nonzero entries of a population vector."""
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def clausius_check(
    spec: EngineSpec,
    q_hot: float,
    q_cold: float,
    catalyst_marginals: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Second-law margin -(beta_h Q_h + beta_c Q_c); raises if the second
    law is violated.

    The margin is the entropy the baths take up per cycle.  A unitary
    stroke on a product state cannot lower the summed entropies of the
    marginals (subadditivity), and a bath qubit starting in its Gibbs
    state gains at most -beta_k Q_k of entropy, so

        -(beta_h Q_h + beta_c Q_c) + dS_cat >= 0,

    where dS_cat is the entropy change of the catalyst marginal over the
    work stroke, given as ``catalyst_marginals = (before, after)``
    population vectors.  It is zero when the stroke restores the
    catalyst, and is evaluated only when the margin alone is below
    ``-CLAUSIUS_TOL``.  A violation beyond ``CLAUSIUS_TOL`` indicates a
    bug, not physics, hence ``AssertionError``.  Returns the margin
    without dS_cat.
    """
    margin = -(spec.hot.beta * q_hot + spec.cold.beta * q_cold)
    if margin < -CLAUSIUS_TOL:
        d_s_cat = 0.0
        if catalyst_marginals is not None:
            before, after = catalyst_marginals
            d_s_cat = _shannon_entropy(after) - _shannon_entropy(before)
        if margin + d_s_cat < -CLAUSIUS_TOL:
            raise AssertionError(
                f"second-law margin is negative: {margin:.3e} "
                f"(catalyst entropy change {d_s_cat:.3e})"
            )
    return margin
