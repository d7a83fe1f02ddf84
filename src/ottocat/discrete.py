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
:func:`~ottocat.engine_spec.pair_sums` on every run.  Positive Q_k means
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

from .engine_spec import EngineSpec, level_table, pair_sums, pair_table
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


def _work_stroke(spec: EngineSpec, catalyst: CatalystState) -> tuple:
    """``(p0, p1, flows, marginals)``: the level populations and catalyst
    marginals before and after one work stroke, delta_p_i = p0(u_i) - p0(d_i)."""
    _require_catalyst_dim(spec, catalyst)
    q = np.clip(np.asarray(catalyst.populations, dtype=float), 0.0, None)
    w_h = _gibbs_weights(spec.hot.gibbs_factor)
    w_c = _gibbs_weights(spec.cold.gibbs_factor)
    # q (x) w_h (x) w_c in np.kron's element order and arithmetic, without
    # its per-call overhead.
    p0 = np.outer(np.outer(q, w_h), w_c).ravel()
    p1 = p0[_swap_permutation(spec)]
    table = pair_table(*spec.structure)
    # Marginals sum out hot then cold, as :func:`~ottocat.qstate.partial_trace` does.
    shape = spec.layout.factor_dims
    marginals = tuple(p.reshape(shape).sum(axis=1).sum(axis=1) for p in (p0, p1))
    return p0, p1, p0[table.u] - p0[table.d], marginals


def _max_gap(before: np.ndarray, after: np.ndarray) -> float:
    return float(abs(after - before).max())


def _solved_catalyst(spec: EngineSpec) -> tuple[CatalystState, tuple]:
    """:func:`solve_catalyst`'s catalyst and the work stroke that checked it."""
    d_s = spec.catalyst_dim
    table = pair_table(*spec.structure)
    w_h = _gibbs_weights(spec.hot.gibbs_factor)
    w_c = _gibbs_weights(spec.cold.gibbs_factor)

    # delta_p_i = row_i . q, rows from the bath Gibbs weights (Python lists).
    n_pairs = len(spec.swaps)
    flow_rows = [[0.0] * d_s for _ in range(n_pairs)]
    for row, (s_u, h_u, c_u), (s_d, h_d, c_d) in zip(flow_rows, table.levels_u, table.levels_d):
        row[s_u] += w_h[h_u] * w_c[c_u]
        row[s_d] -= w_h[h_d] * w_c[c_d]

    # (i) equal flows across consecutive pairs.
    equal = [[a - b for a, b in zip(*rows)] for rows in zip(flow_rows, flow_rows[1:])]
    # (ii) zero net flow through each catalyst level.
    balance = [[0.0] * d_s for _ in range(d_s)]
    for row, level_u, level_d in zip(flow_rows, table.levels_u, table.levels_d):
        balance[level_d[0]] = [b + f for b, f in zip(balance[level_d[0]], row)]
        balance[level_u[0]] = [b - f for b, f in zip(balance[level_u[0]], row)]
    # (iii) normalization.
    a_mat = np.array([*equal, *balance, [1.0] * d_s])
    b_vec = np.zeros(len(a_mat))
    b_vec[-1] = 1.0
    q, _, rank, _ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    residual = float(abs(a_mat @ q - b_vec).max())
    if residual > CATALYST_SOLVE_TOL:
        raise ValueError(
            "no simple-permutation catalyst exists for this spec "
            f"(linear system residual {residual:.3e})"
        )
    if rank < d_s:
        raise ValueError(
            "the simple-permutation catalyst of this spec is not unique "
            f"(linear system rank {rank} < catalyst dimension {d_s})"
        )
    if float(q.min()) < -CATALYST_SOLVE_TOL:
        raise ValueError(
            "no simple-permutation catalyst exists for this spec "
            f"(solution has negative population {q.min():.3e})"
        )
    q = np.clip(q, 0.0, None)
    catalyst = CatalystState(tuple(q / q.sum()))

    # Post-check on the actual cycle: equal flows and a restored marginal.
    stroke = _work_stroke(spec, catalyst)
    flows, marginals = stroke[2:]
    if n_pairs > 1 and float(abs(flows - flows[0]).max()) > CATALYST_SOLVE_TOL:
        raise ValueError("catalyst solve left unequal pair flows; spec is inconsistent")
    if _max_gap(*marginals) > CATALYST_SOLVE_TOL:
        raise ValueError("catalyst solve failed to restore the catalyst marginal")
    return catalyst, stroke


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
    return _solved_catalyst(spec)[0]


def run_cycle(spec: EngineSpec, catalyst: CatalystState | None = None) -> CycleReport:
    """Execute one two-stroke cycle and account for its energy flows.

    When ``catalyst`` is omitted it is the trivial single-level state for
    catalyst-free specs and the :func:`solve_catalyst` solution otherwise.
    """
    if catalyst is None and spec.catalyst_dim > 1:
        _, stroke = _solved_catalyst(spec)
    else:
        stroke = _work_stroke(spec, CatalystState((1.0,)) if catalyst is None else catalyst)
    p0, p1, flows, marginals = stroke

    # Level energies times population changes, summed in complex like the
    # operator traces Tr[H_0k (rho0 - rho1)] that check 8 computes.
    levels = level_table(spec.layout.factor_dims)
    diff = p0 - p1
    q_hot = float(((spec.hot.omega * levels.hot).astype(complex) * diff).sum().real)
    q_cold = float(((spec.cold.omega * levels.cold).astype(complex) * diff).sum().real)

    # Cross-check against the pairwise energy-difference form.
    pair_heats = pair_sums(spec, flows)[:2]
    for label, level_val, pair_val in zip(("hot", "cold"), (q_hot, q_cold), pair_heats):
        scale = max(1.0, abs(level_val))
        if abs(level_val - pair_val) > HEAT_CROSS_CHECK_TOL * scale:
            raise AssertionError(
                f"{label} heat mismatch: level-energy sum {level_val!r} vs "
                f"pairwise form {pair_val!r}"
            )

    work = q_hot + q_cold
    efficiency = None if q_hot == 0.0 else work / q_hot
    regime = "engine" if (work > 0.0 and q_hot > 0.0) else "non_engine"

    margin = clausius_check(spec, q_hot, q_cold, catalyst_marginals=marginals)
    return CycleReport(
        delta_p=tuple(float(x) for x in flows),
        q_hot=q_hot,
        q_cold=q_cold,
        work=work,
        efficiency=efficiency,
        clausius_margin=margin,
        catalyst_residual=_max_gap(*marginals),
        regime=regime,
    )


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
