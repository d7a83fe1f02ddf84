"""Two-stroke engine cycle: permutation work stroke, rethermalizing heat stroke.

One cycle acts on the product state sigma_s (x) tau_h (x) tau_c:

1. **work stroke** — a permutation ``S`` of basis states exchanges the
   populations of each swap pair |u_i> <-> |d_i>;
2. **heat stroke** — the hot and cold qubits are traced out and replaced
   by fresh Gibbs states, while the catalyst (never bath-coupled) keeps
   whatever marginal the work stroke left it.

Every state in the cycle is diagonal, so :func:`run_cycle` moves
population vectors: p0 = q (x) w_h (x) w_c, the work stroke is the index
swap p1 = p0[perm], and Q_k = sum_n eps_n^k (p0 - p1)_n over the bare level
energies, cross-checked against the pairwise form sum_i d_eps_i^k *
delta_p_i of :func:`~ottocat.engine_spec.pair_sums` on every run.  Specs of
one structure run as one stack of population arrays from the
:func:`~ottocat.engine_spec.pair_table` index maps, each spec's catalyst
solved once, by its own least-squares solve; :func:`run_cycle` is a stack
of one, bit for bit.  Positive Q_k means energy drawn *from* bath k into
the machine; positive work means work extracted.  The operator route is
the independent oracle that ``verify`` check 8 runs against it, on the
catalyst the cycle reports: :func:`permutation_matrix` is a plain array S,
the states of :func:`build_initial_state` and :func:`heat_stroke` are
:class:`~ottocat.qstate.DensityMatrix` values, and the heats are traces
of array products.

The cycle is exactly periodic iff the catalyst marginal is restored by
the work stroke; for diagonal states this is equivalent to all pair
flows delta_p_i being equal ("simple" permutations).  A cycle runs on the
one catalyst that does this, as the paper's catalyst is cyclic by
definition: the trivial (1.0,) for catalyst-free specs, else the diagonal
populations of a linear solve (:func:`solve_catalyst`), checked on the
work stroke the cycle then accounts, and reported as its ``catalyst``.
The restored catalyst takes up no entropy, so the second law reads
-(beta_h Q_h + beta_c Q_c) >= 0, checked once per stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine_spec import EngineSpec, fail, level_table, pair_sums, pair_table
from .qstate import DensityMatrix, HilbertLayout, gibbs_qubit, partial_trace, tensor_all

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


@dataclass(frozen=True)
class CycleReport:
    """Everything measurable about one two-stroke cycle.

    ``efficiency`` is ``None`` when no heat is drawn from the hot bath
    (the ratio W/Q_h is then undefined).  ``regime`` is ``"engine"``
    when W > 0 and Q_h > 0, else ``"non_engine"``.  ``catalyst`` holds
    the populations the work stroke ran on, (1.0,) without a catalyst.
    """

    delta_p: tuple[float, ...]
    q_hot: float
    q_cold: float
    work: float
    efficiency: float | None
    clausius_margin: float
    catalyst: tuple[float, ...]
    catalyst_residual: float
    regime: str


def permutation_matrix(spec: EngineSpec) -> np.ndarray:
    """The work-stroke unitary, level n to ``perm[n]`` of the pair table: a
    fresh complex array on every call."""
    return np.eye(spec.dim, dtype=complex)[:, pair_table(*spec.structure).perm]


def build_initial_state(spec: EngineSpec, catalyst: CatalystState) -> DensityMatrix:
    """Cycle-start state sigma_s (x) tau_h (x) tau_c with Gibbs bath qubits,
    sigma_s = diag(q) of the catalyst populations clipped at zero."""
    if catalyst.dim != spec.catalyst_dim:
        raise ValueError(
            f"catalyst has {catalyst.dim} levels but spec declares {spec.catalyst_dim}"
        )
    tau_h = gibbs_qubit(spec.hot.beta, spec.hot.omega)
    tau_c = gibbs_qubit(spec.cold.beta, spec.cold.omega)
    sigma = np.diag(np.clip(catalyst.populations, 0.0, None))
    return tensor_all([DensityMatrix(HilbertLayout((catalyst.dim,)), sigma), tau_h, tau_c])


def heat_stroke(spec: EngineSpec, rho: DensityMatrix) -> DensityMatrix:
    """Rethermalize the bath qubits, keeping the catalyst marginal.

    Implements the partial trace over hot and cold followed by tensoring
    fresh Gibbs states back in; a state not on the spec's layout raises
    ``ValueError``.
    """
    if rho.layout != spec.layout:
        raise ValueError(f"state is on layout {rho.layout.factor_dims} but spec declares "
                         f"{spec.layout.factor_dims}")
    sigma = partial_trace(rho, keep=(0,))
    tau_h = gibbs_qubit(spec.hot.beta, spec.hot.omega)
    tau_c = gibbs_qubit(spec.cold.beta, spec.cold.omega)
    return tensor_all([sigma, tau_h, tau_c])


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


def solve_catalyst(spec: EngineSpec) -> CatalystState:
    """Diagonal catalyst populations making the permutation simple: the
    ``catalyst`` that :func:`run_cycle` runs on.

    Solves the linear system over catalyst populations q that (i) makes
    every pair flow equal, delta_p_1 = ... = delta_p_n, (ii) balances the
    net population flow through each catalyst level, and (iii) normalizes
    sum(q) = 1.  A least-squares solve is used so that redundant rows are
    harmless; if the system is inconsistent, the solution has negative
    populations, or the work stroke still fails to restore the catalyst
    marginal, ``ValueError`` is raised: no simple-permutation catalyst
    exists for this spec.  ``ValueError`` is also raised when the system
    has rank below the catalyst dimension: the catalyst is not unique.
    The cycle's own checks raise as in :func:`run_cycle`.
    """
    return CatalystState(run_cycle(spec).catalyst)


def _cycles(specs: list[EngineSpec]) -> list[CycleReport]:
    """:func:`run_cycle` of a stack of one structure, on the catalyst each spec
    determines: (1.0,) at d = 1, else the one :func:`solve_catalyst`
    describes, checked on the work stroke; a failure raises the bare message."""
    spec, n = specs[0], len(specs)
    d_s, table = spec.catalyst_dim, pair_table(*spec.structure)
    w_h, w_c = np.array([[_gibbs_weights(s.hot.gibbs_factor), _gibbs_weights(s.cold.gibbs_factor)]
                         for s in specs]).swapaxes(0, 1)
    # delta_p_i = row_i . q; (i) equal flows across consecutive pairs, (ii)
    # zero net flow through each catalyst level, (iii) normalization.
    flow_rows = np.zeros((n, len(spec.swaps), d_s))
    balance = np.zeros((n, d_s, d_s))
    for i, ((s_u, h_u, c_u), (s_d, h_d, c_d)) in enumerate(zip(table.levels_u, table.levels_d)):
        flow_rows[:, i, s_u] += w_h[:, h_u] * w_c[:, c_u]
        flow_rows[:, i, s_d] -= w_h[:, h_d] * w_c[:, c_d]
    for row, level_u, level_d in zip(flow_rows.swapaxes(0, 1), table.levels_u, table.levels_d):
        balance[:, level_d[0]] += row
        balance[:, level_u[0]] -= row
    equal = flow_rows[:, :-1] - flow_rows[:, 1:]
    systems = np.concatenate([equal, balance, np.ones((n, 1, d_s))], axis=1)
    solved = d_s > 1
    q = np.array([_catalyst_q(s, a) for s, a in zip(specs, systems)]) if solved else np.ones((n, 1))
    # q (x) w_h (x) w_c in the Kronecker product's element order and arithmetic.
    p0 = ((q[:, :, None] * w_h[:, None, :])[..., None] * w_c[:, None, None, :]).reshape(n, -1)
    p1 = p0[:, table.perm]
    flows = p0[:, table.u] - p0[:, table.d]
    # Marginals sum out hot then cold, as :func:`~ottocat.qstate.partial_trace` does.
    before, after = (p.reshape(n, *spec.layout.factor_dims).sum(axis=2).sum(axis=2)
                     for p in (p0, p1))
    residuals = np.abs(after - before).max(axis=1)
    unequal = np.abs(flows - flows[:, :1]).max(axis=1) > CATALYST_SOLVE_TOL
    fail(solved & unequal, ValueError, "catalyst solve left unequal pair flows; "
         "spec is inconsistent")
    fail(solved & (residuals > CATALYST_SOLVE_TOL), ValueError,
         "catalyst solve failed to restore the catalyst marginal")
    levels = level_table(spec.layout.factor_dims)
    # Level energies times population changes, summed in complex like the
    # operator traces Tr[H_0k (rho0 - rho1)] that check 8 computes, and
    # cross-checked against the pairwise energy-difference form.
    heats, omegas = [], np.array([(s.hot.omega, s.cold.omega) for s in specs]).T[..., None]
    pair_heats = pair_sums(specs, flows.T)[:2]
    for label, omega, excitation, pairwise in zip(
        ("hot", "cold"), omegas, (levels.hot, levels.cold), pair_heats
    ):
        level_sum = ((omega * excitation).astype(complex) * (p0 - p1)).sum(axis=-1).real
        scale = np.maximum(1.0, np.abs(level_sum))
        fail(np.abs(level_sum - pairwise) > HEAT_CROSS_CHECK_TOL * scale, AssertionError, lambda k:
             f"{label} heat mismatch: level-energy sum {float(level_sum[k])!r} vs "
             f"pairwise form {float(pairwise[k])!r}")
        heats.append(level_sum)
    # The entropy the baths take up per cycle; a deficit is a bug, not physics.
    betas = np.array([(s.hot.beta, s.cold.beta) for s in specs]).T
    margins = -(betas[0] * heats[0] + betas[1] * heats[1])
    fail(margins < -CLAUSIUS_TOL, AssertionError, lambda k:
         f"second-law margin is negative: {float(margins[k])!r}")
    reports = []
    for flow, populations, q_h, q_c, margin, residual in zip(
        flows.tolist(), q.tolist(), *(heat.tolist() for heat in heats), margins.tolist(),
        residuals.tolist(),
    ):
        work = q_h + q_c
        reports.append(CycleReport(
            delta_p=tuple(flow),
            q_hot=q_h,
            q_cold=q_c,
            work=work,
            efficiency=None if q_h == 0.0 else work / q_h,
            clausius_margin=margin,
            catalyst=tuple(populations),
            catalyst_residual=residual,
            regime="engine" if (work > 0.0 and q_h > 0.0) else "non_engine",
        ))
    return reports


def run_cycle(spec: EngineSpec) -> CycleReport:
    """Execute one two-stroke cycle on the catalyst its spec determines, and
    account for its energy flows; a stack of one.  ``clausius_margin`` is the
    second-law margin -(beta_h Q_h + beta_c Q_c), and a negative one beyond
    ``CLAUSIUS_TOL`` raises ``AssertionError``."""
    [cycle] = _cycles([spec])
    return cycle
