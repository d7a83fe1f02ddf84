"""Bridge between the two-stroke and autonomous pictures of one machine.

The central claim verified here: for the same engine spec, the per-cycle
population flows delta_p_i of the two-stroke machine and the stationary
transfer rates <n_i> of the autonomous machine describe the same
thermodynamics after rescaling time, delta_p_i = <n_i> * tau_i.  For
"simple" engines (all delta_p_i equal, catalyst restored), the tau_i
collapse to a single characteristic time tau, and the heats, work and
power, second law, efficiency and catalyst balance follow, both sides
summed over the pairs by :func:`~ottocat.engine_spec.pair_sums`.

:func:`rows` runs specs through both pictures and audits that dictionary
in stacks of one structure, one :func:`~ottocat.engine_spec.stacked` call
per stage, the two-stroke cycle once per distinct machine, its structure
and baths; :func:`verify_equivalence` is a stack of one.  A bridge holds
the dictionary alone: the efficiencies, the work and the power are the
fields of the cycle and of the steady state that :func:`rows` yields
beside it.  :func:`compare_at_efficiency` runs the catalyst-free and
qubit-catalyst machines through :func:`rows` at matched efficiencies on
one :class:`WorkingPoint`, the baths and coupling they share, where the
catalytic advantage in work, time and power lives; ``verify`` check 5
reads its powers from those records.
"""

from __future__ import annotations

import functools
import math
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import continuous, discrete
from .engine_spec import (
    FAMILIES,
    BathParams,
    EngineSpec,
    fail,
    ladder_spec,
    pair_sums,
    stack_energetics,
    stacked,
)

__all__ = [
    "FLOW_EXCLUSION_TOL",
    "TAU_UNIFORM_TOL",
    "WORK_POWER_TOL",
    "BRIDGE_ERRORS",
    "EquivalenceReport",
    "WorkingPoint",
    "verify_equivalence",
    "rows",
    "compare_at_efficiency",
]

#: Pair flows below this magnitude sit on the equilibrium boundary and
#: are excluded from characteristic-time statistics.
FLOW_EXCLUSION_TOL = 1e-13

#: Allowed relative spread of per-pair times, and gap of each flow row.
TAU_UNIFORM_TOL = 1e-9

#: Allowed gap of the heat, work-power, second-law and efficiency rows.
WORK_POWER_TOL = 1e-9

#: What a bridge of :func:`rows` raises: a row over its tolerance, or no
#: characteristic time; a caller of :func:`rows` that fails by point catches this pair.
BRIDGE_ERRORS = (AssertionError, ValueError)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of auditing one spec in both pictures.

    ``tau_i`` holds delta_p_i / <n_i> per pair (``None`` where the pair
    sits on the equilibrium boundary and the ratio is excluded);
    ``tau`` is their mean over included pairs, and
    ``tau_uniform_residual`` the largest gap between two of them.

    ``residuals`` holds the dictionary, one row per quantity, each a float
    gap |a - b| of a scale, by default max(|a|, |b|):

    * ``tau_spread``: ``tau_uniform_residual`` of |tau|;
    * ``flow_pair_<i>``: delta_p_i vs <n_i> tau;
    * ``heat_hot``, ``heat_cold``: Q_k vs J_k tau;
    * ``work_power``: W vs P tau, of ``work_power_scale`` = max(|W|,
      sum_i |Omega_i delta_p_i|), since P tau - W sums the pair terms
      Omega_i (<n_i> tau - delta_p_i);
    * ``second_law``: -(beta_h Q_h + beta_c Q_c) vs the rate margin
      times tau, of beta_h |Q_h| + beta_c |Q_c| (which bounds |margin|);
    * ``efficiency``: |eta of the cycle - eta of the steady state|, 0.0 if undefined;
    * ``catalyst_balance_{discrete,continuous}_<m>``: |net flow| through
      catalyst level m per cycle (the continuous rate times tau).

    Simple engines gate the catalyst rows at ``discrete.CATALYST_SOLVE_TOL``,
    ``tau_spread`` and the flows at ``TAU_UNIFORM_TOL``, the rest at
    ``WORK_POWER_TOL``.
    """

    tau_i: tuple[float | None, ...]
    tau: float
    work_power_scale: float
    simple_permutation: bool
    tau_uniform_residual: float
    residuals: dict[str, float]


@dataclass(frozen=True)
class WorkingPoint:
    """The baths and coupling both engines share, with the cold frequency left open.

    Fixing (beta_h, beta_c, omega_h, tau_eq, g) and steering omega_c
    parameterizes each ladder of :data:`~ottocat.engine_spec.FAMILIES`, with
    catalyst dimension d, by its efficiency: it runs at eta iff omega_c =
    d omega_h (1 - eta), so omega_h (1 - eta) for the catalyst-free engine
    and 2 omega_h (1 - eta) with a qubit catalyst.  Both baths share the
    relaxation time ``tau_eq``.
    """

    beta_h: float
    beta_c: float
    omega_h: float
    tau_eq: float
    g: float

    def __post_init__(self) -> None:
        for name in ("beta_h", "beta_c", "omega_h", "tau_eq", "g"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not self.beta_c > self.beta_h:
            raise ValueError("need beta_c > beta_h for a hot and a cold bath")

    @functools.cached_property
    def hot(self) -> BathParams:
        """The hot bath, the same for every engine and efficiency: built once."""
        return BathParams.from_relaxation_time(self.beta_h, self.omega_h, self.tau_eq)

    def spec_at(self, kind: str, eta: float) -> EngineSpec:
        """The ladder of ``kind`` that runs at efficiency ``eta`` here."""
        if kind not in FAMILIES:
            raise ValueError(f"kind must be {' or '.join(map(repr, FAMILIES))}, got {kind!r}")
        if not 0.0 < eta < 1.0:
            raise ValueError(f"efficiency must lie in (0, 1), got {eta}")
        omega_c = FAMILIES[kind] * self.omega_h * (1.0 - eta)
        cold = BathParams.from_relaxation_time(self.beta_c, omega_c, self.tau_eq)
        return ladder_spec(FAMILIES[kind], self.hot, cold, self.g)


def verify_equivalence(spec: EngineSpec) -> EquivalenceReport:
    """Run one spec through both pictures and audit the correspondence: its
    :func:`rows` bridge."""
    return next(rows([spec]))[2]


def _gap(a, b, scale=None):
    """|a - b| of ``scale`` (max(|a|, |b|)), absolute where the scale < 1e-30;
    elementwise over arrays."""
    scale = np.maximum(np.abs(a), np.abs(b)) if scale is None else scale
    diff = np.abs(a - b)
    tiny = scale < 1e-30
    return np.where(tiny, diff, diff / np.where(tiny, 1.0, scale))


def _row_tolerance(row: str) -> float:
    if row.startswith("catalyst_balance_"):
        return discrete.CATALYST_SOLVE_TOL
    return TAU_UNIFORM_TOL if row.startswith(("tau_spread", "flow_pair_")) else WORK_POWER_TOL


def _bridges(specs: Sequence[EngineSpec], cycles: list, states: list) -> list[EquivalenceReport]:
    """Audit the dictionary of each spec of a stack of one structure from one
    cycle run and one steady state each: tau_i = delta_p_i / <n_i> per pair and
    every row of :attr:`EquivalenceReport.residuals`.  For a simple engine a row
    over its tolerance raises ``AssertionError`` naming every such row: they are
    theorems for this model, not tunables.  A finite flow at a vanished current,
    or no pair off the equilibrium boundary, raises ``ValueError``."""
    def field(reports, name):
        return np.array([getattr(report, name) for report in reports])

    flows, currents = field(cycles, "delta_p"), field(states, "currents")
    included = ~(np.abs(flows) < FLOW_EXCLUSION_TOL)
    singular = included & (currents == 0.0)
    fail(singular.any(axis=1), ValueError, lambda k: "mapping singular at equilibrium boundary: "
         f"pair {np.argmax(singular[k])} has flow {flows[k, np.argmax(singular[k])].item()!r} "
         "but zero stationary current")
    fail(~included.any(axis=1), ValueError,
         "mapping singular at equilibrium boundary: all pair flows vanish")
    eta_d, eta_c = [c.efficiency for c in cycles], [ss.efficiency for ss in states]
    fail([(d is None) != (c is None) for d, c in zip(eta_d, eta_c)], AssertionError, lambda k:
         f"efficiency defined in only one picture: discrete {eta_d[k]!r} "
         f"vs continuous {eta_c[k]!r}")

    tau_i = np.divide(flows, currents, out=np.zeros_like(flows), where=included)
    tau = 0.0
    for column in tau_i.T:  # in pair order; an excluded pair adds 0.0
        tau = tau + column
    tau = tau / included.sum(axis=1)
    spread = np.where(included, tau_i, -np.inf).max(axis=1)
    spread -= np.where(included, tau_i, np.inf).min(axis=1)
    flows_gap = np.abs(flows - flows[:, :1]).max(axis=1)
    simple = (flows_gap <= 1e-12 * np.maximum(1.0, np.abs(flows).max(axis=1))) & (
        field(cycles, "catalyst_residual") <= discrete.CATALYST_SOLVE_TOL)
    work, q_hot, q_cold = field(cycles, "work"), field(cycles, "q_hot"), field(cycles, "q_cold")
    pair_work = 0
    for en, dp in zip(stack_energetics(specs), flows.T):
        pair_work = pair_work + np.abs(en.omega_i * dp)
    work_power_scale = np.maximum(np.abs(work), pair_work)
    betas = np.array([(s.hot.beta, s.cold.beta) for s in specs]).T
    entropy_scale = betas[0] * np.abs(q_hot) + betas[1] * np.abs(q_cold)

    residuals = {"tau_spread": _gap(spread, 0.0, np.abs(tau))}
    for i, (dp, current) in enumerate(zip(flows.T, currents.T)):
        residuals[f"flow_pair_{i}"] = _gap(dp, current * tau)
    residuals["heat_hot"] = _gap(q_hot, field(states, "j_hot") * tau)
    residuals["heat_cold"] = _gap(q_cold, field(states, "j_cold") * tau)
    residuals["work_power"] = _gap(field(states, "power") * tau, work, work_power_scale)
    margins = field(cycles, "clausius_margin"), field(states, "clausius_margin") * tau
    residuals["second_law"] = _gap(*margins, entropy_scale)
    residuals["efficiency"] = [0.0 if d is None else abs(d - c) for d, c in zip(eta_d, eta_c)]
    net_rates = field(states, "catalysis_residuals").T
    for level, (net_c, net_d) in enumerate(zip(net_rates, pair_sums(specs, flows.T)[3])):
        residuals[f"catalyst_balance_discrete_{level}"] = np.abs(net_d)
        residuals[f"catalyst_balance_continuous_{level}"] = np.abs(net_c) * tau

    tolerances = [_row_tolerance(row) for row in residuals]
    values = np.array([np.asarray(value, float) for value in residuals.values()]).T
    over = simple[:, None] & ~(values <= tolerances)
    columns = dict(zip(residuals, values.T.tolist()))
    fail(over.any(axis=1), AssertionError, lambda k: "bridge rows over their tolerance: "
         + ", ".join(f"{row} {columns[row][k]:.3e} > {tol:.1e}"
                     for row, tol, o in zip(columns, tolerances, over[k]) if o))
    tau_i, included = tau_i.tolist(), included.tolist()
    return [
        EquivalenceReport(
            tau_i=tuple(t if inc else None for t, inc in zip(tau_i[k], included[k])),
            tau=tau_k,
            work_power_scale=scale,
            simple_permutation=is_simple,
            tau_uniform_residual=spread_k,
            residuals={row: column[k] for row, column in columns.items()},
        )
        for k, (tau_k, scale, is_simple, spread_k) in enumerate(zip(*(
            value.tolist() for value in (tau, work_power_scale, simple, spread)
        )))
    ]


def _machine(spec: EngineSpec) -> tuple:
    """The two-stroke machine of ``spec``, everything its cycle reads: the
    structure and both baths, each bath by the bits of its fields, so a
    beta of -0.0 is not 0.0."""
    hot, cold = spec.hot, spec.cold
    return spec.structure, struct.pack(
        "8d", hot.beta, hot.omega, hot.gamma_plus, hot.gamma_minus,
        cold.beta, cold.omega, cold.gamma_plus, cold.gamma_minus,
    )


def _shared_cycles(specs: Sequence[EngineSpec]) -> tuple[list, Exception | None]:
    """``(cycles, fault)`` of ``specs`` as :func:`~ottocat.engine_spec.stacked`
    gives them for :func:`~ottocat.discrete._cycles`, each distinct two-stroke
    machine (:func:`_machine`) run once, in first-occurrence order, and its
    :class:`~ottocat.discrete.CycleReport` handed to every spec of it.  A
    fault's ``index`` is the position of the first spec of its machine: the
    first spec that fails."""
    first: dict = {}
    owner = [first.setdefault(_machine(spec), i) for i, spec in enumerate(specs)]
    starts = list(first.values())
    done, fault = stacked(discrete._cycles, [specs[i] for i in starts])
    if fault is not None:
        fault.index = starts[fault.index]
    cycle_of = dict(zip(starts, done))
    return [cycle_of[i] for i in owner[: len(specs) if fault is None else fault.index]], fault


def rows(specs: Sequence[EngineSpec], mode: str = "both", reports=None) -> Iterator[tuple]:
    """``(report, cycle, bridge)`` of every spec, in input order, ``None`` where
    ``mode`` (``"discrete"``, ``"continuous"`` or ``"both"``) skips it.

    The steady states (``reports``, if solved already) come from one
    :func:`~ottocat.continuous.steady_state_reports` call, which raises as
    it does; then the cycles run once per distinct two-stroke machine (a
    coupling sweep of one engine has one: g does not enter the cycle) and
    the bridges in stacks of one structure.  A failed cycle or bridge
    raises after the records before it, for the first spec that fails,
    with its position as ``index``.
    """
    if reports is None and mode != "discrete":
        reports = continuous.steady_state_reports(specs)
    reports = [None] * len(specs) if reports is None else list(reports)
    cycles, fault = [None] * len(specs), None
    if mode != "continuous":
        cycles, fault = _shared_cycles(specs)
    bridges = [None] * len(cycles)
    if mode == "both":
        bridges, late = stacked(_bridges, specs[: len(cycles)], cycles, reports)
        fault = late or fault
    yield from zip(reports, cycles, bridges)
    if fault is not None:
        raise fault


def compare_at_efficiency(point: WorkingPoint, etas: Sequence[float]) -> list[tuple]:
    """The :func:`rows` records of every engine of
    :data:`~ottocat.engine_spec.FAMILIES` at ``point``, at each efficiency of
    ``etas``: Otto's then the catalyst's, from one call.

    Only omega_c differs between the two machines, chosen per engine so that
    each runs at each efficiency.  A working point outside the engine regime
    is tagged ``non_engine`` by its steady state's ``regime`` rather than
    raising; a failed solve, cycle or bridge raises as :func:`rows` does, its
    ``index`` counting the specs in that order.
    """
    return list(rows([point.spec_at(kind, eta) for eta in etas for kind in FAMILIES]))
