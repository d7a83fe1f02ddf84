"""Bridge between the two-stroke and autonomous pictures of one machine.

The central claim verified here: for the same engine spec, the per-cycle
population flows delta_p_i of the two-stroke machine and the stationary
transfer rates <n_i> of the autonomous machine describe the same
thermodynamics after rescaling time, delta_p_i = <n_i> * tau_i.  For
"simple" engines (all delta_p_i equal, catalyst restored), the tau_i
collapse to a single characteristic time tau, and the heats, work and
power, second law, efficiency and catalyst balance follow, both sides
summed over the pairs by :func:`~ottocat.engine_spec.pair_sums`.

:func:`equivalence_from_parts` audits that dictionary, row by row, from
one cycle run and one steady state; :func:`verify_equivalence` runs a
spec through both pictures first.  :func:`compare_at_efficiency` pits the
catalyst-free and qubit-catalyst machines against each other at matched
efficiency, which is where the catalytic advantage in work, time, and
power lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import continuous, discrete
from .engine_spec import (
    FAMILIES,
    BathParams,
    EngineSpec,
    energy_differences,
    ladder_spec,
    pair_sums,
)

__all__ = [
    "FLOW_EXCLUSION_TOL",
    "TAU_UNIFORM_TOL",
    "WORK_POWER_TOL",
    "BRIDGE_ERRORS",
    "EquivalenceReport",
    "EngineFamily",
    "EfficiencyComparison",
    "verify_equivalence",
    "equivalence_from_parts",
    "compare_at_efficiency",
]

#: Pair flows below this magnitude sit on the equilibrium boundary and
#: are excluded from characteristic-time statistics.
FLOW_EXCLUSION_TOL = 1e-13

#: Allowed relative spread of per-pair times, and gap of each flow row.
TAU_UNIFORM_TOL = 1e-9

#: Allowed gap of the heat, work-power, second-law and efficiency rows.
WORK_POWER_TOL = 1e-9

#: What :func:`equivalence_from_parts` raises: a row over its tolerance, or
#: no characteristic time; a caller that fails by point catches this pair.
BRIDGE_ERRORS = (AssertionError, ValueError)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of auditing one spec in both pictures.

    ``tau_i`` holds delta_p_i / <n_i> per pair (``None`` where the pair
    sits on the equilibrium boundary and the ratio is excluded);
    ``tau`` is their mean over included pairs, and
    ``tau_uniform_residual`` the largest gap between two of them.

    ``residuals`` holds the dictionary, one row per quantity, each a gap
    |a - b| of a scale, by default max(|a|, |b|):

    * ``tau_spread``: ``tau_uniform_residual`` of |tau|;
    * ``flow_pair_<i>``: delta_p_i vs <n_i> tau;
    * ``heat_hot``, ``heat_cold``: Q_k vs J_k tau;
    * ``work_power``: W vs P tau, of ``work_power_scale`` = max(|W|,
      sum_i |Omega_i delta_p_i|), since P tau - W sums the pair terms
      Omega_i (<n_i> tau - delta_p_i);
    * ``second_law``: -(beta_h Q_h + beta_c Q_c) vs the rate margin
      times tau, of beta_h |Q_h| + beta_c |Q_c| (which bounds |margin|);
    * ``efficiency``: |eta_discrete - eta_continuous|, 0.0 if undefined;
    * ``catalyst_balance_{discrete,continuous}_<m>``: |net flow| through
      catalyst level m per cycle (the continuous rate times tau).

    Simple engines gate the catalyst rows at ``discrete.CATALYST_SOLVE_TOL``,
    ``tau_spread`` and the flows at ``TAU_UNIFORM_TOL``, the rest at
    ``WORK_POWER_TOL``.
    """

    tau_i: tuple[float | None, ...]
    tau: float
    eta_discrete: float | None
    eta_continuous: float | None
    work_per_cycle: float
    power: float
    work_power_scale: float
    simple_permutation: bool
    tau_uniform_residual: float
    residuals: dict[str, float]


@dataclass(frozen=True)
class EngineFamily:
    """One engine design with the cold frequency left open.

    ``kind`` names a ladder of :data:`~ottocat.engine_spec.FAMILIES`, with
    catalyst dimension d.  Fixing (beta_h, beta_c, omega_h, tau_eq, g) and
    steering omega_c parameterizes the machine by its efficiency: it runs
    at eta iff omega_c = d omega_h (1 - eta), so omega_h (1 - eta) for the
    catalyst-free engine and 2 omega_h (1 - eta) with a qubit catalyst.
    Both baths share the relaxation time ``tau_eq``.
    """

    kind: str
    beta_h: float
    beta_c: float
    omega_h: float
    tau_eq: float
    g: float

    def __post_init__(self) -> None:
        if self.kind not in FAMILIES:
            raise ValueError(f"kind must be {' or '.join(map(repr, FAMILIES))}, got {self.kind!r}")
        for name in ("beta_h", "beta_c", "omega_h", "tau_eq", "g"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not self.beta_c > self.beta_h:
            raise ValueError("need beta_c > beta_h for a hot and a cold bath")

    def omega_c_at(self, eta: float) -> float:
        if not 0.0 < eta < 1.0:
            raise ValueError(f"efficiency must lie in (0, 1), got {eta}")
        return FAMILIES[self.kind] * self.omega_h * (1.0 - eta)

    def spec_at(self, eta: float) -> EngineSpec:
        hot = BathParams.from_relaxation_time(self.beta_h, self.omega_h, self.tau_eq)
        cold = BathParams.from_relaxation_time(self.beta_c, self.omega_c_at(eta), self.tau_eq)
        return ladder_spec(FAMILIES[self.kind], hot, cold, self.g)


@dataclass(frozen=True)
class EfficiencyComparison:
    """Both machines evaluated at one matched efficiency."""

    p_otto: float
    p_cat: float
    w_otto: float
    w_cat: float
    tau_otto: float
    tau_cat: float
    regime_otto: str
    regime_cat: str


def verify_equivalence(spec: EngineSpec) -> EquivalenceReport:
    """Run one spec through both pictures and audit the correspondence
    with :func:`equivalence_from_parts`."""
    return equivalence_from_parts(
        spec, discrete.run_cycle(spec), continuous.steady_state_report(spec)
    )


def _gap(a: float, b: float, scale: float | None = None) -> float:
    """|a - b| of ``scale`` (max(|a|, |b|)), absolute if the scale < 1e-30."""
    scale = max(abs(a), abs(b)) if scale is None else scale
    diff = abs(a - b)
    return diff if scale < 1e-30 else diff / scale


def _row_tolerance(row: str) -> float:
    if row.startswith("catalyst_balance_"):
        return discrete.CATALYST_SOLVE_TOL
    return TAU_UNIFORM_TOL if row.startswith(("tau_spread", "flow_pair_")) else WORK_POWER_TOL


def equivalence_from_parts(
    spec: EngineSpec,
    cycle: "discrete.CycleReport",
    ss: "continuous.SteadyStateReport",
) -> EquivalenceReport:
    """Audit the dictionary of one spec from its per-picture reports, one
    cycle run and one steady state.

    Computes tau_i = delta_p_i / <n_i> per pair and every row of
    :attr:`EquivalenceReport.residuals`.  For simple engines each row
    must be within its tolerance, or ``AssertionError`` names every row
    that is not: those are theorems for this model, not tunables.

    Raises ``ValueError`` ("mapping singular at equilibrium boundary")
    when a finite flow meets a vanished current, or when every pair sits
    on the boundary and no characteristic time exists.
    """
    tau_list: list[float | None] = []
    included: list[float] = []
    for i, (dp, current) in enumerate(zip(cycle.delta_p, ss.currents)):
        if abs(dp) < FLOW_EXCLUSION_TOL:
            tau_list.append(None)
            continue
        if current == 0.0:
            raise ValueError(
                f"mapping singular at equilibrium boundary: pair {i} has "
                f"flow {dp!r} but zero stationary current"
            )
        tau_i = dp / current
        tau_list.append(tau_i)
        included.append(tau_i)
    if not included:
        raise ValueError("mapping singular at equilibrium boundary: all pair flows vanish")
    tau = float(np.mean(included))
    tau_uniform_residual = max(included) - min(included)

    eta_d, eta_c = cycle.efficiency, ss.efficiency
    if (eta_d is None) != (eta_c is None):
        raise AssertionError(
            f"efficiency defined in only one picture: discrete {eta_d!r} "
            f"vs continuous {eta_c!r}"
        )

    flows = cycle.delta_p
    flows_equal = max(abs(dp - flows[0]) for dp in flows) <= 1e-12 * max(1.0, *map(abs, flows))
    simple = flows_equal and cycle.catalyst_residual <= discrete.CATALYST_SOLVE_TOL

    pair_work = (energy_differences(spec, i).omega_i * dp for i, dp in enumerate(flows))
    work_power_scale = max(abs(cycle.work), sum(map(abs, pair_work)))
    entropy_scale = spec.hot.beta * abs(cycle.q_hot) + spec.cold.beta * abs(cycle.q_cold)

    residuals = {"tau_spread": _gap(tau_uniform_residual, 0.0, abs(tau))}
    for i, (dp, current) in enumerate(zip(flows, ss.currents)):
        residuals[f"flow_pair_{i}"] = _gap(dp, current * tau)
    residuals["heat_hot"] = _gap(cycle.q_hot, ss.j_hot * tau)
    residuals["heat_cold"] = _gap(cycle.q_cold, ss.j_cold * tau)
    residuals["work_power"] = _gap(ss.power * tau, cycle.work, work_power_scale)
    residuals["second_law"] = _gap(cycle.clausius_margin, ss.clausius_margin * tau, entropy_scale)
    residuals["efficiency"] = 0.0 if eta_d is None else abs(eta_d - eta_c)
    net_flows = pair_sums(spec, flows)[3]
    for level, (net_c, net_d) in enumerate(zip(ss.catalysis_residuals, net_flows)):
        residuals[f"catalyst_balance_discrete_{level}"] = abs(net_d)
        residuals[f"catalyst_balance_continuous_{level}"] = abs(net_c) * tau

    if simple:
        over = [
            f"{row} {value:.3e} > {_row_tolerance(row):.1e}"
            for row, value in residuals.items()
            if not value <= _row_tolerance(row)
        ]
        if over:
            raise AssertionError("bridge rows over their tolerance: " + ", ".join(over))

    return EquivalenceReport(
        tau_i=tuple(tau_list),
        tau=tau,
        eta_discrete=eta_d,
        eta_continuous=eta_c,
        work_per_cycle=cycle.work,
        power=ss.power,
        work_power_scale=work_power_scale,
        simple_permutation=simple,
        tau_uniform_residual=tau_uniform_residual,
        residuals=residuals,
    )


def compare_at_efficiency(
    otto: EngineFamily, cat: EngineFamily, eta: float
) -> EfficiencyComparison:
    """Evaluate both machines at the same efficiency and report
    (power, work, characteristic time) for each.

    The families must be an 'otto' and a 'qubit_catalyst' design sharing
    (beta_h, beta_c, omega_h, tau_eq, g); only omega_c differs, chosen
    per family so that each machine runs at efficiency ``eta``.  Working
    points outside a machine's engine regime are returned tagged
    ``non_engine`` rather than raising.
    """
    if otto.kind != "otto":
        raise ValueError(f"first family must have kind 'otto', got {otto.kind!r}")
    if cat.kind != "qubit_catalyst":
        raise ValueError(
            f"second family must have kind 'qubit_catalyst', got {cat.kind!r}"
        )
    for name in ("beta_h", "beta_c", "omega_h", "tau_eq", "g"):
        a, b = getattr(otto, name), getattr(cat, name)
        if a != b:
            raise ValueError(f"families disagree on {name}: {a!r} vs {b!r}")

    rep_otto = verify_equivalence(otto.spec_at(eta))
    rep_cat = verify_equivalence(cat.spec_at(eta))
    return EfficiencyComparison(
        p_otto=rep_otto.power,
        p_cat=rep_cat.power,
        w_otto=rep_otto.work_per_cycle,
        w_cat=rep_cat.work_per_cycle,
        tau_otto=rep_otto.tau,
        tau_cat=rep_cat.tau,
        regime_otto="engine" if rep_otto.power > 0.0 else "non_engine",
        regime_cat="engine" if rep_cat.power > 0.0 else "non_engine",
    )
