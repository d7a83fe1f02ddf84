"""Bridge between the two-stroke and autonomous pictures of one machine.

The central claim verified here: for the same engine spec, the per-cycle
population flows delta_p_i of the two-stroke machine and the stationary
transfer rates <n_i> of the autonomous machine describe the same
thermodynamics after rescaling time, delta_p_i = <n_i> * tau_i.  For
"simple" engines (all delta_p_i equal, catalyst restored), the tau_i
collapse to a single characteristic time tau, the efficiencies of the
two pictures coincide, and the per-cycle work obeys W = P * tau.

:func:`verify_equivalence` performs that audit numerically on any spec;
:func:`table_correspondence_residuals` walks the full quantity-by-
quantity dictionary (flows, heats, work/power, second-law margins,
efficiencies, catalyst balance); :func:`compare_at_efficiency` pits the
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
    BathParams,
    EngineSpec,
    catalyst_weights,
    energy_differences,
    otto_spec_from_baths,
    qubit_catalyst_spec_from_baths,
)

__all__ = [
    "FLOW_EXCLUSION_TOL",
    "TAU_UNIFORM_TOL",
    "WORK_POWER_TOL",
    "EquivalenceReport",
    "EngineFamily",
    "EfficiencyComparison",
    "verify_equivalence",
    "equivalence_from_parts",
    "table_correspondence_residuals",
    "compare_at_efficiency",
]

#: Pair flows below this magnitude sit on the equilibrium boundary and
#: are excluded from characteristic-time statistics.
FLOW_EXCLUSION_TOL = 1e-13

#: Allowed relative spread of per-pair times for simple engines.
TAU_UNIFORM_TOL = 1e-9

#: Allowed violation of W = P * tau for simple engines, of its scale.
WORK_POWER_TOL = 1e-9


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of auditing one spec in both pictures.

    ``tau_i`` holds delta_p_i / <n_i> per pair (``None`` where the pair
    sits on the equilibrium boundary and the ratio is excluded);
    ``tau`` is their mean over included pairs.  ``p_times_tau_minus_w``
    is the signed residual of the work-power bridge W = P * tau, a sum
    of pair terms Omega_i (<n_i> tau - delta_p_i) whose round-off scales
    with ``work_power_scale`` = max(|W|, sum_i |Omega_i delta_p_i|).
    """

    tau_i: tuple[float | None, ...]
    tau: float
    eta_discrete: float | None
    eta_continuous: float | None
    eta_gap: float
    work_per_cycle: float
    power: float
    p_times_tau_minus_w: float
    work_power_scale: float
    simple_permutation: bool
    tau_uniform_residual: float


@dataclass(frozen=True)
class EngineFamily:
    """One engine design with the cold frequency left open.

    Fixing (beta_h, beta_c, omega_h, tau_eq, g) and steering omega_c
    parameterizes the machine by its efficiency: the catalyst-free
    engine runs at eta iff omega_c = omega_h (1 - eta), the
    qubit-catalyst engine at eta iff omega_c = 2 omega_h (1 - eta).
    Both baths share the relaxation time ``tau_eq``.
    """

    kind: str
    beta_h: float
    beta_c: float
    omega_h: float
    tau_eq: float
    g: float

    def __post_init__(self) -> None:
        if self.kind not in ("otto", "qubit_catalyst"):
            raise ValueError(f"kind must be 'otto' or 'qubit_catalyst', got {self.kind!r}")
        for name in ("beta_h", "beta_c", "omega_h", "tau_eq", "g"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not self.beta_c > self.beta_h:
            raise ValueError("need beta_c > beta_h for a hot and a cold bath")

    def omega_c_at(self, eta: float) -> float:
        if not 0.0 < eta < 1.0:
            raise ValueError(f"efficiency must lie in (0, 1), got {eta}")
        if self.kind == "otto":
            return self.omega_h * (1.0 - eta)
        return 2.0 * self.omega_h * (1.0 - eta)

    def spec_at(self, eta: float) -> EngineSpec:
        hot = BathParams.from_relaxation_time(self.beta_h, self.omega_h, self.tau_eq)
        cold = BathParams.from_relaxation_time(self.beta_c, self.omega_c_at(eta), self.tau_eq)
        if self.kind == "otto":
            return otto_spec_from_baths(hot, cold, self.g)
        return qubit_catalyst_spec_from_baths(hot, cold, self.g)


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
    """Run one spec through both pictures and audit the correspondence.

    Computes tau_i = delta_p_i / <n_i> per pair, the efficiency in both
    pictures, and the work-power bridge.  For simple engines the per-pair
    times must agree to ``TAU_UNIFORM_TOL`` relative and W = P * tau to
    ``WORK_POWER_TOL`` of the report's ``work_power_scale``; a violation
    raises ``AssertionError``: those are theorems for this model, not tunables.

    Raises ``ValueError`` ("mapping singular at equilibrium boundary")
    when a finite flow meets a vanished current, or when every pair sits
    on the boundary and no characteristic time exists.
    """
    return equivalence_from_parts(
        spec, discrete.run_cycle(spec), continuous.steady_state_report(spec)
    )


def equivalence_from_parts(
    spec: EngineSpec,
    cycle: "discrete.CycleReport",
    ss: "continuous.SteadyStateReport",
) -> EquivalenceReport:
    """Same audit as :func:`verify_equivalence`, reusing already-computed
    per-picture reports (one cycle run and one steady state)."""
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
        raise ValueError(
            "mapping singular at equilibrium boundary: all pair flows vanish"
        )
    tau = float(np.mean(included))
    tau_uniform_residual = max(
        (abs(a - b) for a in included for b in included), default=0.0
    )

    eta_d, eta_c = cycle.efficiency, ss.efficiency
    if (eta_d is None) != (eta_c is None):
        raise AssertionError(
            f"efficiency defined in only one picture: discrete {eta_d!r} "
            f"vs continuous {eta_c!r}"
        )
    eta_gap = 0.0 if eta_d is None else abs(eta_d - eta_c)

    flows = cycle.delta_p
    flow_scale = max(abs(dp) for dp in flows)
    flows_equal = max(abs(dp - flows[0]) for dp in flows) <= 1e-12 * max(1.0, flow_scale)
    simple = flows_equal and cycle.catalyst_residual <= 1e-10

    p_times_tau_minus_w = ss.power * tau - cycle.work
    pair_work = (energy_differences(spec, i).omega_i * dp for i, dp in enumerate(flows))
    work_power_scale = max(abs(cycle.work), sum(map(abs, pair_work)))

    if simple:
        if tau_uniform_residual > TAU_UNIFORM_TOL * abs(tau):
            raise AssertionError(
                f"per-pair times spread {tau_uniform_residual:.3e} exceeds "
                f"{TAU_UNIFORM_TOL:.1e} of tau = {tau!r}"
            )
        if abs(p_times_tau_minus_w) > WORK_POWER_TOL * max(1e-30, work_power_scale):
            raise AssertionError(
                f"work-power bridge broken: P*tau - W = {float(p_times_tau_minus_w)!r} "
                f"with W = {cycle.work!r}, max(|W|, sum |Omega_i dp_i|) = {work_power_scale!r}"
            )

    return EquivalenceReport(
        tau_i=tuple(tau_list),
        tau=tau,
        eta_discrete=eta_d,
        eta_continuous=eta_c,
        eta_gap=eta_gap,
        work_per_cycle=cycle.work,
        power=ss.power,
        p_times_tau_minus_w=p_times_tau_minus_w,
        work_power_scale=work_power_scale,
        simple_permutation=simple,
        tau_uniform_residual=tau_uniform_residual,
    )


def _relative_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    diff = abs(a - b)
    return diff if scale < 1e-30 else diff / scale


def table_correspondence_residuals(spec: EngineSpec) -> dict[str, float]:
    """Quantity-by-quantity audit of the two-picture correspondence.

    Extensive rows compare the discrete per-cycle value against the
    stationary rate times the characteristic time; intensive rows
    compare directly.  Keys and their comparisons:

    * ``flow_pair_<i>``       — delta_p_i  vs  <n_i> * tau
    * ``heat_hot``/``heat_cold`` — Q_k  vs  J_k * tau
    * ``work_power``          — W  vs  P * tau
    * ``second_law``          — beta-weighted heat sum vs current sum * tau
    * ``efficiency``          — eta of the two pictures
    * ``catalyst_balance_discrete_<m>`` / ``catalyst_balance_continuous_<m>``
      — the net flow through catalyst level m in each picture (both must
      vanish on their own)

    All values are relative gaps except the catalyst-balance rows, which
    are already residuals and reported as magnitudes (the continuous one
    scaled by tau to share units with the discrete one).
    """
    cycle = discrete.run_cycle(spec)
    ss = continuous.steady_state_report(spec)
    report = equivalence_from_parts(spec, cycle, ss)
    tau = report.tau

    out: dict[str, float] = {}
    for i, (dp, current) in enumerate(zip(cycle.delta_p, ss.currents)):
        out[f"flow_pair_{i}"] = _relative_gap(dp, current * tau)
    out["heat_hot"] = _relative_gap(cycle.q_hot, ss.j_hot * tau)
    out["heat_cold"] = _relative_gap(cycle.q_cold, ss.j_cold * tau)
    out["work_power"] = _relative_gap(cycle.work, ss.power * tau)
    out["second_law"] = _relative_gap(-cycle.clausius_margin, -ss.clausius_margin * tau)
    if cycle.efficiency is None and ss.efficiency is None:
        out["efficiency"] = 0.0
    elif cycle.efficiency is None or ss.efficiency is None:
        out["efficiency"] = math.inf
    else:
        out["efficiency"] = _relative_gap(cycle.efficiency, ss.efficiency)

    for level, (net_c, weights) in enumerate(
        zip(ss.catalysis_residuals, catalyst_weights(spec))
    ):
        net_d = 0.0
        for i, weight in enumerate(weights):
            net_d += weight * cycle.delta_p[i]
        out[f"catalyst_balance_discrete_{level}"] = abs(net_d)
        out[f"catalyst_balance_continuous_{level}"] = abs(net_c) * tau
    return out


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
