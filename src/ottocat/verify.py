"""Self-auditing oracle suite: every headline claim, re-derived and measured.

Each check pits an independent closed-form oracle from :mod:`~ottocat.analytic`
against the matrix-based solvers in :mod:`~ottocat.discrete` and
:mod:`~ottocat.continuous`, or evaluates a structural identity that holds
exactly for this model.  A check never weakens its tolerance to pass: the
tolerances here are the shipped contract, and :func:`run_suite` is what the
``verify`` subcommand executes.

Random grids use the PCG64 generator with an explicit integer seed, so a
report is reproducible bit-for-bit from its (seed, points) header line.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import analytic, continuous, discrete, mapping
from .engine_spec import FAMILIES, BathParams, EngineSpec, hamiltonians, ladder_spec, pair_sums
from .qstate import DensityMatrix, expectation, partial_trace

__all__ = [
    "CheckResult",
    "GridPoint",
    "sample_grid",
    "check_efficiency_design_match",
    "check_current_closed_form",
    "check_time_bridge",
    "check_tradeoff_bounds",
    "check_power_advantage",
    "check_thermo_consistency",
    "check_stationary_relations",
    "check_two_stroke_oracles",
    "run_suite",
    "format_report",
]


#: Samples per array block in :func:`check_tradeoff_bounds`.  Blocks bound
#: the temporaries: evaluating all 10 000 samples at once raised the peak
#: resident memory of a default ``verify`` run by about 5 %.
_TRADEOFF_BLOCK = 1000

#: Matched efficiencies in :func:`check_power_advantage`, and random rate
#: sets in :func:`check_stationary_relations`.
_POWER_POINTS = 100
_RATE_SETS = 20

#: The reference working point of :func:`check_power_advantage`: beta_h omega_h
#: = 0.1, beta_c/beta_h = 10, g tau_eq = 10, with omega_h = tau_eq = 1 setting
#: the scale.
REFERENCE_POINT = mapping.WorkingPoint(beta_h=0.1, beta_c=1.0, omega_h=1.0, tau_eq=1.0, g=10.0)


@dataclass(frozen=True)
class CheckResult:
    """One named check with its worst observed residual and tolerance;
    ``worst_at`` indexes the grid point a failed grid check names."""

    name: str
    passed: bool
    worst: float
    tol: float
    detail: str
    worst_at: int | None = None


@dataclass(frozen=True)
class GridPoint:
    """One random working point shared by the grid-based checks.

    Gibbs factors are sampled away from the degeneracy lines a_h = a_c
    (where the catalyst-free flow vanishes) and a_c = a_h^2 (where the
    catalytic flow vanishes) so that currents stay resolvable.
    Relaxation times span three decades; the coupling is steered through
    the dimensionless product g * sqrt(tau_h tau_c) over two decades, so
    the grid covers many decades of raw g without ever producing a
    working point whose slowest mode is so far below the fastest rate
    that double precision cannot resolve the 1e-9 comparisons being made.

    The baths, the spec of each engine of
    :data:`~ottocat.engine_spec.FAMILIES` (in that order) and their steady
    states are built on first use and kept, so every check that reads
    them shares one solve per spec; :func:`run_suite` solves every point's
    steady states up front, in one stacked call.
    """

    a_h: float
    a_c: float
    omega_h: float
    omega_c: float
    tau_h: float
    tau_c: float
    g: float

    @functools.cached_property
    def baths(self) -> tuple[BathParams, BathParams]:
        beta_h = -math.log(self.a_h) / self.omega_h
        beta_c = -math.log(self.a_c) / self.omega_c
        return (
            BathParams.from_relaxation_time(beta_h, self.omega_h, self.tau_h),
            BathParams.from_relaxation_time(beta_c, self.omega_c, self.tau_c),
        )

    @functools.cached_property
    def specs(self) -> tuple[EngineSpec, ...]:
        return tuple(ladder_spec(d, *self.baths, self.g) for d in FAMILIES.values())

    @functools.cached_property
    def reports(self) -> tuple[continuous.SteadyStateReport, ...]:
        return tuple(map(continuous.steady_state_report, self.specs))


def _scan(grid: list[GridPoint], value: Callable, pick: Callable = max) -> tuple[float, int]:
    """The worst, by ``pick``, of ``value(pt, spec, report)`` over every
    engine of every grid point, and its point's index (the first on a tie)."""
    return pick(
        ((value(pt, spec, report), index)
         for index, pt in enumerate(grid) for spec, report in zip(pt.specs, pt.reports)),
        key=itemgetter(0),
    )


def _grid_result(
    name: str, passed: bool, worst: float, tol: float, detail: str,
    grid: list[GridPoint], worst_at: int,
) -> CheckResult:
    """A grid check's result; a failed one names grid point ``worst_at``
    at the end of its detail, by index and fields, and as a field."""
    if passed:
        return CheckResult(name, True, worst, tol, detail)
    detail = f"{detail}; worst at grid point {worst_at}, {grid[worst_at]!r}"
    return CheckResult(name, False, worst, tol, detail, worst_at)


def sample_grid(rng: np.random.Generator, n_points: int) -> list[GridPoint]:
    """Draw ``n_points`` working points for the grid-based checks."""
    points = []
    while len(points) < n_points:
        a_h = rng.uniform(0.02, 0.98)
        a_c = rng.uniform(0.02, 0.98)
        if abs(a_h - a_c) < 0.05 or abs(a_h**2 - a_c) < 0.05:
            continue
        tau_h = 10.0 ** rng.uniform(-1.5, 1.5)
        tau_c = 10.0 ** rng.uniform(-1.5, 1.5)
        g_tau = 10.0 ** rng.uniform(-1.0, 1.0)
        points.append(
            GridPoint(
                a_h=a_h,
                a_c=a_c,
                omega_h=rng.uniform(0.5, 2.0),
                omega_c=rng.uniform(0.5, 2.0),
                tau_h=tau_h,
                tau_c=tau_c,
                g=g_tau / math.sqrt(tau_h * tau_c),
            )
        )
    return points


def check_efficiency_design_match(grid: list[GridPoint]) -> CheckResult:
    """Steady-state efficiency equals the design value
    1 - omega_c/(d omega_h) of each engine, d its catalyst dimension, on
    every point, to 1e-9 absolute."""
    tol = 1e-9

    def gap(pt: GridPoint, spec: EngineSpec, report: continuous.SteadyStateReport) -> float:
        expected = analytic.design_efficiency(pt.omega_h, pt.omega_c, spec.catalyst_dim)
        return math.inf if report.efficiency is None else abs(report.efficiency - expected)

    worst, worst_at = _scan(grid, gap)
    if any(report.efficiency is None for report in grid[worst_at].reports):
        detail = "hit a point with undefined efficiency (J_h = 0)"
    else:
        detail = f"|eta_ness - eta_design| over {len(grid)} points x {len(FAMILIES)} engines"
    return _grid_result(
        "efficiency_design_match", worst <= tol, worst, tol, detail, grid, worst_at
    )


def check_current_closed_form(grid: list[GridPoint]) -> CheckResult:
    """Numerical stationary transfer rates match the closed forms to 1e-9
    relative, for both engines on every grid point."""
    tol = 1e-9

    def error(pt: GridPoint, spec: EngineSpec, report: continuous.SteadyStateReport) -> float:
        hot, cold = spec.hot, spec.cold
        if spec.catalyst_dim == 1:
            expected = analytic.otto_current(
                hot.big_gamma, cold.big_gamma, pt.g, analytic.otto_delta_p(pt.a_h, pt.a_c)
            )
        else:
            constants = analytic.rate_constants(
                hot.gamma_plus, hot.gamma_minus, cold.gamma_plus, cold.gamma_minus
            )
            expected = analytic.cat_current(
                constants, pt.g, analytic.cat_delta_p(pt.a_h, pt.a_c).value
            )
        return max(abs(current - expected) / abs(expected) for current in report.currents)

    worst, worst_at = _scan(grid, error)
    return _grid_result(
        "current_closed_form", worst <= tol, worst, tol,
        f"relative current error over {len(grid)} points x {len(FAMILIES)} engines",
        grid, worst_at,
    )


def check_time_bridge(grid: list[GridPoint]) -> CheckResult:
    """The two pictures describe one machine: every row of the bridge's
    dictionary (:attr:`~ottocat.mapping.EquivalenceReport.residuals`) is
    within 1e-9 on every point for both engines, and the line names the
    worst; each engine's pair currents agree to 1e-10 absolute.  A point where the bridge audit raises (a row over its own
    tolerance, say) fails the check, naming the engine and the point."""
    tol = 1e-9
    current_tol = 1e-10
    worst, worst_row, worst_at = 0.0, "", 0
    engines = list(FAMILIES)
    specs = [spec for pt in grid for spec in pt.specs]
    try:
        records = mapping.rows(specs, reports=[report for pt in grid for report in pt.reports])
        for k, (_, _, report) in enumerate(records):
            index, engine = divmod(k, len(engines))
            for row, gap in report.residuals.items():
                if gap >= worst:  # the last row of a tie is the one the line names
                    worst, worst_row, worst_at = gap, f"{engines[engine]} {row}", index
    except mapping.BRIDGE_ERRORS as exc:
        index, engine = divmod(exc.index, len(engines))
        detail = f"{engines[engine]} bridge failed at grid point {index}, {grid[index]!r}: {exc}"
        return CheckResult("time_bridge", False, math.inf, tol, detail, index)
    pair_gap, pair_gap_at = _scan(grid, lambda pt, spec, ss: max(ss.currents) - min(ss.currents))
    return _grid_result(
        "time_bridge", worst <= tol and pair_gap <= current_tol, max(worst, pair_gap), tol,
        f"worst bridge row {worst_row} over {len(grid)} points x {len(FAMILIES)} engines; "
        f"pair-current gap {pair_gap:.3e} (tol {current_tol:.0e})",
        grid, worst_at if worst > tol else pair_gap_at,
    )


def check_tradeoff_bounds(rng: np.random.Generator, n_samples: int = 10_000) -> CheckResult:
    """zeta <= 1 and kappa <= 1 over uniform (a_h, a_c) in (0,1)^2, hence
    tau_catalytic <= tau_otto at equal relaxation times (checked to 1e-9
    relative with a coupling sampled over two decades)."""
    bound_tol = 1e-12
    tau_tol = 1e-9
    worst_bound = 0.0
    worst_tau = 0.0
    bound_at = tau_at = None  # (a_h, a_c, g) of the sample that set each
    for start in range(0, n_samples, _TRADEOFF_BLOCK):
        # One row (a_h, a_c, log10 g) per sample: the same doubles, in the
        # same order, as three scalar draws per sample.
        draws = rng.uniform(
            low=[1e-6, 1e-6, -1.0],
            high=[1.0, 1.0, 1.0],
            size=(min(_TRADEOFF_BLOCK, n_samples - start), 3),
        )
        a_h, a_c = draws[:, 0], draws[:, 1]
        # Python's float power: NumPy's array power differs in the last ulp.
        g = np.array([10.0**x for x in draws[:, 2].tolist()])
        gamma_h_minus = 2.0 / (1.0 + a_h)  # tau_eq = 1 for both baths
        gamma_c_minus = 2.0 / (1.0 + a_c)
        constants = analytic.rate_constants(
            a_h * gamma_h_minus, gamma_h_minus, a_c * gamma_c_minus, gamma_c_minus
        )
        breakdown = analytic.cat_tau(constants, g, a_h, a_c)
        if breakdown.zeta is None or breakdown.kappa is None:
            return CheckResult(
                name="tradeoff_bounds",
                passed=False,
                worst=math.inf,
                tol=bound_tol,
                detail="equal-relaxation factorization not detected",
            )
        bound_excess = np.maximum.reduce([
            breakdown.zeta - 1.0,
            breakdown.kappa - 1.0,
            # The complement forms must describe the same numbers...
            abs(breakdown.zeta - (1.0 - analytic.one_minus_zeta(a_h, a_c))),
            abs(breakdown.kappa - (1.0 - analytic.one_minus_kappa(a_h, a_c))),
        ])
        # ...and the consequence must hold: the catalyst never slows the machine.
        tau_otto = analytic.otto_tau(1.0, 1.0, g).tau
        tau_excess = (breakdown.tau - tau_otto) / tau_otto
        i = int(np.argmax(bound_excess))
        if bound_excess[i] > worst_bound:
            worst_bound, bound_at = float(bound_excess[i]), (a_h[i], a_c[i], g[i])
        i = int(np.argmax(tau_excess))
        if tau_excess[i] > worst_tau:
            worst_tau, tau_at = float(tau_excess[i]), (a_h[i], a_c[i], g[i])
    passed = worst_bound <= bound_tol and worst_tau <= tau_tol
    detail = (
        f"zeta/kappa excess over 1 and complement-form gap, {n_samples} "
        f"samples; max relative tau excess {worst_tau:.3e} (tol {tau_tol:.0e})"
    )
    if not passed:
        sample = bound_at if worst_bound > bound_tol else tau_at
        detail += f"; worst sample (a_h, a_c, g) = {tuple(map(float, sample))}"
    return CheckResult(
        name="tradeoff_bounds",
        passed=passed,
        worst=worst_bound,
        tol=bound_tol,
        detail=detail,
    )


def check_power_advantage() -> CheckResult:
    """At :data:`REFERENCE_POINT`, the qubit-catalyst engine beats the
    catalyst-free one in power at every matched efficiency where both run
    as engines, and both powers collapse approaching the shared efficiency
    limit, at eta = 0.9 - 1e-5.  Every point, the near-limit pair included,
    is bridged through one :func:`~ottocat.mapping.compare_at_efficiency`
    call on that one point; a failure there fails the check, naming the
    engine (by its position in :data:`~ottocat.engine_spec.FAMILIES`) and
    the efficiency."""
    tol = 0.0  # the dominance must be strict
    etas = [*map(float, np.linspace(0.01, 0.89, _POWER_POINTS)), 0.9 - 1e-5]
    try:
        records = mapping.compare_at_efficiency(REFERENCE_POINT, etas)
    except mapping.BRIDGE_ERRORS as exc:
        eta, kind = divmod(exc.index, len(FAMILIES))
        detail = f"{list(FAMILIES)[kind]} bridge failed at eta = {etas[eta]}: {exc}"
        return CheckResult("power_advantage", False, math.inf, tol, detail)
    powers = [report.power for report, _, _ in records]
    p_otto, p_cat = powers[0:-2:2], powers[1:-2:2]
    engines = [cat - otto for otto, cat in zip(p_otto, p_cat) if otto > 0.0 and cat > 0.0]
    worst_margin = min(engines, default=math.inf)
    decay_otto = powers[-2] / max([0.0, *p_otto])
    decay_cat = powers[-1] / max([0.0, *p_cat])
    passed = worst_margin > tol and decay_otto < 1e-3 and decay_cat < 1e-3
    return CheckResult(
        name="power_advantage",
        passed=passed,
        worst=-worst_margin,
        tol=tol,
        detail=(
            f"min power margin {worst_margin:.3e} over {_POWER_POINTS} matched "
            f"efficiencies; near-limit power ratios {decay_otto:.1e}/{decay_cat:.1e}"
        ),
    )


def check_thermo_consistency(grid: list[GridPoint]) -> CheckResult:
    """Clausius margin and entropy production rate >= -1e-8 at every
    steady state; the interaction term exchanged with each bath vanishes
    to 1e-10."""
    margin_tol = 1e-8
    int_tol = 1e-10
    worst_margin, margin_at = _scan(
        grid, lambda pt, spec, r: min(r.clausius_margin, r.entropy_production), min
    )
    worst_int, int_at = _scan(grid, lambda pt, spec, r: max(r.int_vanish_residuals))
    margin_ok = worst_margin >= -margin_tol
    return _grid_result(
        "thermo_consistency", margin_ok and worst_int <= int_tol,
        max(-worst_margin, 0.0) + worst_int, margin_tol,
        f"min(Clausius, sigma) = {worst_margin:.3e} (tol -{margin_tol:.0e}); "
        f"max interaction residual {worst_int:.3e} (tol {int_tol:.0e})",
        grid, int_at if margin_ok else margin_at,
    )


def stationary_relation_residuals(
    spec: EngineSpec, report: continuous.SteadyStateReport
) -> list[float]:
    """Residuals of the stationary population-and-current relations of
    the qubit-catalyst engine, evaluated on its numerical steady state
    ``report``.

    The set closes the hierarchy of level occupations p_(s,h,c), the
    common transfer rate <n>, and the auxiliary coherence X on the
    non-resonant transition |0,1,1> <-> |1,0,1|; every member must vanish
    in the steady state.  The relations fix the ladder's levels, pair
    orientation and one coupling g, so any other spec raises ``ValueError``,
    the same machine with its pairs flipped included.
    """
    couplings = {pair.g for pair in spec.swaps}
    if len(couplings) != 1 or spec != ladder_spec(2, spec.hot, spec.cold, *couplings):
        raise ValueError("stationary relations apply to the qubit-catalyst engine")
    rho_ss = report.rho_ss
    p = rho_ss.populations()
    n1, n2 = report.currents
    ndot = 0.5 * (n1 + n2)

    gh_p, gh_m = spec.hot.gamma_plus, spec.hot.gamma_minus
    gc_p, gc_m = spec.cold.gamma_plus, spec.cold.gamma_minus
    g = spec.swaps[0].g
    constants = analytic.rate_constants(gh_p, gh_m, gc_p, gc_m)
    a_rate, b_rate = constants.A_rate, constants.B_rate

    # Populations indexed by (catalyst level, hot, cold) flattened on the
    # (2, 2, 2) layout: p[s*4 + h*2 + c].
    x_op = np.zeros((8, 8), dtype=complex)
    x_op[3, 5] = 1j * g
    x_op[5, 3] = -1j * g
    x_val = expectation(x_op, rho_ss).real

    return [
        -(gh_p + gc_p) * p[0] + gh_m * p[2] + gc_m * p[1],
        -ndot - (gh_p + gc_p) * p[4] + gh_m * p[6] + gc_m * p[5],
        -ndot - (gh_p + gc_m) * p[1] + gh_m * p[3] + gc_p * p[0],
        -(gh_p + gc_m) * p[5] + gh_m * p[7] + gc_p * p[4],
        ndot - (gh_m + gc_p) * p[2] + gh_p * p[0] + gc_m * p[3],
        ndot - (gh_m + gc_p) * p[6] + gh_p * p[4] + gc_m * p[7],
        -(gh_m + gc_m) * p[3] + gh_p * p[1] + gc_p * p[2],
        -(gh_m + gc_m) * p[7] + gh_p * p[5] + gc_p * p[6],
        -2.0 * g**2 * (p[6] - p[1]) - 0.5 * b_rate * ndot,
        -2.0 * g**2 * (p[2] - p[4]) - 0.5 * a_rate * ndot,
        n1 - n2,
        -0.5 * (gh_m + gh_p + 2.0 * gc_m) * x_val - gc_p * ndot,
    ]


def check_stationary_relations(rng: np.random.Generator) -> CheckResult:
    """The full stationary relation set holds on the numerical steady
    state to 1e-9 for random rate sets."""
    tol = 1e-9
    specs = []
    for _ in range(_RATE_SETS):
        a_h = rng.uniform(0.05, 0.95)
        a_c = rng.uniform(0.05, 0.95)
        omega_h = rng.uniform(0.5, 2.0)
        omega_c = rng.uniform(0.5, 2.0)
        hot = BathParams.from_damping(
            -math.log(a_h) / omega_h, omega_h, 10.0 ** rng.uniform(-0.5, 0.5)
        )
        cold = BathParams.from_damping(
            -math.log(a_c) / omega_c, omega_c, 10.0 ** rng.uniform(-0.5, 0.5)
        )
        specs.append(ladder_spec(2, hot, cold, 10.0 ** rng.uniform(-0.5, 0.5)))
    worst = 0.0
    n_relations = 0
    for spec, report in zip(specs, continuous.steady_state_reports(specs)):
        residuals = stationary_relation_residuals(spec, report)
        n_relations = len(residuals)
        worst = max(worst, max(abs(r) for r in residuals))
    return CheckResult(
        name="stationary_relations",
        passed=worst <= tol,
        worst=worst,
        tol=tol,
        detail=f"{n_relations} relations x {_RATE_SETS} rate sets",
    )


def check_two_stroke_oracles(rng: np.random.Generator) -> CheckResult:
    """Discrete-side exactness, with the operator route as the oracle of
    the population route that :func:`~ottocat.discrete.run_cycle` emits,
    run on the catalyst the cycle reports: operator-trace heats
    Tr[H_0k (rho0 - S rho0 S^+)] equal the emitted heats and the
    energy-difference sums, the partial-trace marginal gap equals
    ``catalyst_residual``, the catalyst matches its closed form, and one
    full cycle restores the initial state — all to 1e-12.  The cycles of
    all points run as one :func:`~ottocat.mapping.rows` call."""
    tol = 1e-12
    worst = 0.0
    specs, closed_forms = [], []
    for _ in range(10):
        a_h = rng.uniform(0.05, 0.95)
        a_c = rng.uniform(0.05, 0.95)
        omega_h = rng.uniform(0.5, 2.0)
        omega_c = rng.uniform(0.5, 2.0)
        hot = BathParams.from_relaxation_time(-math.log(a_h) / omega_h, omega_h, 1.0)
        cold = BathParams.from_relaxation_time(-math.log(a_c) / omega_c, omega_c, 1.0)
        ground = analytic.cat_population(a_h, a_c)
        catalysts = {1: (1.0,), 2: (ground, 1.0 - ground)}  # closed forms, by d
        specs += [ladder_spec(d, hot, cold, 1.0) for d in FAMILIES.values()]
        closed_forms += [catalysts[d] for d in FAMILIES.values()]
    records = mapping.rows(specs, "discrete")
    for spec, expected, (_, cycle, _) in zip(specs, closed_forms, records):
        worst = max(worst, *(abs(q - e) for q, e in zip(cycle.catalyst, expected)))
        # The operator route: permutation matrix, operator traces of the
        # bare Hamiltonians, partial trace, heat stroke.
        rho0 = discrete.build_initial_state(spec, cycle.catalyst)
        swap = discrete.permutation_matrix(spec)
        rho1 = DensityMatrix(spec.layout, swap @ rho0.matrix @ swap.conj().T)
        diff = rho0.matrix - rho1.matrix
        emitted_heats = (cycle.q_hot, cycle.q_cold)
        pair_heats = pair_sums([spec], np.array([cycle.delta_p]).T)[:2]  # energy differences
        for h0k, emitted, pairwise in zip(hamiltonians(spec), emitted_heats, pair_heats):
            traced = float(np.trace(h0k @ diff).real)
            worst = max(worst, abs(traced - emitted), abs(traced - pairwise.item()))
        gap = partial_trace(rho1, keep=(0,)).matrix - partial_trace(rho0, keep=(0,)).matrix
        worst = max(worst, abs(float(np.max(np.abs(gap))) - cycle.catalyst_residual))
        rho2 = discrete.heat_stroke(spec, rho1)
        worst = max(worst, float(np.max(np.abs(rho2.matrix - rho0.matrix))))
    return CheckResult(
        name="two_stroke_oracles",
        passed=worst <= tol,
        worst=worst,
        tol=tol,
        detail="heat routes, catalyst closed form, and cycle closure (10 random points)",
    )


def run_suite(seed: int, n_points: int = 100) -> list[CheckResult]:
    """Execute every check on freshly sampled grids; order is stable."""
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    rng = np.random.Generator(np.random.PCG64(seed))
    grid = sample_grid(rng, n_points)
    try:  # a failure names the grid point and the engine
        reports = iter(continuous.steady_state_reports([s for pt in grid for s in pt.specs]))
    except (ValueError, AssertionError) as exc:
        index, engine = divmod(exc.index, len(FAMILIES))
        point = f"{list(FAMILIES)[engine]} at grid point {index}, {grid[index]!r}"
        raise type(exc)(f"{point}: {exc}") from None
    for pt in grid:  # fills the cached property
        vars(pt)["reports"] = tuple(next(reports) for _ in pt.specs)
    return [
        check_efficiency_design_match(grid),
        check_current_closed_form(grid),
        check_time_bridge(grid),
        check_tradeoff_bounds(rng),
        check_power_advantage(),
        check_thermo_consistency(grid),
        check_stationary_relations(rng),
        check_two_stroke_oracles(rng),
    ]


def format_report(results: list[CheckResult], seed: int, n_points: int) -> str:
    """Human-readable pass/fail table with worst residual per check."""
    lines = [f"oracle suite  seed={seed}  points={n_points}  rng=PCG64"]
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(
            f"{status}  {res.name:<26s} worst {res.worst: .3e}  "
            f"tol {res.tol:.1e}  {res.detail}"
        )
    n_pass = sum(1 for r in results if r.passed)
    overall = "PASS" if n_pass == len(results) else "FAIL"
    lines.append(f"RESULT: {overall} ({n_pass}/{len(results)} checks)")
    return "\n".join(lines)
