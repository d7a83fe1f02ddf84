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
from dataclasses import dataclass

import numpy as np

from . import analytic, continuous, discrete, mapping
from .engine_spec import (
    BathParams,
    EngineSpec,
    energy_differences,
    otto_spec_from_baths,
    qubit_catalyst_spec_from_baths,
)
from .qstate import DensityMatrix, Operator, expectation

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


@dataclass(frozen=True)
class CheckResult:
    """One named check with its worst observed residual and tolerance."""

    name: str
    passed: bool
    worst: float
    tol: float
    detail: str


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

    Each engine's steady state is solved on first use and kept, so every
    check that reads it shares one solve per point.
    """

    a_h: float
    a_c: float
    omega_h: float
    omega_c: float
    tau_h: float
    tau_c: float
    g: float

    def baths(self) -> tuple[BathParams, BathParams]:
        beta_h = -math.log(self.a_h) / self.omega_h
        beta_c = -math.log(self.a_c) / self.omega_c
        return (
            BathParams.from_relaxation_time(beta_h, self.omega_h, self.tau_h),
            BathParams.from_relaxation_time(beta_c, self.omega_c, self.tau_c),
        )

    def otto(self) -> EngineSpec:
        hot, cold = self.baths()
        return otto_spec_from_baths(hot, cold, self.g)

    def catalytic(self) -> EngineSpec:
        hot, cold = self.baths()
        return qubit_catalyst_spec_from_baths(hot, cold, self.g)

    @functools.cached_property
    def otto_report(self) -> continuous.SteadyStateReport:
        return continuous.steady_state_report(self.otto())

    @functools.cached_property
    def catalytic_report(self) -> continuous.SteadyStateReport:
        return continuous.steady_state_report(self.catalytic())


def _naming_worst(detail: str, passed: bool, grid: list[GridPoint], index: int) -> str:
    """``detail``, and for a failed check the index and fields of the grid
    point that set its worst value."""
    return detail if passed else f"{detail}; worst at grid point {index}, {grid[index]!r}"


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
    """Steady-state efficiency equals the design value on every point:
    1 - omega_c/omega_h (catalyst-free), 1 - omega_c/(2 omega_h)
    (qubit catalyst), to 1e-9 absolute."""
    tol = 1e-9
    worst = 0.0
    worst_at = 0
    for index, pt in enumerate(grid):
        eta_otto, eta_cat = analytic.design_efficiencies(pt.omega_h, pt.omega_c)
        for report, expected in (
            (pt.otto_report, eta_otto),
            (pt.catalytic_report, eta_cat),
        ):
            if report.efficiency is None:
                return CheckResult(
                    name="efficiency_design_match",
                    passed=False,
                    worst=math.inf,
                    tol=tol,
                    detail="hit a point with undefined efficiency (J_h = 0)",
                )
            gap = abs(report.efficiency - expected)
            if gap > worst:
                worst, worst_at = gap, index
    passed = worst <= tol
    return CheckResult(
        name="efficiency_design_match",
        passed=passed,
        worst=worst,
        tol=tol,
        detail=_naming_worst(
            f"|eta_ness - eta_design| over {len(grid)} points x 2 engines",
            passed, grid, worst_at,
        ),
    )


def check_current_closed_form(grid: list[GridPoint]) -> CheckResult:
    """Numerical stationary transfer rates match the closed forms to 1e-9
    relative, for both engines on every grid point."""
    tol = 1e-9
    worst = 0.0
    worst_at = 0
    for index, pt in enumerate(grid):
        otto = pt.otto()
        otto_expected = analytic.otto_current(
            otto.hot.big_gamma,
            otto.cold.big_gamma,
            pt.g,
            analytic.otto_delta_p(pt.a_h, pt.a_c),
        )

        cat = pt.catalytic()
        constants = analytic.rate_constants(
            cat.hot.gamma_plus,
            cat.hot.gamma_minus,
            cat.cold.gamma_plus,
            cat.cold.gamma_minus,
        )
        cat_expected = analytic.cat_current(
            constants, pt.g, analytic.cat_delta_p(pt.a_h, pt.a_c).value
        )
        pairs = [(pt.otto_report.currents[0], otto_expected)]
        pairs += [(current, cat_expected) for current in pt.catalytic_report.currents]
        for current, expected in pairs:
            error = abs(current - expected) / abs(expected)
            if error > worst:
                worst, worst_at = error, index
    passed = worst <= tol
    return CheckResult(
        name="current_closed_form",
        passed=passed,
        worst=worst,
        tol=tol,
        detail=_naming_worst(
            f"relative current error over {len(grid)} points x 2 engines",
            passed, grid, worst_at,
        ),
    )


def check_time_bridge(grid: list[GridPoint]) -> CheckResult:
    """The two pictures describe one machine: |P*tau - W| <= 1e-9 |W| and
    |eta_disc - eta_cont| <= 1e-9 on every point; the catalytic engine's
    two pair currents agree to 1e-10 absolute.  A point where the bridge
    audit raises fails the check, naming the engine and the point."""
    tol = 1e-9
    current_tol = 1e-10
    worst = 0.0
    worst_pair_gap = 0.0
    worst_at = pair_gap_at = 0
    for index, pt in enumerate(grid):
        for engine, spec, ss in (
            ("otto", pt.otto(), pt.otto_report),
            ("qubit_catalyst", pt.catalytic(), pt.catalytic_report),
        ):
            cycle = discrete.run_cycle(spec)
            try:
                report = mapping.equivalence_from_parts(spec, cycle, ss)
            except (AssertionError, ValueError) as exc:
                return CheckResult(
                    name="time_bridge",
                    passed=False,
                    worst=math.inf,
                    tol=tol,
                    detail=f"{engine} bridge failed at grid point {index}, {pt!r}: {exc}",
                )
            gaps = [abs(report.p_times_tau_minus_w) / abs(report.work_per_cycle)]
            if report.eta_discrete is not None:
                gaps.append(report.eta_gap)
            for gap in gaps:
                if gap > worst:
                    worst, worst_at = gap, index
            if len(spec.swaps) == 2:
                pair_gap = abs(ss.currents[0] - ss.currents[1])
                if pair_gap > worst_pair_gap:
                    worst_pair_gap, pair_gap_at = pair_gap, index
    passed = worst <= tol and worst_pair_gap <= current_tol
    return CheckResult(
        name="time_bridge",
        passed=passed,
        worst=max(worst, worst_pair_gap),
        tol=tol,
        detail=_naming_worst(
            f"work-power and efficiency gaps over {len(grid)} points x 2 "
            f"engines; pair-current gap {worst_pair_gap:.3e} (tol {current_tol:.0e})",
            passed, grid, worst_at if worst > tol else pair_gap_at,
        ),
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


def check_power_advantage(n_points: int = 100) -> CheckResult:
    """At the reference working point (beta_h omega_h = 0.1,
    beta_c/beta_h = 10, g tau_eq = 10), the qubit-catalyst engine beats
    the catalyst-free one in power at every matched efficiency where both
    run as engines, and both powers collapse approaching the shared
    efficiency limit."""
    tol = 0.0  # the dominance must be strict
    otto_family, cat_family = reference_families()
    worst_margin = math.inf
    peak_otto = 0.0
    peak_cat = 0.0
    for eta in np.linspace(0.01, 0.89, n_points):
        cmp = mapping.compare_at_efficiency(otto_family, cat_family, float(eta))
        peak_otto = max(peak_otto, cmp.p_otto)
        peak_cat = max(peak_cat, cmp.p_cat)
        if cmp.regime_otto == "engine" and cmp.regime_cat == "engine":
            worst_margin = min(worst_margin, cmp.p_cat - cmp.p_otto)
    # Probe the collapse just short of the shared efficiency limit through
    # the steady state alone: flows there are too small for the two-picture
    # bridge asserts, but the power itself is perfectly well-defined.
    eta_probe = 0.9 - 1e-5
    p_otto_probe = continuous.steady_state_report(otto_family.spec_at(eta_probe)).power
    p_cat_probe = continuous.steady_state_report(cat_family.spec_at(eta_probe)).power
    decay_otto = p_otto_probe / peak_otto
    decay_cat = p_cat_probe / peak_cat
    passed = worst_margin > tol and decay_otto < 1e-3 and decay_cat < 1e-3
    return CheckResult(
        name="power_advantage",
        passed=passed,
        worst=-worst_margin,
        tol=tol,
        detail=(
            f"min power margin {worst_margin:.3e} over {n_points} matched "
            f"efficiencies; near-limit power ratios {decay_otto:.1e}/{decay_cat:.1e}"
        ),
    )


def check_thermo_consistency(grid: list[GridPoint]) -> CheckResult:
    """Clausius margin and entropy production rate >= -1e-8 at every
    steady state; the interaction term exchanged with each bath vanishes
    to 1e-10."""
    margin_tol = 1e-8
    int_tol = 1e-10
    worst_margin = math.inf
    worst_int = 0.0
    margin_at = int_at = 0
    for index, pt in enumerate(grid):
        for report in (pt.otto_report, pt.catalytic_report):
            for margin in (report.clausius_margin, report.entropy_production):
                if margin < worst_margin:
                    worst_margin, margin_at = margin, index
            for residual in report.int_vanish_residuals:
                if residual > worst_int:
                    worst_int, int_at = residual, index
    margin_ok = worst_margin >= -margin_tol
    passed = margin_ok and worst_int <= int_tol
    return CheckResult(
        name="thermo_consistency",
        passed=passed,
        worst=max(-worst_margin, 0.0) + worst_int,
        tol=margin_tol,
        detail=_naming_worst(
            f"min(Clausius, sigma) = {worst_margin:.3e} (tol -{margin_tol:.0e}); "
            f"max interaction residual {worst_int:.3e} (tol {int_tol:.0e})",
            passed, grid, int_at if margin_ok else margin_at,
        ),
    )


def stationary_relation_residuals(spec: EngineSpec) -> list[float]:
    """Residuals of the stationary population-and-current relations of
    the qubit-catalyst engine, evaluated on the numerical steady state.

    The set closes the hierarchy of level occupations p_(s,h,c), the
    common transfer rate <n>, and the auxiliary coherence X on the
    non-resonant transition |0,1,1> <-> |1,0,1|; every member must vanish
    in the steady state.
    """
    if spec.catalyst_dim != 2 or len(spec.swaps) != 2:
        raise ValueError("stationary relations apply to the qubit-catalyst engine")
    liouv = continuous.build_liouvillian(spec)
    rho_ss, _ = continuous.stationary_state(liouv)
    p = rho_ss.populations()
    currents = continuous.probability_currents(spec, rho_ss)
    n1, n2 = float(currents[0]), float(currents[1])
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
    x_val = expectation(Operator(spec.layout, x_op), rho_ss).real

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


def check_stationary_relations(rng: np.random.Generator, n_sets: int = 20) -> CheckResult:
    """The full stationary relation set holds on the numerical steady
    state to 1e-9 for random rate sets."""
    tol = 1e-9
    worst = 0.0
    n_relations = 0
    for _ in range(n_sets):
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
        spec = qubit_catalyst_spec_from_baths(hot, cold, 10.0 ** rng.uniform(-0.5, 0.5))
        residuals = stationary_relation_residuals(spec)
        n_relations = len(residuals)
        worst = max(worst, max(abs(r) for r in residuals))
    return CheckResult(
        name="stationary_relations",
        passed=worst <= tol,
        worst=worst,
        tol=tol,
        detail=f"{n_relations} relations x {n_sets} rate sets",
    )


def check_two_stroke_oracles(rng: np.random.Generator) -> CheckResult:
    """Discrete-side exactness: operator-trace heats equal the
    energy-difference sums, the solved catalyst matches its closed form,
    and one full cycle restores the initial state — all to 1e-12."""
    tol = 1e-12
    worst = 0.0
    for _ in range(10):
        a_h = rng.uniform(0.05, 0.95)
        a_c = rng.uniform(0.05, 0.95)
        omega_h = rng.uniform(0.5, 2.0)
        omega_c = rng.uniform(0.5, 2.0)
        hot = BathParams.from_relaxation_time(-math.log(a_h) / omega_h, omega_h, 1.0)
        cold = BathParams.from_relaxation_time(-math.log(a_c) / omega_c, omega_c, 1.0)
        for spec in (
            otto_spec_from_baths(hot, cold, 1.0),
            qubit_catalyst_spec_from_baths(hot, cold, 1.0),
        ):
            catalyst = (
                discrete.solve_catalyst(spec)
                if spec.catalyst_dim > 1
                else discrete.CatalystState((1.0,))
            )
            if spec.catalyst_dim == 2:
                expected = analytic.cat_population(a_h, a_c)
                worst = max(
                    worst,
                    abs(catalyst.populations[0] - expected),
                    abs(catalyst.populations[1] - (1.0 - expected)),
                )
            cycle = discrete.run_cycle(spec, catalyst)
            # Re-derive the heats along the energy-difference route.
            q_hot = q_cold = 0.0
            for i, dp in enumerate(cycle.delta_p):
                en = energy_differences(spec, i)
                q_hot += en.d_eps_h * dp
                q_cold += en.d_eps_c * dp
            worst = max(worst, abs(q_hot - cycle.q_hot), abs(q_cold - cycle.q_cold))

            rho0 = discrete.build_initial_state(spec, catalyst)
            swap = discrete.permutation_matrix(spec)
            rho1 = DensityMatrix(
                Operator(
                    spec.layout, swap.entries @ rho0.matrix @ swap.dagger().entries
                )
            )
            rho2 = discrete.heat_stroke(spec, rho1)
            worst = max(worst, float(np.max(np.abs(rho2.matrix - rho0.matrix))))
    return CheckResult(
        name="two_stroke_oracles",
        passed=worst <= tol,
        worst=worst,
        tol=tol,
        detail="heat routes, catalyst closed form, and cycle closure (10 random points)",
    )


def reference_families() -> tuple[mapping.EngineFamily, mapping.EngineFamily]:
    """The matched pair of engine families at the reference working point
    beta_h omega_h = 0.1, beta_c/beta_h = 10, g tau_eq = 10 (with
    omega_h = tau_eq = 1 setting the scale)."""
    common = dict(beta_h=0.1, beta_c=1.0, omega_h=1.0, tau_eq=1.0, g=10.0)
    return (
        mapping.EngineFamily(kind="otto", **common),
        mapping.EngineFamily(kind="qubit_catalyst", **common),
    )


def run_suite(seed: int, n_points: int = 100) -> list[CheckResult]:
    """Execute every check on freshly sampled grids; order is stable."""
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    rng = np.random.Generator(np.random.PCG64(seed))
    grid = sample_grid(rng, n_points)
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
