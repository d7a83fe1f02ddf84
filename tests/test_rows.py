"""The stacked row pipeline: each record is the record its spec gets alone,
whatever the stacks, and a failure carries the position of its spec."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ottocat import cli, continuous, discrete, mapping, verify
from ottocat.engine_spec import FAMILIES, EngineSpec, SwapPair, ladder_spec
from spec_helpers import bath_from_factor, golden_specs


def record_repr(record: tuple) -> tuple:
    """A record by ``repr``, its steady state's matrix (if solved) by its bytes."""
    report, cycle, bridge = record
    if report is not None:
        report = report.rho_ss.matrix.tobytes(), repr(dataclasses.replace(report, rho_ss=None))
    return report, repr(cycle), repr(bridge)


def alone(spec: EngineSpec) -> tuple:
    return record_repr(next(mapping.rows([spec])))


#: Ladders with d = 1 to 4 at random baths and couplings.  Every a_c lies
#: below every a_h^4, so each ladder runs as an engine with flows far from
#: the equilibrium boundary.
ladders = st.builds(
    lambda d, a_h, a_c, omega_c, tau_h, tau_c, g: ladder_spec(
        d, bath_from_factor(a_h, 1.0, tau_h), bath_from_factor(a_c, omega_c, tau_c), g
    ),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.5, max_value=0.95),
    st.floats(min_value=0.005, max_value=0.04),
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=0.3, max_value=3.0),
)


@seed(20261019)
@settings(max_examples=3, deadline=None)
@given(specs=st.lists(ladders, min_size=40, max_size=40), order=st.permutations(range(40)))
def test_every_record_is_the_record_of_its_spec_alone(specs, order):
    # One call of 40 specs, in two orders, against forty calls of one: the
    # input order, the mix of structures and the stack boundaries all differ.
    one_by_one = [alone(spec) for spec in specs]
    assert list(map(record_repr, mapping.rows(specs))) == one_by_one
    shuffled = mapping.rows([specs[i] for i in order])
    assert list(map(record_repr, shuffled)) == [one_by_one[i] for i in order]


def near_the_boundary(seed: int) -> list[EngineSpec]:
    """40 ladders with d = 1 to 4 whose a_c = a_h^d (1 +- eps) sits a relative
    eps from the equilibrium boundary, eps log-uniform in [1e-7, 1e-2]."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(40):
        d, a_h = int(rng.integers(1, 5)), rng.uniform(0.5, 0.95)
        eps = 10 ** rng.uniform(-7.0, -2.0) * rng.choice([-1.0, 1.0])
        hot = bath_from_factor(a_h, 1.0, rng.uniform(0.5, 2.0))
        cold = bath_from_factor(a_h**d * (1.0 + eps), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        specs.append(ladder_spec(d, hot, cold, rng.uniform(0.3, 3.0)))
    return specs


def records_and_fault(records) -> tuple[list, tuple | None]:
    """The records of a run by :func:`record_repr` up to its first failure,
    and that failure's type, message and ``index`` (``None`` if it has none)."""
    done = []
    try:
        for record in records:
            done.append(record_repr(record))
    except (ValueError, AssertionError) as exc:
        return done, (type(exc), str(exc), exc.index)
    return done, None


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("mode", ["both", "continuous", "discrete"])
def test_near_the_boundary_a_stack_fails_where_one_spec_at_a_time_does(mode, seed):
    # Bridges this close to the boundary can fail their tau_spread row (1.4e-9
    # and up against 1e-9): the stack must name the same spec with the same words.
    specs = near_the_boundary(seed)
    one_by_one = []
    for index, spec in enumerate(specs):
        done, fault = records_and_fault(mapping.rows([spec], mode))
        one_by_one += done
        if fault is not None:
            fault = (*fault[:2], index)
            break
    assert records_and_fault(mapping.rows(specs, mode)) == (one_by_one, fault)


def no_catalyst_spec() -> EngineSpec:
    """A swap set on a qubit catalyst whose steady state is unique but whose
    flows no catalyst can balance."""
    good = golden_specs()[1]
    return EngineSpec(2, good.hot, good.cold, (SwapPair(0, 1, 10.0), SwapPair(2, 4, 10.0)))


def test_a_failed_cycle_carries_its_position_after_the_records_before_it():
    specs = golden_specs()[:6]
    specs.insert(4, no_catalyst_spec())
    records = mapping.rows(specs, "discrete")
    before = [next(records) for _ in range(4)]
    with pytest.raises(ValueError, match="^no simple-permutation catalyst exists") as caught:
        next(records)
    assert caught.value.index == 4
    assert [cycle for _, cycle, _ in before] == list(map(discrete.run_cycle, specs[:4]))


def test_a_failed_bridge_carries_its_position_after_the_records_before_it():
    point = verify.REFERENCE_POINT
    specs = [point.spec_at(kind, eta) for eta in (0.2, 0.4, 0.6) for kind in FAMILIES]
    specs.insert(3, point.spec_at("qubit_catalyst", 0.9))  # Carnot: every pair flow vanishes
    records = mapping.rows(specs)
    before = [next(records) for _ in range(3)]
    with pytest.raises(ValueError, match="all pair flows vanish$") as caught:
        next(records)
    assert caught.value.index == 3
    assert list(map(record_repr, before)) == list(map(alone, specs[:3]))


def test_the_first_spec_whose_cycle_or_bridge_fails_is_named():
    # Position 1 fails its bridge, position 4 its cycle: the stacks run the
    # cycles first, yet the run names position 1, as one spec at a time would.
    point = verify.REFERENCE_POINT
    specs = [point.spec_at(kind, 0.4) for kind in FAMILIES] * 3
    specs[1] = point.spec_at("qubit_catalyst", 0.9)
    specs[4] = no_catalyst_spec()
    with pytest.raises(ValueError, match="all pair flows vanish$") as caught:
        list(mapping.rows(specs))
    assert caught.value.index == 1


def test_a_two_fault_sweep_names_its_failed_solve_first(tmp_path, capsys):
    # At the Carnot efficiency every pair flow vanishes, so Otto at the first
    # coupling fails its bridge; the catalyst there fails its solve.  Every
    # steady state is solved before any cycle runs, so the solve is named.
    config = tmp_path / "run.ini"
    config.write_text(
        "[run]\nengine = otto, qubit_catalyst\n\n"
        "[fixed]\nbeta_h_omega_h = 0.1\nbeta_c_over_beta_h = 10.0\ntau_eq = 1.0\neta = 0.9\n\n"
        "[sweep]\nparameter = g_tau_eq\nstart = 1e-6\nstop = 8.0\npoints = 3\n",
        encoding="utf-8",
    )
    assert cli.main(["sweep", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        "check failed: qubit_catalyst at eta = 0.9, g = 1e-06: "
        "non-ergodic Liouvillian: steady state not unique\n"
    )


#: Peak traced memory of one golden-specs ``steady_state_reports`` call,
#: measured before the audit was stacked: 0.85 MB.  The bound adds 0.5 MB.
#: The audit applies each bath's adjoint from its two-term rows, so it holds
#: no dim^2 x dim^2 matrix; the solve's bordered LU holds one per spec.
AUDIT_PEAK_BOUND_MB = 1.35


def test_the_stacked_audit_holds_a_few_adjoints_at_a_time():
    specs = golden_specs()
    list(continuous.steady_state_reports(specs))  # builds the per-structure caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reports = list(continuous.steady_state_reports(specs))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(reports) == len(specs)
    assert peak <= AUDIT_PEAK_BOUND_MB * 1e6


#: Peak traced memory of ``continuous._audit`` on a stack of 32 d = 4
#: ladder specs: 1.85 MB from the two-term rows, 5.71 MB when each bath's
#: dense 256 x 256 adjoint was formed four specs at a time.
LADDER_AUDIT_PEAK_BOUND_MB = 2.5


def test_the_audit_of_a_d4_stack_holds_no_dense_adjoint():
    hot, cold = bath_from_factor(0.7), bath_from_factor(0.2, omega=2.0)
    specs = [ladder_spec(4, hot, cold, 0.05 * 1.25**k) for k in range(32)]
    states = [(r.rho_ss, r.spectral_gap) for r in continuous.steady_state_reports(specs)]
    continuous._audit(specs, states)  # builds the per-layout caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reports = continuous._audit(specs, states)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(reports) == len(specs)
    assert peak <= LADDER_AUDIT_PEAK_BOUND_MB * 1e6


#: Peak traced memory of building both baths' jump tables and the plan of
#: the d = 6 ladder (dim 24, 576 x 576 generators): 1.09 MB from index
#: rules, 66.5 MB when the jumps and commutators were formed densely with
#: Kronecker products.  The bound adds 0.5 MB.
PLAN_PEAK_BOUND_MB = 1.6


def test_the_d6_plan_is_built_without_a_dense_superoperator():
    spec = ladder_spec(6, bath_from_factor(0.7), bath_from_factor(0.2, omega=2.0), 1.0)
    dims = spec.layout
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for label in ("hot", "cold"):
            continuous._bath_jumps.__wrapped__(dims, label)
        pieces, blocks = continuous._generator_plan.__wrapped__(*spec.structure)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert pieces.shape == (len(spec.swaps) + 4, len(blocks[0]))
    assert peak <= PLAN_PEAK_BOUND_MB * 1e6


#: Peak traced memory of one dense ``build_liouvillian`` or ``build_dissipator``
#: call for the d = 6 ladder, whose 576 x 576 complex matrix takes 5.31 MB:
#: 5.45 and 5.33 MB when the function hands its fresh matrix over, 10.62 MB
#: each when the returned matrix was a copy.  The bound adds 0.5 MB.
DENSE_BUILD_PEAK_BOUND_MB = 5.95


def test_each_dense_build_holds_one_matrix_of_the_d6_ladder():
    spec = ladder_spec(6, bath_from_factor(0.7), bath_from_factor(0.2, omega=2.0), 1.0)
    builds = (
        lambda: continuous.build_liouvillian(spec),
        lambda: continuous.build_dissipator(spec.hot, "hot", spec.layout),
        lambda: continuous.build_dissipator(spec.cold, "cold", spec.layout),
    )
    for build in builds:
        build()  # builds the per-structure caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            matrix = build()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert matrix.nbytes == 576**2 * 16 and not matrix.flags.writeable
        assert peak <= DENSE_BUILD_PEAK_BOUND_MB * 1e6


def scalars(value) -> list:
    """The numbers in a report field, through tuples and dicts."""
    if isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, tuple):
        return [x for item in value for x in scalars(item)]
    return [] if value is None or isinstance(value, (str, bool)) else [value]


def test_every_number_of_every_record_is_a_python_float():
    specs = [*golden_specs()[:4], ladder_spec(3, bath_from_factor(0.7), bath_from_factor(0.2), 1.0)]
    for record in mapping.rows(specs):
        for report in record:
            fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
            fields.pop("rho_ss", None)
            for name, value in fields.items():
                assert {type(x) for x in scalars(value)} <= {float}, name
