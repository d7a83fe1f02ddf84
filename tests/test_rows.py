"""The stacked row pipeline: each record is the record its spec gets alone,
whatever the stacks, and a failure carries the position of its spec."""

from __future__ import annotations

import dataclasses
import tracemalloc

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ottocat import cli, continuous, discrete, mapping, verify
from ottocat.engine_spec import EngineSpec, SwapPair, ladder_spec
from spec_helpers import bath_from_factor, golden_specs


def record_repr(record: tuple) -> tuple:
    """A record by ``repr``, its steady state's matrix by its bytes."""
    report, cycle, bridge = record
    rest = repr(dataclasses.replace(report, rho_ss=None))
    return report.rho_ss.matrix.tobytes(), rest, repr(cycle), repr(bridge)


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
    families = verify.reference_families()
    specs = [family.spec_at(eta) for eta in (0.2, 0.4, 0.6) for family in families]
    specs.insert(3, families[1].spec_at(0.9))  # the Carnot point: every pair flow vanishes
    records = mapping.rows(specs)
    before = [next(records) for _ in range(3)]
    with pytest.raises(ValueError, match="all pair flows vanish$") as caught:
        next(records)
    assert caught.value.index == 3
    assert list(map(record_repr, before)) == list(map(alone, specs[:3]))


def test_the_first_spec_whose_cycle_or_bridge_fails_is_named():
    # Position 1 fails its bridge, position 4 its cycle: the stacks run the
    # cycles first, yet the run names position 1, as one spec at a time would.
    families = verify.reference_families()
    specs = [family.spec_at(0.4) for family in families] * 3
    specs[1] = families[1].spec_at(0.9)
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
#: Both baths' dense adjoints of all 200 golden specs held at once would add
#: about 13 MB; one bath's 16 adjoints of a solve stack measured 1.60 MB.
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
