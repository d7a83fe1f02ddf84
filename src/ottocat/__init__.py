"""Quantum Otto machines, two-stroke and autonomous, bare or with a catalyst.

The package models one physical machine in two pictures and proves —
numerically, on every run — that they agree:

* :mod:`~ottocat.discrete`: a two-stroke engine whose work stroke is a
  permutation of energy levels and whose heat stroke rethermalizes two
  bath qubits, optionally threading a catalyst whose state must return
  intact each cycle;
* :mod:`~ottocat.continuous`: the autonomous counterpart, a local
  Lindblad generator driven to its steady state, with heat currents and
  power read off the stationary transfer rates.

:mod:`~ottocat.mapping` bridges the pictures via per-cycle flow =
stationary rate x characteristic time; :mod:`~ottocat.analytic` holds
the closed forms used as independent oracles; :mod:`~ottocat.verify`
packages the full self-audit behind the ``ottocat verify`` command and
is imported on its own (``from ottocat import verify``).

Units: hbar = k_B = 1 throughout; energies are angular frequencies.
"""

from __future__ import annotations

from .analytic import (
    RateConstants,
    SignedDeltaP,
    TauBreakdown,
    cat_current,
    cat_delta_p,
    cat_population,
    cat_tau,
    design_efficiency,
    one_minus_kappa,
    one_minus_zeta,
    otto_current,
    otto_delta_p,
    otto_tau,
    rate_constants,
)
from .continuous import (
    SteadyStateReport,
    build_dissipator,
    build_liouvillian,
    currents_and_power,
    entropy_production_rate,
    ness_condition_checks,
    stationary_state,
    steady_state_report,
)
from .discrete import (
    CatalystState,
    CycleReport,
    build_initial_state,
    heat_stroke,
    permutation_matrix,
    run_cycle,
    solve_catalyst,
)
from .engine_spec import (
    FAMILIES,
    BathParams,
    EngineSpec,
    PairEnergetics,
    SwapPair,
    energy_differences,
    hamiltonians,
    ladder_spec,
)
from .mapping import (
    EquivalenceReport,
    WorkingPoint,
    compare_at_efficiency,
    verify_equivalence,
)
from .qstate import (
    DensityMatrix,
    HilbertLayout,
    expectation,
    gibbs_qubit,
    partial_trace,
    tensor,
    tensor_all,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # states and operators
    "HilbertLayout",
    "DensityMatrix",
    "gibbs_qubit",
    "tensor",
    "tensor_all",
    "partial_trace",
    "expectation",
    # engine construction
    "BathParams",
    "SwapPair",
    "EngineSpec",
    "PairEnergetics",
    "FAMILIES",
    "ladder_spec",
    "hamiltonians",
    "energy_differences",
    # two-stroke picture
    "CatalystState",
    "CycleReport",
    "permutation_matrix",
    "build_initial_state",
    "heat_stroke",
    "solve_catalyst",
    "run_cycle",
    # autonomous picture
    "SteadyStateReport",
    "build_dissipator",
    "build_liouvillian",
    "stationary_state",
    "currents_and_power",
    "ness_condition_checks",
    "entropy_production_rate",
    "steady_state_report",
    # closed forms
    "RateConstants",
    "TauBreakdown",
    "SignedDeltaP",
    "otto_delta_p",
    "otto_current",
    "otto_tau",
    "cat_population",
    "cat_delta_p",
    "rate_constants",
    "cat_current",
    "cat_tau",
    "one_minus_zeta",
    "one_minus_kappa",
    "design_efficiency",
    # the bridge
    "EquivalenceReport",
    "WorkingPoint",
    "verify_equivalence",
    "compare_at_efficiency",
]
