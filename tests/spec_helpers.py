"""Engine specs shared by the test modules."""

from __future__ import annotations

import math
from pathlib import Path

from ottocat import cli, mapping
from ottocat.engine_spec import BathParams, EngineSpec

GOLDEN_CONFIG = Path(__file__).parent / "data" / "golden_power_sweep.ini"


def bath_from_factor(a: float, omega: float = 1.0, tau_eq: float = 1.0) -> BathParams:
    """A bath whose Gibbs factor exp(-beta * omega) is ``a``."""
    return BathParams.from_relaxation_time(-math.log(a) / omega, omega, tau_eq)


def golden_specs() -> list[EngineSpec]:
    """Every spec of the golden sweep."""
    config = cli.load_config(str(GOLDEN_CONFIG), "sweep")
    return [cli._spec(config.fixed, *point) for point in config.points]


def record(spec: EngineSpec) -> tuple:
    """``(report, cycle, bridge)`` of one spec: :func:`mapping.rows` of a
    stack of one."""
    return next(mapping.rows([spec]))


def bridge(spec: EngineSpec, cycle, report) -> mapping.EquivalenceReport:
    """The bridge of one spec from its cycle and its steady-state report: the
    stacked stage on a stack of one."""
    [equivalence] = mapping._bridges([spec], [cycle], [report])
    return equivalence
