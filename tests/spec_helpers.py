"""Engine specs shared by the test modules."""

from __future__ import annotations

import math
from pathlib import Path

from ottocat import cli
from ottocat.engine_spec import BathParams, EngineSpec, SwapPair
from ottocat.qstate import HilbertLayout

GOLDEN_CONFIG = Path(__file__).parent / "data" / "golden_power_sweep.ini"


def bath_from_factor(a: float, omega: float = 1.0, tau_eq: float = 1.0) -> BathParams:
    """A bath whose Gibbs factor exp(-beta * omega) is ``a``."""
    return BathParams.from_relaxation_time(-math.log(a) / omega, omega, tau_eq)


def ladder_spec(d: int, hot: BathParams, cold: BathParams) -> EngineSpec:
    """d - 1 swaps |k+1,0,0> <-> |k,1,0> climb the catalyst with hot quanta,
    and |0,0,1> <-> |d-1,1,0> closes the cycle against the cold qubit."""
    layout = HilbertLayout((d, 2, 2))
    pairs = [
        SwapPair(layout.flat_index(k + 1, 0, 0), layout.flat_index(k, 1, 0), 1.0)
        for k in range(d - 1)
    ]
    pairs.append(SwapPair(layout.flat_index(0, 0, 1), layout.flat_index(d - 1, 1, 0), 1.0))
    return EngineSpec(catalyst_dim=d, hot=hot, cold=cold, swaps=tuple(pairs))


def golden_specs() -> list[EngineSpec]:
    """Every spec of the golden sweep."""
    config = cli.load_config(str(GOLDEN_CONFIG), "sweep")
    return [
        cli._family(token, config.fixed, config.fixed.g_tau_eq).spec_at(eta)
        for eta in cli._sweep_values(config.sweep)
        for token in config.engines
    ]
