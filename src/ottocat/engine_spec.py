"""Declarative engine descriptions: baths, frequencies, catalyst, swap pairs.

An :class:`EngineSpec` is the single source of truth from which both the
discrete two-stroke permutation and the continuous resonant interaction are
generated.  The shipped machines form one family, the catalytic ladder
of :func:`ladder_spec`, indexed by the catalyst dimension d:

* d - 1 swaps |k+1,0,0> <-> |k,1,0> climb the catalyst with hot quanta,
  and |0,0,1> <-> |d-1,1,0> closes the cycle against the cold qubit;
* d = 1 is the catalyst-free Otto engine, one swap |0,1,0> <-> |0,0,1>,
  kept in Otto's orientation (u = |0,1,0>, the hot qubit excited);
* d = 2 is the qubit-catalyst engine, |1,0,0> <-> |0,1,0> and
  |0,0,1> <-> |1,1,0>.

:data:`FAMILIES` names the ones the command line offers.

Basis convention: a spec's layout is the tuple (d, 2, 2) of its factor
dimensions, kets |s h c> with the catalyst index slowest, and the flat
index of |s h c> is 4s + 2h + c (row-major, as in ``numpy.kron``).  What
depends on the structure alone is tabulated once, read-only:
:func:`level_table`, the one source of each flat index's levels, and
:func:`pair_table`, the one judge of a swap set, which every spec asks when built.
:func:`pair_sums` is the dictionary both pictures share: it turns one
transfer per pair, a flow per cycle or a current, into heats, work and
catalyst balance over a stack of one structure; :func:`stacked` runs
stages on such stacks and alone names a failing spec by its position.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qstate import as_index

__all__ = [
    "DETAILED_BALANCE_TOL",
    "BathParams",
    "SwapPair",
    "EngineSpec",
    "PairEnergetics",
    "LevelTable",
    "PairTable",
    "FAMILIES",
    "ladder_spec",
    "energy_differences",
    "hamiltonians",
    "level_table",
    "pair_table",
    "stack_energetics",
    "pair_sums",
    "fail",
    "stacked",
]

#: Allowed deviation of gamma_plus/gamma_minus from exp(-beta*omega).
DETAILED_BALANCE_TOL = 1e-12

#: Each built-in engine kind, as the command line names it, by its
#: catalyst dimension d in :func:`ladder_spec`.
FAMILIES = {"otto": 1, "qubit_catalyst": 2}


@dataclass(frozen=True)
class BathParams:
    """One thermal bath coupled to one qubit.

    ``gamma_plus`` pumps |0> -> |1>, ``gamma_minus`` damps |1> -> |0>;
    detailed balance gamma_plus/gamma_minus = exp(-beta*omega) is enforced
    at construction.  The half-rate Gamma = (gamma_plus + gamma_minus)/2
    and the equilibration time tau_eq = 1/Gamma are exposed read-only.
    """

    beta: float
    omega: float
    gamma_plus: float
    gamma_minus: float

    def __post_init__(self) -> None:
        for name in ("beta", "omega", "gamma_plus", "gamma_minus"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"bath parameter {name} must be finite")
        if self.beta < 0:
            raise ValueError(f"negative inverse temperature beta = {self.beta}")
        if self.omega <= 0:
            raise ValueError(f"bath qubit frequency must be positive, got {self.omega}")
        if self.gamma_plus <= 0 or self.gamma_minus <= 0:
            raise ValueError("bath rates must be positive")
        ratio = self.gamma_plus / self.gamma_minus
        if abs(ratio - self.gibbs_factor) > DETAILED_BALANCE_TOL:
            raise ValueError(
                "detailed balance violated: gamma_plus/gamma_minus = "
                f"{ratio!r} but exp(-beta*omega) = {self.gibbs_factor!r}"
            )

    @property
    def gibbs_factor(self) -> float:
        """a = exp(-beta*omega), the excited/ground population ratio."""
        return math.exp(-self.beta * self.omega)

    @property
    def big_gamma(self) -> float:
        """Gamma = (gamma_plus + gamma_minus)/2."""
        return (self.gamma_plus + self.gamma_minus) / 2.0

    @property
    def tau_eq(self) -> float:
        """Equilibration time 1/Gamma = 2/(gamma_plus + gamma_minus)."""
        return 1.0 / self.big_gamma

    @classmethod
    def from_damping(cls, beta: float, omega: float, gamma_minus: float) -> "BathParams":
        """Construct from the damping rate; pumping follows detailed balance."""
        a = math.exp(-beta * omega)
        return cls(beta=beta, omega=omega, gamma_plus=a * gamma_minus, gamma_minus=gamma_minus)

    @classmethod
    def from_relaxation_time(cls, beta: float, omega: float, tau_eq: float) -> "BathParams":
        """Construct from tau_eq: gamma_minus = 2/(tau_eq (1+a)), gamma_plus = a*gamma_minus."""
        if tau_eq <= 0:
            raise ValueError(f"tau_eq must be positive, got {tau_eq}")
        a = math.exp(-beta * omega)
        gamma_minus = 2.0 / (tau_eq * (1.0 + a))
        return cls(beta=beta, omega=omega, gamma_plus=a * gamma_minus, gamma_minus=gamma_minus)


@dataclass(frozen=True)
class SwapPair:
    """One resonant swap |u> <-> |d| with coupling rate g; u and d are
    stored as Python ints."""

    u: int
    d: int
    g: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", as_index(self.u, "swap index u"))
        object.__setattr__(self, "d", as_index(self.d, "swap index d"))
        if self.u == self.d:
            raise ValueError(f"swap pair must connect distinct basis states, got u = d = {self.u}")
        if not (math.isfinite(self.g) and self.g > 0):
            raise ValueError(f"swap coupling must be positive and finite, got {self.g}")


@dataclass(frozen=True)
class EngineSpec:
    """Full machine description on the space catalyst (x) hot (x) cold.

    ``catalyst_dim = 1`` encodes "no catalyst" so that the Otto engine and
    the catalytic ones flow through the same code paths.  The swap set is
    judged here, once, by :func:`pair_table`: a spec that exists is
    well-formed, and no caller checks it again.
    """

    catalyst_dim: int
    hot: BathParams
    cold: BathParams
    swaps: tuple[SwapPair, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "catalyst_dim", _catalyst_dim(self.catalyst_dim))
        object.__setattr__(self, "swaps", tuple(self.swaps))
        pair_table(*self.structure)

    @property
    def layout(self) -> tuple[int, int, int]:  # factor dims (catalyst, hot, cold)
        return self.catalyst_dim, 2, 2

    @property
    def dim(self) -> int:
        return math.prod(self.layout)

    @functools.cached_property
    def structure(self) -> tuple:  # (layout, (u, d) pairs): keys the tables
        return self.layout, tuple((pair.u, pair.d) for pair in self.swaps)


def _catalyst_dim(value) -> int:
    """``value`` as a catalyst dimension, a Python int >= 1, else ``ValueError``."""
    if (d := as_index(value, "catalyst_dim")) < 1:
        raise ValueError(f"catalyst_dim must be >= 1, got {d}")
    return d


@dataclass(frozen=True)
class PairEnergetics:
    """Bare-energy differences of one swap pair.

    ``omega_i = d_eps_h + d_eps_c`` holds exactly by construction: the
    resonance frequency of a pair is defined as that sum.
    """

    d_eps_h: float
    d_eps_c: float

    @property
    def omega_i(self) -> float:
        return self.d_eps_h + self.d_eps_c


def ladder_spec(d: int, hot: BathParams, cold: BathParams, g: float) -> EngineSpec:
    """The catalytic ladder with a d-level catalyst, every swap at coupling g.

    d - 1 swaps |k+1,0,0> <-> |k,1,0> climb the catalyst with hot quanta,
    and |0,0,1> <-> |d-1,1,0> closes the cycle against the cold qubit.  At
    d = 1 that one swap is Otto's, and keeps Otto's orientation
    u = |0,1,0>, d = |0,0,1>.
    """
    swaps = tuple(SwapPair(u, lower, g) for u, lower in _ladder_pairs(_catalyst_dim(d)))
    return EngineSpec(catalyst_dim=d, hot=hot, cold=cold, swaps=swaps)


@functools.lru_cache(maxsize=64)
def _ladder_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """The flat (u, d) indices of :func:`ladder_spec`'s swaps, which depend
    on d alone: built once per d (the 64 most recent are kept)."""
    shape, k = (d, 2, 2), np.arange(d - 1)
    ups = np.ravel_multi_index((k + 1, 0, 0), shape).tolist()  # |k+1,0,0>
    downs = np.ravel_multi_index((k, 1, 0), shape).tolist()  # |k,1,0>
    closing = tuple(np.ravel_multi_index(([0, d - 1], [0, 1], [1, 0]), shape).tolist())
    return (*zip(ups, downs), closing if d > 1 else closing[::-1])  # |0,0,1>, |d-1,1,0>


class LevelTable(NamedTuple):
    """Factor indices of every flat basis index |s h c> of one layout.

    ``catalyst``, ``hot`` and ``cold`` hold s, h and c per flat index, so
    the bare level energies are ``omega_h * hot`` and ``omega_c * cold``.
    ``incidence[m, n]`` is 1.0 where flat index n sits on catalyst level
    m and 0.0 elsewhere.
    """

    catalyst: np.ndarray
    hot: np.ndarray
    cold: np.ndarray
    incidence: np.ndarray


@functools.lru_cache(maxsize=64)
def level_table(factor_dims: tuple[int, ...]) -> LevelTable:
    """The :class:`LevelTable` of a (catalyst, hot, cold) layout.

    Built once per layout, on first use (the 64 most recent are kept),
    and handed out read-only.
    """
    if len(factor_dims) != 3:
        raise ValueError(f"expected a (catalyst, hot, cold) layout, got {factor_dims}")
    catalyst, hot, cold = np.indices(factor_dims).reshape(3, -1)
    incidence = (catalyst == np.arange(factor_dims[0])[:, None]).astype(float)
    table = LevelTable(catalyst, hot, cold, incidence)
    for array in table:
        array.setflags(write=False)
    return table


class PairTable(NamedTuple):
    """Per pair i the (catalyst, hot, cold) levels and flat indices of u_i
    and d_i, the catalyst weights, and the work stroke's index map n <->
    ``perm[n]``.

    ``catalyst_weights[m][i]`` is indicator_m(u_i) - indicator_m(d_i):
    +1.0 when swap pair i leaves catalyst level m through u_i, -1.0
    through d_i."""

    levels_u: tuple[tuple[int, ...], ...]
    levels_d: tuple[tuple[int, ...], ...]
    catalyst_weights: tuple[tuple[float, ...], ...]
    u: np.ndarray
    d: np.ndarray
    perm: np.ndarray


@functools.lru_cache(maxsize=64)
def pair_table(factor_dims: tuple[int, ...], pairs: tuple) -> PairTable:
    """The :class:`PairTable` of one ``EngineSpec.structure``, built once,
    read-only.  A malformed swap set raises ``ValueError``, naming the first
    fault: a catalyst level out of every pair's reach (before any table is
    built), else an index outside the space, else an index two pairs share."""
    if factor_dims[0] > 2 * len(pairs):
        raise ValueError(f"catalyst_dim {factor_dims[0]} exceeds the {2 * len(pairs)} catalyst "
                         f"levels that {len(pairs)} swap pair(s) can touch")
    dim = math.prod(factor_dims)
    flat = [idx for pair in pairs for idx in pair]
    for k, idx in enumerate(flat):
        if not 0 <= idx < dim:
            raise ValueError(f"swap {k // 2}: index {idx} out of range for dimension {dim}")
    for k, idx in enumerate(flat):
        if idx in flat[:k]:
            raise ValueError(f"swap {k // 2}: index {idx} appears in more than one pair")
    u, d = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    perm = np.arange(dim)
    perm[u], perm[d] = d, u
    table = level_table(factor_dims)
    weights = tuple(map(tuple, (table.incidence[:, u] - table.incidence[:, d]).tolist()))
    for array in (u, d, perm):
        array.setflags(write=False)
    factors = (table.catalyst, table.hot, table.cold)
    levels = (tuple(zip(*(factor[idx].tolist() for factor in factors))) for idx in (u, d))
    return PairTable(*levels, weights, u, d, perm)


def stack_energetics(specs) -> tuple[PairEnergetics, ...]:
    """:func:`energy_differences` of each pair, an array over a stack of one structure."""
    table = pair_table(*specs[0].structure)
    hot, cold = np.array([(spec.hot.omega, spec.cold.omega) for spec in specs]).T
    return tuple(
        PairEnergetics(d_eps_h=hot * h_u - hot * h_d, d_eps_c=cold * c_u - cold * c_d)
        for (_, h_u, c_u), (_, h_d, c_d) in zip(table.levels_u, table.levels_d)
    )


def hamiltonians(spec: EngineSpec) -> tuple[np.ndarray, np.ndarray]:
    """Bare Hamiltonians (H_0h, H_0c), two diagonal complex arrays on the
    spec's flat basis.

    H_0h = omega_h (I_s (x) |1><1|_h (x) I_c), and analogously for the
    cold qubit; the catalyst carries no Hamiltonian of its own.
    """
    levels = level_table(spec.layout)
    return (np.diag(spec.hot.omega * levels.hot).astype(complex),
            np.diag(spec.cold.omega * levels.cold).astype(complex))


def energy_differences(spec: EngineSpec, pair_index: int) -> PairEnergetics:
    """Delta eps_i^k = eps_{u_i}^k - eps_{d_i}^k on the diagonals of the bare
    Hamiltonians: :func:`stack_energetics` of a stack of one."""
    if not 0 <= pair_index < len(spec.swaps):
        raise IndexError(f"pair index {pair_index} out of range for {len(spec.swaps)} swaps")
    en = stack_energetics([spec])[pair_index]
    return PairEnergetics(float(en.d_eps_h[0]), float(en.d_eps_c[0]))


def pair_sums(specs, transfers) -> tuple:
    """``(hot, cold, omega, catalyst)``: sum_i d_eps_i^h x_i, sum_i d_eps_i^c x_i,
    sum_i Omega_i x_i and, per catalyst level m, sum_i w_m,i x_i over the
    :class:`PairTable` weights, for one transfer x_i per swap pair, each an
    array over a stack of specs of one structure.

    Flows delta_p_i give Q_h, Q_c, W and the catalyst balance per cycle;
    currents <n_i> give J_h, J_c, P and the catalyst flow.  Each sum starts
    at 0.0 and adds the pairs in order."""
    energetics = stack_energetics(specs)
    weights = pair_table(*specs[0].structure).catalyst_weights
    hot = cold = omega = 0.0
    catalyst = [0.0] * len(weights)
    for i, (en, x) in enumerate(zip(energetics, transfers)):
        hot += en.d_eps_h * x
        cold += en.d_eps_c * x
        omega += en.omega_i * x
        for m, row in enumerate(weights):
            catalyst[m] += row[i] * x
    return hot, cold, omega, tuple(catalyst)


def fail(bad, error: type, message) -> None:
    """Raise ``error`` for the first flagged row of a stack; ``message`` is a
    string or a function of the row."""
    if np.any(bad):
        row = int(np.argmax(bad))
        raise error(message(row) if callable(message) else message)


def stacked(stage, specs, *per_spec, size: int | None = None) -> tuple[list, Exception | None]:
    """``(results, fault)`` of ``stage(stack, *items)`` on ``specs`` in stacks of
    one structure (of at most ``size``), with the matching items of each
    ``per_spec`` sequence: the results in input order up to the first spec
    that fails, and its ``ValueError`` or ``AssertionError``, its position
    stored as ``index``.  A failed stack runs again one spec at a time, in
    input order, so the spec named is the one a run of one spec at a time
    would fail on first, with the same message."""
    groups: dict = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.structure, []).append(i)
    results, fault = {}, None
    for group in groups.values():
        step = size or len(group)
        for rows in (group[start : start + step] for start in range(0, len(group), step)):
            try:
                done = stage(*([s[i] for i in rows] for s in (specs, *per_spec)))
            except (ValueError, AssertionError):
                done = []
                for i in rows:
                    try:
                        done += stage(*([s[i]] for s in (specs, *per_spec)))
                    except (ValueError, AssertionError) as exc:
                        exc.index = i
                        fault = exc if fault is None or i < fault.index else fault
                        break
            results.update(zip(rows, done))
    return [results[i] for i in range(len(specs) if fault is None else fault.index)], fault
