"""Closed-form results for both engines: flows, currents, times, trade-offs.

Everything here is a pure function of Gibbs factors
a_k = exp(-beta_k * omega_k), jump rates gamma_k_plusminus, half-rates
Gamma_k = (gamma_plus + gamma_minus)/2, and the coupling g.
:func:`rate_constants`, :func:`cat_tau`, :func:`otto_tau`,
:func:`one_minus_zeta` and :func:`one_minus_kappa` take each argument as a
float or a 1-D NumPy array and work elementwise; each validation runs once
per call, and a bad element anywhere raises what the scalar call would.
A scalar call returns exactly the floats it always did.  These are the
independent oracles that the matrix-based solvers in
:mod:`~ottocat.discrete` and :mod:`~ottocat.continuous` are validated
against, so the expressions are deliberately kept exactly in their
derived printed shape — no algebraic simplification — letting any
transcription slip show up as a cross-validation failure instead of
being silently absorbed.  The two exceptions are the catalytic
denominator (see :func:`_cat_denominator`) and ``A_rate`` (see
:func:`rate_constants`), whose printed shapes cancel in floating point;
the tests keep those shapes as exact rational oracles.

Naming note: the derivation reuses the letters A and B both for two rate
combinations and (elsewhere) for the dimensionless trade-off
coefficients.  Here the rates are ``A_rate``/``B_rate`` and the
coefficients are ``zeta``/``kappa``, so the API has no collision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TAU_IDENTITY_TOL",
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
    "design_efficiencies",
    "efficiencies",
]

#: Relative agreement required between the general characteristic time
#: and its equal-relaxation-time factorization zeta*tau_eq*(1 + kappa/(g tau_eq)^2).
TAU_IDENTITY_TOL = 1e-12


def _holds(cond) -> bool:
    """Whether an elementwise condition holds everywhere.  A comparison of
    Python floats is already a bool, and passing it through untouched
    keeps scalar calls cheap."""
    return cond if isinstance(cond, bool) else bool(np.all(cond))


def _failing(cond, *values):
    """``values`` as given for a bool ``cond``; otherwise each value at the
    first element where ``cond`` fails, so an error names one element."""
    if isinstance(cond, bool):
        return values
    bad = ~np.asarray(cond)
    return tuple(np.broadcast_to(v, bad.shape)[bad][0].item() for v in values)


def _pow(base, exponent: float):
    """``base ** exponent`` as Python's float power computes it.  NumPy's
    ``**`` squares an array exactly as x*x, which differs from the C
    library's ``pow`` in the last ulp for about one value in 1200;
    ``np.float_power`` calls that same ``pow``."""
    return np.float_power(base, exponent) if isinstance(base, np.ndarray) else base**exponent


def _require_gibbs_range(name: str, value: float) -> None:
    ok = (value > 0.0) & (value <= 1.0)
    if not _holds(ok):
        raise ValueError(f"{name} must lie in (0, 1], got {_failing(ok, value)[0]}")


def _require_positive(name: str, value: float) -> None:
    ok = (value > 0.0) & (value < math.inf)
    if not _holds(ok):
        raise ValueError(f"{name} must be positive and finite, got {_failing(ok, value)[0]}")


@dataclass(frozen=True)
class RateConstants:
    """The eight rate combinations entering the catalytic current, with
    the four jump rates they are formed from.

    ``alpha1``, ``alpha2``, ``phi1``, ``phi2``, ``xi1``, ``xi2`` carry
    units of inverse rate; ``A_rate`` and ``B_rate`` are rates;
    ``a_h``/``a_c`` are the dimensionless Gibbs factors recovered from
    the jump-rate ratios.  All are positive for positive input rates, and
    ``B_rate`` is exactly the sum of the four jump rates.  Built from
    arrays of rates, every field is an array of the same length.
    """

    alpha1: float
    alpha2: float
    phi1: float
    phi2: float
    xi1: float
    xi2: float
    A_rate: float
    B_rate: float
    a_h: float
    a_c: float
    gamma_h_plus: float
    gamma_h_minus: float
    gamma_c_plus: float
    gamma_c_minus: float

    def __post_init__(self) -> None:
        for name in (
            "alpha1", "alpha2", "phi1", "phi2", "xi1", "xi2", "A_rate", "B_rate",
            "gamma_h_plus", "gamma_h_minus", "gamma_c_plus", "gamma_c_minus",
        ):
            _require_positive(name, getattr(self, name))
        _require_gibbs_range("a_h", self.a_h)
        _require_gibbs_range("a_c", self.a_c)


@dataclass(frozen=True)
class TauBreakdown:
    """A characteristic time together with its trade-off factorization.

    ``zeta`` and ``kappa`` are only defined when both baths share the
    same relaxation time (then tau = zeta * tau_eq * (1 + kappa /
    (g*tau_eq)^2)); otherwise they are ``None``.  Computed over arrays,
    ``tau`` (and any factor that varies) is an array, and the factors are
    ``None`` unless every element shares one relaxation time.
    """

    tau: float
    zeta: float | None
    kappa: float | None
    regime_note: str

    def __post_init__(self) -> None:
        if self.regime_note not in ("otto", "catalytic"):
            raise ValueError(f"regime_note must be 'otto' or 'catalytic', got {self.regime_note!r}")
        _require_positive("tau", self.tau)


@dataclass(frozen=True)
class SignedDeltaP:
    """Magnitude and sign of the per-cycle population flow.

    The engine's two-swap flow changes sign at a_c = a_h^2; keeping the
    magnitude and the sign of (a_c - a_h^2) separate makes the regime
    explicit at every call site.  ``value`` is the signed flow.
    """

    magnitude: float
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign flag must be -1, 0 or +1, got {self.sign}")
        if self.magnitude < 0:
            raise ValueError(f"magnitude must be nonnegative, got {self.magnitude}")

    @property
    def value(self) -> float:
        return self.sign * self.magnitude


def otto_delta_p(a_h: float, a_c: float) -> float:
    """Per-cycle flow of the catalyst-free engine.

    delta_p = (a_h - a_c) / ((1 + a_h)(1 + a_c)); positive exactly when
    the hot qubit is more excited than the cold one.
    """
    _require_gibbs_range("a_h", a_h)
    _require_gibbs_range("a_c", a_c)
    return (a_h - a_c) / ((1.0 + a_h) * (1.0 + a_c))


def otto_current(big_gamma_h: float, big_gamma_c: float, g: float, delta_p: float) -> float:
    """Stationary transfer rate of the catalyst-free engine.

    <n> = (2 Gamma_h Gamma_c / (Gamma_h + Gamma_c)) * delta_p /
    (1 + Gamma_h Gamma_c / g^2), with Gamma_k the bath half-rates.
    """
    _require_positive("big_gamma_h", big_gamma_h)
    _require_positive("big_gamma_c", big_gamma_c)
    _require_positive("g", g)
    prefactor = 2.0 * big_gamma_h * big_gamma_c / (big_gamma_h + big_gamma_c)
    return prefactor * delta_p / (1.0 + big_gamma_h * big_gamma_c / g**2)


def otto_tau(big_gamma_h: float, big_gamma_c: float, g: float) -> TauBreakdown:
    """Characteristic time delta_p / <n> of the catalyst-free engine.

    tau = (1 + Gamma_h Gamma_c / g^2) (Gamma_h + Gamma_c) / (2 Gamma_h
    Gamma_c).  For equal half-rates this is tau_eq (1 + 1/(g tau_eq)^2),
    i.e. zeta = kappa = 1.
    """
    _require_positive("big_gamma_h", big_gamma_h)
    _require_positive("big_gamma_c", big_gamma_c)
    _require_positive("g", g)
    tau = (1.0 + big_gamma_h * big_gamma_c / _pow(g, 2)) * (
        (big_gamma_h + big_gamma_c) / (2.0 * big_gamma_h * big_gamma_c)
    )
    gap = abs(big_gamma_h - big_gamma_c)
    if _holds((gap <= 1e-12 * big_gamma_h) | (gap <= 1e-12 * big_gamma_c)):
        return TauBreakdown(tau=tau, zeta=1.0, kappa=1.0, regime_note="otto")
    return TauBreakdown(tau=tau, zeta=None, kappa=None, regime_note="otto")


def cat_population(a_h: float, a_c: float) -> float:
    """Ground-level population of the qubit catalyst that makes the
    two-swap permutation simple: p = (1 + a_h) / (1 + 2 a_h + a_c)."""
    _require_gibbs_range("a_h", a_h)
    _require_gibbs_range("a_c", a_c)
    return (1.0 + a_h) / (1.0 + 2.0 * a_h + a_c)


def cat_delta_p(a_h: float, a_c: float) -> SignedDeltaP:
    """Common per-cycle flow of both swaps of the qubit-catalyst engine.

    The signed value is (a_c - a_h^2) / ((1+a_h)(1+a_c)(1+2a_h+a_c));
    in the engine regime (a_h^2 > a_c) it is negative: both swaps run
    "downhill" from d_i to u_i.
    """
    _require_gibbs_range("a_h", a_h)
    _require_gibbs_range("a_c", a_c)
    numerator = a_c - a_h**2
    magnitude = abs(numerator) / ((1.0 + a_h) * (1.0 + a_c) * (1.0 + 2.0 * a_h + a_c))
    sign = 0 if numerator == 0.0 else (1 if numerator > 0.0 else -1)
    return SignedDeltaP(magnitude=magnitude, sign=sign)


def rate_constants(
    gamma_h_plus: float,
    gamma_h_minus: float,
    gamma_c_plus: float,
    gamma_c_minus: float,
) -> RateConstants:
    """The eight combinations of jump rates entering the catalytic current.

    With S = gamma_c_plus + gamma_c_minus + gamma_h_plus + gamma_h_minus:

    * alpha1 = (g^c_- + g^h_-) / (g^h_+ S)
    * alpha2 = (g^c_- + g^h_- + g^h_+) / (g^h_+ S)
    * phi1   = (g^c_- + g^h_-)(g^c_+ + g^h_+) / (g^c_- g^h_+ S)
    * phi2   = g^c_+ (g^c_- + g^h_-) / (g^c_- g^h_+ S)
    * xi1    = (g^c_+ + g^h_+) / (g^c_- S)
    * xi2    = g^c_+ / (g^c_- S)
    * A_rate = g^h_- + g^h_+ + 2 g^c_+ - 4 g^c_- g^c_+ / (g^h_- + g^h_+ + 2 g^c_-)
    * B_rate = S

    A_rate is evaluated as h (h + 2 g^c_- + 2 g^c_+) / (h + 2 g^c_-) with
    h = g^h_- + g^h_+, the same value without the subtraction, which
    loses digits when the hot rates are far below the cold ones.
    """
    for name, val in (
        ("gamma_h_plus", gamma_h_plus),
        ("gamma_h_minus", gamma_h_minus),
        ("gamma_c_plus", gamma_c_plus),
        ("gamma_c_minus", gamma_c_minus),
    ):
        _require_positive(name, val)
    total = gamma_c_plus + gamma_c_minus + gamma_h_plus + gamma_h_minus
    alpha1 = (gamma_c_minus + gamma_h_minus) / (gamma_h_plus * total)
    alpha2 = (gamma_c_minus + gamma_h_minus + gamma_h_plus) / (gamma_h_plus * total)
    phi1 = ((gamma_c_minus + gamma_h_minus) * (gamma_c_plus + gamma_h_plus)) / (
        gamma_c_minus * gamma_h_plus * total
    )
    phi2 = (gamma_c_plus * (gamma_c_minus + gamma_h_minus)) / (
        gamma_c_minus * gamma_h_plus * total
    )
    xi1 = (gamma_c_plus + gamma_h_plus) / (gamma_c_minus * total)
    xi2 = gamma_c_plus / (gamma_c_minus * total)
    h = gamma_h_minus + gamma_h_plus
    a_rate = h * (h + 2.0 * gamma_c_minus + 2.0 * gamma_c_plus) / (h + 2.0 * gamma_c_minus)
    b_rate = gamma_h_minus + gamma_h_plus + gamma_c_minus + gamma_c_plus
    return RateConstants(
        alpha1=alpha1,
        alpha2=alpha2,
        phi1=phi1,
        phi2=phi2,
        xi1=xi1,
        xi2=xi2,
        A_rate=a_rate,
        B_rate=b_rate,
        a_h=gamma_h_plus / gamma_h_minus,
        a_c=gamma_c_plus / gamma_c_minus,
        gamma_h_plus=gamma_h_plus,
        gamma_h_minus=gamma_h_minus,
        gamma_c_plus=gamma_c_plus,
        gamma_c_minus=gamma_c_minus,
    )


def _cat_denominator(constants: RateConstants, g: float) -> float:
    """The bracketed three-term denominator shared by the catalytic
    current and characteristic time.

    Its printed shape is

        (a_c + a_h)/(1 + a_c + 2 a_h) * (alpha2 + A_rate/(4 g^2))
        + (1 + a_h)/(1 + a_c + 2 a_h) * (phi1 + B_rate/(4 g^2))
        + (a_h^2 - a_c) (alpha1 + phi1 + xi1 + alpha2 + phi2 + xi2)
          / ((1 + a_c)(1 + a_h)(1 + a_c + 2 a_h)).

    Its O(1/gamma_h_plus) parts cancel, so at small a_h that shape loses
    digits (1e-10 relative at a_h ~ 1e-6).  Over a common denominator every
    coefficient is positive.  Writing g_k^pm for the jump rates,
    h = g_h^- + g_h^+, c = g_c^- + g_c^+, S = B_rate and
    w = g_c^- g_h^- + 2 g_c^- g_h^+ + g_c^+ g_h^-, the denominator is

        N_0 / (c h w S) + h N_2 / (4 g^2 (2 g_c^- + h) w)

    with N_0 and N_2 the subtraction-free polynomials below.
    """
    hp, hm = constants.gamma_h_plus, constants.gamma_h_minus
    cp, cm = constants.gamma_c_plus, constants.gamma_c_minus
    h = hm + hp
    w = cm * hm + 2.0 * cm * hp + cp * hm
    n_0 = (
        cm * (_pow(cm, 2) * (hm + 3.0 * hp) + 2.0 * cm * h * (hm + 2.0 * hp)
              + h * (_pow(hm, 2) + hm * hp + _pow(hp, 2)))
        + cp * h * (4.0 * _pow(cm, 2) + 4.0 * cm * h + hm * hp)
        + _pow(cp, 2) * (cm * (3.0 * hm + hp) + 2.0 * hm * h)
    )
    n_2 = (
        cm * (2.0 * _pow(cm, 2) + cm * (3.0 * hm + 5.0 * hp) + h * (hm + 2.0 * hp))
        + cp * (2.0 * _pow(cm, 2) + 3.0 * cm * h + hm * h)
        + 2.0 * _pow(cp, 2) * hm
    )
    return n_0 / ((cm + cp) * h * w * constants.B_rate) + h * n_2 / (
        4.0 * _pow(g, 2) * (2.0 * cm + h) * w
    )


def cat_current(constants: RateConstants, g: float, delta_p: float) -> float:
    """Stationary transfer rate of the qubit-catalyst engine: delta_p
    divided by the three-term denominator.

    The denominator is positive for every physical rate set; hitting a
    nonpositive value means the inputs are outside the model's domain
    and raises rather than returning a clamped value.
    """
    _require_positive("g", g)
    denom = _cat_denominator(constants, g)
    if denom <= 0.0:
        raise ValueError(
            f"catalytic-current denominator is nonpositive ({denom!r}); "
            "inputs are outside the physical domain"
        )
    return delta_p / denom


def cat_tau(constants: RateConstants, g: float, a_h: float, a_c: float) -> TauBreakdown:
    """Characteristic time delta_p / <n> of the qubit-catalyst engine.

    ``a_h``/``a_c`` must agree with the ratios stored in ``constants``
    (they are accepted separately so call sites stay explicit about the
    working point).  When both baths share one relaxation time, the
    factorization tau = zeta * tau_eq * (1 + kappa/(g tau_eq)^2) is
    returned as well and the identity is verified to
    ``TAU_IDENTITY_TOL`` relative (at every element, for arrays).
    """
    _require_positive("g", g)
    for name, passed, stored in (("a_h", a_h, constants.a_h), ("a_c", a_c, constants.a_c)):
        gap = abs(passed - stored)
        ok = (gap <= 1e-12) | (gap <= 1e-12 * abs(stored))
        if not _holds(ok):
            passed, stored = _failing(ok, passed, stored)
            raise ValueError(
                f"{name} = {passed!r} disagrees with the rate constants' value {stored!r}"
            )
    denom = _cat_denominator(constants, g)
    ok = denom > 0.0
    if not _holds(ok):
        raise ValueError(
            f"characteristic-time denominator is nonpositive ({_failing(ok, denom)[0]!r}); "
            "inputs are outside the physical domain"
        )

    if not _is_equal_relaxation(constants):
        return TauBreakdown(tau=denom, zeta=None, kappa=None, regime_note="catalytic")

    tau_eq = 4.0 / constants.B_rate
    zeta = 0.25 * (
        3.0
        + 1.0 / (1.0 + a_c)
        - 1.0 / (1.0 + a_h)
        + (1.0 + 3.0 * a_c) / ((1.0 + a_c) * (1.0 + a_c + 2.0 * a_h))
    )
    kappa = (
        2.0
        * (1.0 + a_c)
        * (1.0 + a_h)
        * (6.0 + 9.0 * a_h + a_c * (5.0 + 3.0 * a_c + 5.0 * a_h))
    ) / (
        (3.0 + a_c)
        * (
            4.0
            + 2.0 * a_c * (4.0 + a_c)
            + (1.0 + a_c) * (11.0 + 3.0 * a_c) * a_h
            + 2.0 * (4.0 + 3.0 * a_c) * _pow(a_h, 2)
        )
    )
    factored = zeta * tau_eq * (1.0 + kappa / (_pow(g, 2) * _pow(tau_eq, 2)))
    gap = abs(factored - denom)
    ok = (gap <= TAU_IDENTITY_TOL) | (gap <= TAU_IDENTITY_TOL * abs(denom))
    if not _holds(ok):
        factored, denom = _failing(ok, factored, denom)
        raise AssertionError(
            f"characteristic-time factorization disagrees with the general "
            f"form: {factored!r} vs {denom!r}"
        )
    return TauBreakdown(tau=denom, zeta=zeta, kappa=kappa, regime_note="catalytic")


def _is_equal_relaxation(constants: RateConstants, rel_tol: float = 1e-9) -> bool:
    """Whether tau_eq_h = tau_eq_c, i.e. whether the two baths' jump-rate
    sums gamma_k_minus + gamma_k_plus agree to ``rel_tol`` (for arrays:
    at every element)."""
    h = constants.gamma_h_minus + constants.gamma_h_plus
    c = constants.gamma_c_minus + constants.gamma_c_plus
    gap = abs(h - c)
    return _holds((gap <= rel_tol * h) | (gap <= rel_tol * c))


def one_minus_zeta(a_h: float, a_c: float) -> float:
    """1 - zeta in its manifestly nonnegative rational form."""
    _require_gibbs_range("a_h", a_h)
    _require_gibbs_range("a_c", a_c)
    return (a_h + 2.0 * a_c * a_h * (1.0 + a_h) + _pow(a_c, 2) * (2.0 + a_h)) / (
        4.0 * (1.0 + a_c) * (1.0 + a_h) * (1.0 + a_c + 2.0 * a_h)
    )


def one_minus_kappa(a_h: float, a_c: float) -> float:
    """1 - kappa in its (1 - a_c)-factored, manifestly nonnegative form."""
    _require_gibbs_range("a_h", a_h)
    _require_gibbs_range("a_c", a_c)
    return (
        (1.0 - a_c)
        * (
            2.0 * (2.0 * a_c + 3.0) * _pow(a_h, 2)
            + 3.0 * _pow(a_c + 1.0, 2) * a_h
            + 2.0 * a_c * (2.0 * a_c + 3.0)
        )
    ) / (
        (3.0 + a_c)
        * (
            4.0
            + 2.0 * a_c * (4.0 + a_c)
            + (1.0 + a_c) * (11.0 + 3.0 * a_c) * a_h
            + 2.0 * (4.0 + 3.0 * a_c) * _pow(a_h, 2)
        )
    )


def design_efficiencies(omega_h: float, omega_c: float) -> tuple[float, float]:
    """(eta of the catalyst-free engine, eta of the qubit-catalyst engine).

    Both depend only on the frequency ratio: 1 - omega_c/omega_h and
    1 - omega_c/(2 omega_h).  Negative values simply mean the working
    point is outside the respective engine regime.
    """
    _require_positive("omega_h", omega_h)
    _require_positive("omega_c", omega_c)
    return 1.0 - omega_c / omega_h, 1.0 - omega_c / (2.0 * omega_h)


def efficiencies(
    omega_h: float, omega_c: float, beta_h: float, beta_c: float
) -> tuple[float, float, float]:
    """(eta_otto, eta_catalytic, eta_carnot) at one working point.

    eta_otto = 1 - omega_c/omega_h, eta_catalytic = 1 - omega_c/(2
    omega_h), eta_carnot = 1 - beta_h/beta_c.  Requires beta_c > beta_h
    (the cold bath must actually be colder).
    """
    _require_positive("omega_h", omega_h)
    _require_positive("omega_c", omega_c)
    _require_positive("beta_c", beta_c)
    if not (math.isfinite(beta_h) and beta_h >= 0):
        raise ValueError(f"beta_h must be nonnegative and finite, got {beta_h}")
    if not beta_c > beta_h:
        raise ValueError(
            f"need beta_c > beta_h for a hot and a cold bath, got {beta_c} <= {beta_h}"
        )
    return (
        1.0 - omega_c / omega_h,
        1.0 - omega_c / (2.0 * omega_h),
        1.0 - beta_h / beta_c,
    )
