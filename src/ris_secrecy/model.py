"""System parameters, derived constants and exact per-draw SINRs.

The downlink has a base station serving a near user (power fraction a_n,
SIC receiver) and a far user (fraction a_f) through an amplifying RIS with
M = P * Q elements of which one group of Q is active.  An external
eavesdropper taps both NOMA streams; the far user can also act as an
internal eavesdropper on the near user's stream.

The SINR functions here take exact per-draw channel quantities (cascaded
gains and on-group norms) and are the single source of truth for the Monte
Carlo engine; the closed-form engine replaces the norms by their means, and
keeping the two routes separate is what makes the cross-validation
meaningful.  SCENARIOS and SINR_FAMILIES are the one registry mapping each
secrecy event onto these SINRs, their closed-form laws and its protected rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

__all__ = [
    "DerivedConstants",
    "SCENARIOS",
    "SIC_MODES",
    "SINR_FAMILIES",
    "SURFACE_MODES",
    "SinrFamily",
    "SystemParams",
    "derive",
    "mean_channel_gain",
    "scenario_rate",
    "sinr",
    "sinr_eve_f",
    "sinr_eve_n",
    "sinr_internal_f_to_n",
    "sinr_user_f",
    "sinr_user_n",
]

SIC_MODES = ("ipsic", "psic")
# active (amplifying) and passive surface
SURFACE_MODES = ("aris", "pris")


class SinrFamily(NamedTuple):
    """One SINR family: its exact per-draw SINR and its closed-form law.

    function:  name of the sinr_* function here, looked up at call time
    takes_sic: whether the SIC mode enters
    distance:  SystemParams field of the receiver's RIS distance
    scale:     DerivedConstants argument scale of the K-distributed cascade
               law; a method of the residual power is evaluated at the
               quadrature nodes under ipSIC and at 0.0 under pSIC
    capped:    whether the far stream's NOMA ceiling a_f/a_n caps the argument
    """

    function: str
    takes_sic: bool
    distance: str
    scale: str
    capped: bool


SINR_FAMILIES = {
    "user_n": SinrFamily("sinr_user_n", True, "d_rn", "xi_n", False),
    "user_f": SinrFamily("sinr_user_f", False, "d_rf", "xi_f", True),
    "eve_n": SinrFamily("sinr_eve_n", True, "d_re", "xi_e1", False),
    "eve_f": SinrFamily("sinr_eve_f", False, "d_re", "xi_e3", True),
    "internal_f_to_n": SinrFamily("sinr_internal_f_to_n", False, "d_rf", "xi_e4", False),
}

# scenario -> outage events (legitimate family, wiretap family, rate field).
# A trial is in outage when any event fires, and the protected rate is the
# sum of the event rates: system_external is the union of external_n and
# external_f and secures r_n + r_f.
SCENARIOS = {
    "external_n": (("user_n", "eve_n", "r_n"),),
    "external_f": (("user_f", "eve_f", "r_f"),),
    "internal": (("user_n", "internal_f_to_n", "r_n"),),
    "system_external": (("user_n", "eve_n", "r_n"), ("user_f", "eve_f", "r_f")),
}


def mean_channel_gain(distance_m: float, alpha_p: float, beta0: float) -> float:
    """Mean per-hop channel gain beta0 * d^-alpha_p.

    beta0 is the reference gain at 1 m (linear, not dB); e.g. 1e-3 at 20 m
    with exponent 2 gives 2.5e-6.
    """
    if distance_m <= 0.0:
        raise ValueError("distance must be positive")
    return beta0 * distance_m ** (-alpha_p)


@dataclass(frozen=True)
class SystemParams:
    """Full system operating point (all linear units: watts, meters, ratios).

    d_br, d_rn, d_rf, d_re:   BS-RIS and RIS-to-{near, far, eve} distances (m);
                              +inf models an unreachable receiver (zero mean gain)
    alpha_p, beta0:           path-loss exponent and reference gain at 1 m
    n_elements, n_groups:     M total RIS elements partitioned into P groups
    n_active:                 Q simultaneously active elements (one group on)
    kappa:                    RIS amplification gain (1 = passive)
    sigma2, sigma2_e:         receiver noise power at users / at the eavesdropper (W)
    sigma2_t:                 per-element RIS thermal noise power (W); 0 = passive
    a_f, a_n:                 NOMA power split, a_f + a_n = 1 with a_f > a_n
    r_f, r_n:                 target secrecy rates (bits per channel use)
    varpi:                    residual interference level after imperfect SIC, in [0, 1]
    omega_ipu, omega_ipe:     mean gains of the residual-interference channels
    p_bs:                     base-station transmit power (W)
    """

    d_br: float
    d_rn: float
    d_rf: float
    d_re: float
    alpha_p: float
    beta0: float
    n_elements: int
    n_groups: int
    n_active: int
    kappa: float
    sigma2: float
    sigma2_e: float
    sigma2_t: float
    a_f: float
    a_n: float
    r_f: float
    r_n: float
    varpi: float
    omega_ipu: float
    omega_ipe: float
    p_bs: float

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) != getattr(self, f.name):
                raise ValueError(f"{f.name} must not be NaN")
        for name in ("d_br", "d_rn", "d_rf", "d_re", "beta0", "sigma2", "sigma2_e", "p_bs"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("alpha_p", "sigma2_t", "r_f", "r_n", "omega_ipu", "omega_ipe"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if self.n_elements != self.n_groups * self.n_active:
            raise ValueError("element counts must satisfy n_elements = n_groups * n_active")
        if min(self.n_groups, self.n_active) < 1:
            raise ValueError("group counts must be >= 1")
        if self.kappa < 1.0:
            raise ValueError("kappa must be >= 1 (1 means passive)")
        if not math.isclose(self.a_f + self.a_n, 1.0, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError("power split must satisfy a_f + a_n = 1")
        if not (self.a_f > self.a_n >= 0.0):
            raise ValueError("far user must get the larger power share (a_f > a_n >= 0)")
        if not 0.0 <= self.varpi <= 1.0:
            raise ValueError("varpi must lie in [0, 1]")


@dataclass(frozen=True)
class DerivedConstants:
    """Derived quantities shared by the closed-form expressions.

    omega_*:  mean per-hop gains for the four links
    c_n, c_f: amplified signal-power coefficients a_x * p_bs * kappa^2
    v_n, v_f: mean-field noise at the near/far user (RIS thermal + receiver)
    v_e1:     mean-field noise at the external eavesdropper
    v_e2:     mean-field noise when the far user wiretaps (eve-grade front end)
    rho_e:    p_bs / sigma2_e
    xi_f, xi_e3, xi_e4: constant CDF/PDF argument scales
    """

    params: SystemParams
    omega_br: float
    omega_rn: float
    omega_rf: float
    omega_re: float
    c_n: float
    c_f: float
    v_n: float
    v_f: float
    v_e1: float
    v_e2: float
    rho_e: float
    xi_f: float
    xi_e3: float
    xi_e4: float

    # zeta-dependent argument scales; zeta is a Gauss-Laguerre node standing
    # in for the exponentially distributed residual-interference power.
    def xi_n(self, zeta):
        p = self.params
        num = self.v_n + p.varpi * p.p_bs * p.omega_ipu * zeta
        den = self.c_n * self.omega_br * self.omega_rn
        # den = 0 only in degenerate configs (a_n = 0); num >= sigma2 > 0
        return num / den if den > 0.0 else num * math.inf

    def xi_e1(self, zeta):
        p = self.params
        num = self.v_e1 + p.varpi * p.p_bs * p.omega_ipe * zeta
        den = self.c_n * self.omega_br * self.omega_re
        return num / den if den > 0.0 else num * math.inf

    def xi_e5(self, zeta):
        # internal-scenario user-side scale; the residual gain here follows
        # the cited closed form, which couples omega_ipe into the user branch
        p = self.params
        num = self.v_n + p.varpi * p.p_bs * p.omega_ipe * zeta
        den = self.c_n * self.omega_br * self.omega_rn
        return num / den if den > 0.0 else num * math.inf

    # secrecy-outage SINR thresholds; the eavesdropper SINR enters through
    # its mean-field value, which is the one analytic-route approximation
    # the Monte Carlo engine does not share.
    def _eve_gain_term(self, a_frac):
        p = self.params
        return a_frac * self.rho_e * p.kappa**2 * p.n_active * self.omega_br * self.omega_re

    def _eve_thermal_term(self):
        p = self.params
        return p.kappa**2 * p.sigma2_t * p.n_active * self.omega_re / p.sigma2_e

    def eps_n1(self, zeta):
        p = self.params
        mean_sinr = self._eve_gain_term(p.a_n) / (
            self._eve_thermal_term() + p.varpi * self.rho_e * p.omega_ipe * zeta + 1.0
        )
        return 2.0**p.r_n * (1.0 + mean_sinr) - 1.0

    def eps_n2(self) -> float:
        mean_sinr = self._eve_gain_term(self.params.a_n) / (self._eve_thermal_term() + 1.0)
        return 2.0 ** self.params.r_n * (1.0 + mean_sinr) - 1.0

    def eps_f(self) -> float:
        mean_sinr = self._eve_gain_term(self.params.a_f) / (
            self._eve_thermal_term() + self._eve_gain_term(self.params.a_n) + 1.0
        )
        return 2.0 ** self.params.r_f * (1.0 + mean_sinr) - 1.0

    def eps_fn(self) -> float:
        p = self.params
        gain = p.a_n * self.rho_e * p.kappa**2 * p.n_active * self.omega_br * self.omega_rf
        thermal = p.kappa**2 * p.sigma2_t * p.n_active * self.omega_rf / p.sigma2_e
        return 2.0**p.r_n * (1.0 + gain / (thermal + 1.0)) - 1.0


def _ratio(num: float, den: float) -> float:
    # degenerate configs (a_n = 0, or an infinitely distant receiver) zero
    # the denominator; the scale is then +inf and the CDFs saturate at 1
    return num / den if den > 0.0 else math.inf


def derive(params: SystemParams) -> DerivedConstants:
    """Compute the derived constants for one operating point."""
    omega_br = mean_channel_gain(params.d_br, params.alpha_p, params.beta0)
    omega_rn = mean_channel_gain(params.d_rn, params.alpha_p, params.beta0)
    omega_rf = mean_channel_gain(params.d_rf, params.alpha_p, params.beta0)
    omega_re = mean_channel_gain(params.d_re, params.alpha_p, params.beta0)
    k2 = params.kappa**2
    q = params.n_active
    c_n = params.a_n * params.p_bs * k2
    c_f = params.a_f * params.p_bs * k2
    v_n = k2 * params.sigma2_t * q * omega_rn + params.sigma2
    v_f = k2 * params.sigma2_t * q * omega_rf + params.sigma2
    v_e1 = k2 * params.sigma2_t * q * omega_re + params.sigma2_e
    v_e2 = k2 * params.sigma2_t * q * omega_rf + params.sigma2_e
    return DerivedConstants(
        params=params,
        omega_br=omega_br,
        omega_rn=omega_rn,
        omega_rf=omega_rf,
        omega_re=omega_re,
        c_n=c_n,
        c_f=c_f,
        v_n=v_n,
        v_f=v_f,
        v_e1=v_e1,
        v_e2=v_e2,
        rho_e=params.p_bs / params.sigma2_e,
        xi_f=_ratio(v_f, omega_br * omega_rf),
        xi_e3=_ratio(v_e1, omega_br * omega_re),
        xi_e4=_ratio(v_e2, c_n * omega_br * omega_rf),
    )


def _check_sic(sic: str):
    if sic not in SIC_MODES:
        raise ValueError(f"sic must be one of {SIC_MODES}")


def _residual(params: SystemParams, ip_gain, sic: str):
    if sic == "psic":
        return 0.0
    return params.varpi * params.p_bs * ip_gain


def sinr_user_n(params: SystemParams, draw, sic: str):
    """Exact SINR of the near user decoding its own stream after SIC.

    draw supplies cascaded_gain_n, norm_n, ip_user; all array-valued inputs
    broadcast, so one call scores a whole batch of trials.
    """
    _check_sic(sic)
    k2 = params.kappa**2
    num = params.a_n * params.p_bs * k2 * draw.cascaded_gain_n
    den = (
        k2 * params.sigma2_t * draw.norm_n
        + _residual(params, draw.ip_user, sic)
        + params.sigma2
    )
    return num / den


def sinr_user_f(params: SystemParams, draw):
    """Exact SINR of the far user; bounded above by a_f / a_n."""
    k2 = params.kappa**2
    num = params.a_f * params.p_bs * k2 * draw.cascaded_gain_f
    den = (
        params.a_n * params.p_bs * k2 * draw.cascaded_gain_f
        + k2 * params.sigma2_t * draw.norm_f
        + params.sigma2
    )
    return num / den


def sinr_eve_n(params: SystemParams, draw, sic: str):
    """Exact SINR of the external eavesdropper on the near user's stream."""
    _check_sic(sic)
    k2 = params.kappa**2
    num = params.a_n * params.p_bs * k2 * draw.cascaded_gain_e
    den = (
        k2 * params.sigma2_t * draw.norm_e
        + _residual(params, draw.ip_eve, sic)
        + params.sigma2_e
    )
    return num / den


def sinr_eve_f(params: SystemParams, draw):
    """Exact SINR of the external eavesdropper on the far user's stream."""
    k2 = params.kappa**2
    num = params.a_f * params.p_bs * k2 * draw.cascaded_gain_e
    den = (
        params.a_n * params.p_bs * k2 * draw.cascaded_gain_e
        + k2 * params.sigma2_t * draw.norm_e
        + params.sigma2_e
    )
    return num / den


def sinr_internal_f_to_n(params: SystemParams, draw):
    """Exact SINR of the far user wiretapping the near user's stream.

    The far user knows its own signal, so no NOMA interference term remains;
    its wiretap front end sees sigma2_e.
    """
    k2 = params.kappa**2
    num = params.a_n * params.p_bs * k2 * draw.cascaded_gain_f
    den = k2 * params.sigma2_t * draw.norm_f + params.sigma2_e
    return num / den


def sinr(family: str, params: SystemParams, draw, sic: str):
    """Exact SINR of one family (a key of SINR_FAMILIES) over a batch of draws."""
    if family not in SINR_FAMILIES:
        raise ValueError(f"unknown SINR family {family!r}")
    fam = SINR_FAMILIES[family]
    fn = globals()[fam.function]
    return fn(params, draw, sic) if fam.takes_sic else fn(params, draw)


def scenario_rate(params: SystemParams, scenario: str) -> float:
    """Target rate protected in the given scenario (r_n except for external_f).

    The system-level external event protects both streams at once, so its
    secured rate is the sum r_n + r_f.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {tuple(SCENARIOS)}")
    return sum(getattr(params, rate) for _, _, rate in SCENARIOS[scenario])
