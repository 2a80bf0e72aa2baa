"""System parameters, derived constants and exact per-draw SINRs.

The downlink has a base station serving a near user (power fraction a_n,
SIC receiver) and a far user (fraction a_f) through an amplifying RIS with
M = P * Q elements of which one group of Q is active.  An external
eavesdropper taps both NOMA streams; the far user can also act as an
internal eavesdropper on the near user's stream.

Every SINR is one formula over a SINR_FAMILIES row (power share, receiver,
noise, residual gain, NOMA cap).  The sinr_* functions evaluate it on exact
per-draw gains and norms for the Monte Carlo engine; DerivedConstants.scale
and mean_sinr evaluate it at mean-field norms for the closed forms.  The two
routes share the registry, not the draws, which is what makes the
cross-validation meaningful.  SCENARIOS maps each secrecy event onto the
families and its protected rate, and SopEstimate is the result type both
engines return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

__all__ = [
    "DerivedConstants",
    "LAW_FIELDS",
    "SCENARIOS",
    "SIC_MODES",
    "SINR_FAMILIES",
    "SURFACE_MODES",
    "SinrFamily",
    "SopEstimate",
    "SystemParams",
    "derive",
    "mean_channel_gain",
    "scenario_rate",
    "secrecy_threshold",
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
    """One SINR family as data, read by both engines.

    Every family decodes one stream at one receiver with the SINR

        share p_bs kappa^2 g / ([a_n p_bs kappa^2 g] + kappa^2 sigma2_t ||h||^2
                                + [varpi p_bs I] + noise)

    of its cascaded gain g = |h_r^H h_br|^2, on-group norm ||h||^2 and
    residual-interference power I.  The near stream's NOMA interference
    enters a capped row; the residual enters under ipSIC.

    share:    SystemParams field of the decoded stream's power share
    receiver: 'n', 'f' or 'e'; picks the ChannelDraw cascaded_gain_* and
              norm_*, the SystemParams distance d_r* and DerivedConstants omega_r*
    noise:    SystemParams field of the receiver noise power
    residual: SystemParams field of the residual-interference gain left by
              imperfect SIC, or None where the SIC mode does not enter
    capped:   whether the NOMA ceiling a_f/a_n caps the SINR
    """

    share: str
    receiver: str
    noise: str
    residual: str | None
    capped: bool

    @property
    def takes_sic(self) -> bool:
        return self.residual is not None

    def sic_for(self, sic: str) -> str:
        """The SIC mode this family's SINR reads under `sic`: `sic` itself where
        a residual enters, else 'psic' (one SINR serves both modes)."""
        if sic not in SIC_MODES:
            raise ValueError(f"sic must be one of {SIC_MODES}")
        return sic if self.takes_sic else "psic"

    @property
    def distance(self) -> str:
        return "d_r" + self.receiver


class _Registry(dict):
    """A name -> entry table; an unknown name raises ValueError listing the known ones."""

    def __init__(self, what: str, entries: dict):
        super().__init__(entries)
        self.what = what

    def __missing__(self, name):
        raise ValueError(f"unknown {self.what} {name!r}; known: {', '.join(self)}")


SINR_FAMILIES = _Registry("SINR family", {
    "user_n": SinrFamily("a_n", "n", "sigma2", "omega_ipu", False),
    "user_f": SinrFamily("a_f", "f", "sigma2", None, True),
    "eve_n": SinrFamily("a_n", "e", "sigma2_e", "omega_ipe", False),
    "eve_f": SinrFamily("a_f", "e", "sigma2_e", None, True),
    # the far user wiretaps through an eavesdropper-grade front end
    "internal_f_to_n": SinrFamily("a_n", "f", "sigma2_e", None, False),
})


def _row(family) -> SinrFamily:
    return family if isinstance(family, SinrFamily) else SINR_FAMILIES[family]


# scenario -> outage events (legitimate family, wiretap family, rate field).
# A trial is in outage when any event fires, and the protected rate is the
# sum of the event rates: system_external is the union of external_n and
# external_f and secures r_n + r_f.
SCENARIOS = _Registry("scenario", {
    "external_n": (("user_n", "eve_n", "r_n"),),
    "external_f": (("user_f", "eve_f", "r_f"),),
    "internal": (("user_n", "internal_f_to_n", "r_n"),),
    "system_external": (("user_n", "eve_n", "r_n"), ("user_f", "eve_f", "r_f")),
})


def mean_channel_gain(distance_m: float, alpha_p: float, beta0: float) -> float:
    """Mean per-hop channel gain beta0 * d^-alpha_p; +inf where it overflows a float.

    beta0 is the reference gain at 1 m (linear, not dB); e.g. 1e-3 at 20 m
    with exponent 2 gives 2.5e-6.
    """
    if distance_m <= 0.0:
        raise ValueError("distance must be positive")
    try:
        return beta0 * distance_m ** (-alpha_p)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SystemParams:
    """Full system operating point (all linear units: watts, meters, ratios;
    every field but the distances finite).

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
            value = getattr(self, f.name)
            if value != value:
                raise ValueError(f"{f.name} must not be NaN")
            # only a distance may be infinite (an unreachable receiver); an
            # infinite residual gain has no residual-free pSIC limit (0 * inf)
            if math.isinf(value) and not f.name.startswith("d_"):
                raise ValueError(f"{f.name} must be finite")
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
        # the engines form p_bs kappa^2 / noise, 2^rate and each mean hop gain as floats
        if math.isinf(self.kappa * self.kappa * self.p_bs / min(self.sigma2, self.sigma2_e)):
            raise ValueError("kappa must keep p_bs * kappa**2 / sigma2 and / sigma2_e finite")
        for name in ("r_f", "r_n"):
            if getattr(self, name) >= 1024.0:
                raise ValueError(f"{name} must be below 1024 (2**{name} finite)")
        for name in ("d_br", "d_rn", "d_rf", "d_re"):
            if math.isinf(mean_channel_gain(getattr(self, name), self.alpha_p, self.beta0)):
                raise ValueError(f"{name} must keep the mean gain beta0 * {name}**-alpha_p finite")


# SystemParams fields the engines read: all but M and P (n_elements, n_groups), which
# only the power budget reads at realization; points equal on these share every estimate
LAW_FIELDS = tuple(f.name for f in fields(SystemParams) if f.name not in ("n_elements", "n_groups"))


@dataclass(frozen=True)
class DerivedConstants:
    """Derived quantities shared by the closed-form expressions.

    omega_*:  mean per-hop gains for the four links

    scale and mean_sinr evaluate a family (a SINR_FAMILIES key or row) at
    mean-field norms ||h||^2 -> Q omega_r and residual power I -> residual
    gain * zeta, zeta a Gauss-Laguerre node of the exponential law.
    """

    params: SystemParams
    omega_br: float
    omega_rn: float
    omega_rf: float
    omega_re: float

    def scale(self, family, zeta):
        """Argument scale of the family's K-distributed cascade law: the SINR
        is below x when g / (omega_br omega_r) is below x * scale, or below
        x * scale / (c_f - x c_n) for a capped row, c_x = a_x p_bs kappa^2."""
        fam, p = _row(family), self.params
        omega_r = getattr(self, "omega_r" + fam.receiver)
        num = p.kappa**2 * p.sigma2_t * p.n_active * omega_r + getattr(p, fam.noise)
        if fam.takes_sic:
            num = num + p.varpi * p.p_bs * getattr(p, fam.residual) * zeta
        signal = 1.0 if fam.capped else getattr(p, fam.share) * p.p_bs * p.kappa**2
        den = signal * self.omega_br * omega_r
        # den = 0 only in degenerate configs (a_n = 0, an unreachable receiver);
        # num >= noise > 0, so the scale is +inf and the CDFs saturate at 1
        return num / den if den > 0.0 else num * math.inf

    def mean_sinr(self, family, zeta):
        """SINR at the mean cascaded gain g -> Q omega_br omega_r: the closed
        forms' wiretap SINR, the one approximation Monte Carlo does not share."""
        fam, p = _row(family), self.params
        omega_r = getattr(self, "omega_r" + fam.receiver)
        rho = p.p_bs / getattr(p, fam.noise)

        def signal(share):
            return share * rho * p.kappa**2 * p.n_active * self.omega_br * omega_r

        den = p.kappa**2 * p.sigma2_t * p.n_active * omega_r / getattr(p, fam.noise)
        if fam.capped:
            den = den + signal(p.a_n)
        if fam.takes_sic:
            den = den + p.varpi * rho * getattr(p, fam.residual) * zeta
        return signal(getattr(p, fam.share)) / (den + 1.0)


def derive(params: SystemParams) -> DerivedConstants:
    """Compute the derived constants for one operating point."""
    return DerivedConstants(
        params=params,
        omega_br=mean_channel_gain(params.d_br, params.alpha_p, params.beta0),
        omega_rn=mean_channel_gain(params.d_rn, params.alpha_p, params.beta0),
        omega_rf=mean_channel_gain(params.d_rf, params.alpha_p, params.beta0),
        omega_re=mean_channel_gain(params.d_re, params.alpha_p, params.beta0),
    )


def secrecy_threshold(params: SystemParams, rate: str, gamma_e):
    """2^R (1 + gamma_e) - 1, R the `rate` field: the outage threshold on the
    legitimate SINR against wiretap SINR gamma_e, in both engines."""
    return 2.0 ** getattr(params, rate) * (1.0 + gamma_e) - 1.0


# the residual-interference power of a ChannelDraw behind each residual gain
_RESIDUAL_DRAW = {"omega_ipu": "ip_user", "omega_ipe": "ip_eve"}


def _sinr(family: str, params: SystemParams, draw, sic: str):
    """The SinrFamily formula on exact per-draw gains, norms and residual powers;
    array-valued draw fields broadcast, so one call scores a batch of trials."""
    fam = SINR_FAMILIES[family]
    k2 = params.kappa**2
    gain = getattr(draw, "cascaded_gain_" + fam.receiver)
    # in-place updates of this call's own temporaries save block-sized allocations
    num = getattr(params, fam.share) * params.p_bs * k2 * gain
    den = k2 * params.sigma2_t * getattr(draw, "norm_" + fam.receiver)
    if fam.capped:
        den += params.a_n * params.p_bs * k2 * gain
    if fam.sic_for(sic) == "ipsic":
        den += params.varpi * params.p_bs * getattr(draw, _RESIDUAL_DRAW[fam.residual])
    den += getattr(params, fam.noise)
    num /= den
    return num


def sinr_user_n(params: SystemParams, draw, sic: str):
    """Exact SINR of the near user decoding its own stream after SIC."""
    return _sinr("user_n", params, draw, sic)


def sinr_user_f(params: SystemParams, draw):
    """Exact SINR of the far user; bounded above by a_f / a_n."""
    return _sinr("user_f", params, draw, "psic")


def sinr_eve_n(params: SystemParams, draw, sic: str):
    """Exact SINR of the external eavesdropper on the near user's stream."""
    return _sinr("eve_n", params, draw, sic)


def sinr_eve_f(params: SystemParams, draw):
    """Exact SINR of the external eavesdropper on the far user's stream."""
    return _sinr("eve_f", params, draw, "psic")


def sinr_internal_f_to_n(params: SystemParams, draw):
    """Exact SINR of the far user wiretapping the near user's stream (it knows its own)."""
    return _sinr("internal_f_to_n", params, draw, "psic")


def sinr(family: str, params: SystemParams, draw, sic: str):
    """Exact SINR of one family (a key of SINR_FAMILIES) over a batch of draws."""
    fam = SINR_FAMILIES[family]
    sic = fam.sic_for(sic)
    # looked up at call time, so a wrapper installed on the module sees each call
    fn = globals()["sinr_" + family]
    return fn(params, draw, sic) if fam.takes_sic else fn(params, draw)


def scenario_rate(params: SystemParams, scenario: str) -> float:
    """Target rate protected in the given scenario (r_n except for external_f).

    The system-level external event protects both streams at once, so its
    secured rate is the sum r_n + r_f.
    """
    return sum(getattr(params, rate) for _, _, rate in SCENARIOS[scenario])


@dataclass(frozen=True)
class SopEstimate:
    """A secrecy outage probability with provenance.

    value:      SOP in [0, 1] for the analytic and Monte Carlo routes; an
                asymptote evaluated outside its regime keeps its raw
                (possibly >1 or <0) value so the trend line stays plottable,
                and carries 'asymptote-regime-invalid'
    provenance: 'analytic', 'asymptotic' or 'monte-carlo'
    trials:     Monte Carlo trials behind the estimate (None for closed forms)
    stderr:     binomial standard error (None for closed forms)
    flags:      quality notes, e.g. 'clamp-drift', 'saturated', 'asymptote-regime-invalid'
    """

    value: float
    provenance: str
    trials: int | None = None
    stderr: float | None = None
    flags: tuple[str, ...] = ()
