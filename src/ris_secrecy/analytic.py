"""Closed-form secrecy outage probabilities, asymptotes and throughput.

The cascaded BS-RIS-receiver power is K-distributed; every CDF/PDF below is
that law at an SINR-dependent argument, with exponential residual-interference
power integrated out by Gauss-Laguerre quadrature.  Every SOP is one kernel:
the legitimate SINR CDF averaged over outage thresholds 2^R (1 + gamma_E) - 1,
where gamma_E is the eavesdropper's mean-field SINR.  The Monte Carlo engine
deliberately does not share that step, which is what the cross-engine
tolerances in the tests measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import SCENARIOS, SIC_MODES, SINR_FAMILIES, DerivedConstants, derive
from .specfun import QuadratureTable, gauss_laguerre, kdist_cdf, kdist_pdf, kdist_sf

__all__ = [
    "DegenerateCurveError",
    "SopEstimate",
    "UnsupportedScenarioError",
    "cdf_user_f",
    "cdf_user_n_ipsic",
    "cdf_user_n_psic",
    "default_table",
    "diversity_order",
    "pdf_eve_f",
    "pdf_eve_n_ipsic",
    "pdf_eve_n_psic",
    "pdf_internal_f_to_n",
    "secrecy_throughput",
    "sop",
    "sop_asymptotic",
    "sop_curve_fixed_eavesdropper",
    "sop_system_external",
    "sop_union",
]

DEFAULT_ORDER = 64

# relative drift beyond which clamping is flagged instead of silently applied
_CLAMP_TOL = 1e-9
# far-user saturation guard: treat c_f - x c_n below this (relative) as 0
_CEILING_GUARD = 1e-300


class UnsupportedScenarioError(ValueError):
    """No closed-form asymptote exists for the requested scenario."""


class DegenerateCurveError(ValueError):
    """Diversity slope undefined (too few points, zero SOP, or repeated abscissa)."""


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
    flags: tuple[str, ...] = field(default_factory=tuple)


_TABLES: dict[int, QuadratureTable] = {}


def default_table(order: int = DEFAULT_ORDER) -> QuadratureTable:
    """Cached Gauss-Laguerre table; order 64 unless the caller overrides."""
    table = _TABLES.get(order)
    if table is None:
        table = gauss_laguerre(order)
        _TABLES[order] = table
    return table


def _clamped(value: float, provenance: str, extra_flags: tuple[str, ...] = ()) -> SopEstimate:
    flags = tuple(extra_flags)
    if value < -_CLAMP_TOL or value > 1.0 + _CLAMP_TOL:
        flags = flags + ("clamp-drift",)
    return SopEstimate(value=float(min(max(value, 0.0), 1.0)), provenance=provenance, flags=flags)


def _dc(params_or_dc) -> DerivedConstants:
    if isinstance(params_or_dc, DerivedConstants):
        return params_or_dc
    return derive(params_or_dc)


def _scaled_arg(x, scale):
    # degenerate configs make scale = +inf while a zero threshold keeps x = 0;
    # the distribution argument is then 0, not 0 * inf
    x_arr = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        z = x_arr * scale
    return np.where(x_arr == 0.0, 0.0, z)


# ---------------------------------------------------------------------------
# the cascade law of every SINR family, and its CDF and density


def _far_stream(x, scale, dc: DerivedConstants):
    """Far-stream argument x * scale / (c_f - x c_n), its safe denominator and the
    mask of points at the NOMA ceiling a_f/a_n (argument 0, denominator 1 there).
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    denom = dc.c_f - x_arr * dc.c_n
    capped = denom <= _CEILING_GUARD * dc.c_f
    safe = np.where(capped, 1.0, denom)
    return np.where(capped, 0.0, _scaled_arg(x_arr, scale) / safe), safe, capped


def _law(dc: DerivedConstants, family: str, sic: str, x, table: QuadratureTable, scale=None):
    """Cascade argument z of one SINR family at the 1-D points x, the slope dz/dx
    and the mask of points at the NOMA ceiling.

    scale (default: the family's registry scale) is a DerivedConstants name or
    a value.  A residual-power scale is evaluated at the table nodes under
    ipSIC, which gives z a trailing quadrature axis, and at 0.0 under pSIC.
    """
    fam = SINR_FAMILIES[family]
    if scale is None or isinstance(scale, str):
        scale = getattr(dc, scale or fam.scale)
        if callable(scale):
            scale = scale(table.nodes if sic == "ipsic" else 0.0)
    if fam.capped:
        z, safe, capped = _far_stream(x, scale, dc)
        return z, scale * dc.c_f / (safe * safe), capped
    return _scaled_arg(x[:, None] if np.ndim(scale) else x, scale), scale, np.zeros(x.shape, bool)


def _cdf(dc: DerivedConstants, z, capped, table: QuadratureTable):
    """Unclipped CDF at the arguments of _law, averaged over a quadrature axis."""
    if z.ndim == 2:
        # accumulate outage mass, not survival: a zero argument stays exactly 0
        return kdist_cdf(dc.params.n_active, z) @ table.weights
    out = 1.0 - kdist_sf(dc.params.n_active, z)
    out[capped] = 1.0
    return out


def _pdf(dc: DerivedConstants, z, slope, capped, table: QuadratureTable):
    """Density at the arguments and slopes of _law, averaged over a quadrature axis."""
    # an infinite scale (unreachable receiver) sends x > 0 to z = inf, where
    # the density is 0, not inf * 0
    with np.errstate(invalid="ignore"):
        out = slope * kdist_pdf(dc.params.n_active, z)
    out = np.where(np.isinf(z), 0.0, out)
    if z.ndim == 2:
        out = out @ table.weights
    return np.where(capped, 0.0, out)


def _form(x, params, family: str, sic: str, table: QuadratureTable | None = None, *,
          density: bool = False):
    """CDF (clipped to [0, 1]) or density of one (family, SIC) law at scalar or array x."""
    dc = _dc(params)
    table = table or default_table()
    z, slope, capped = _law(dc, family, sic, np.asarray(x, dtype=float).ravel(), table)
    if density:
        out = _pdf(dc, z, slope, capped, table)
    else:
        out = np.clip(_cdf(dc, z, capped, table), 0.0, 1.0)
    return float(out[0]) if np.isscalar(x) else out.reshape(np.shape(x))


def cdf_user_n_ipsic(x, params, *, table: QuadratureTable | None = None):
    """CDF of the near user's SINR under imperfect SIC.

    The residual-interference power is exponential, so the conditional
    cascade CDF is averaged over a Gauss-Laguerre table (default order 64).
    Accepts scalar or array x >= 0.
    """
    return _form(x, params, "user_n", "ipsic", table)


def cdf_user_n_psic(x, params):
    """CDF of the near user's SINR under perfect SIC."""
    return _form(x, params, "user_n", "psic")


def cdf_user_f(x, params):
    """CDF of the far user's SINR; saturates to 1 at the NOMA ceiling a_f/a_n.

    Below the ceiling the argument x * xi_f / (c_f - x c_n) blows up as x
    approaches a_f/a_n; the guard hands those points the exact limit 1.
    """
    return _form(x, params, "user_f", "psic")


def pdf_eve_n_ipsic(x, params, *, table: QuadratureTable | None = None):
    """Density of the external eavesdropper's SINR on the near stream, ipSIC."""
    return _form(x, params, "eve_n", "ipsic", table, density=True)


def pdf_eve_n_psic(x, params):
    """Density of the external eavesdropper's SINR on the near stream, pSIC."""
    return _form(x, params, "eve_n", "psic", density=True)


def pdf_eve_f(x, params):
    """Density of the external eavesdropper's SINR on the far stream.

    Supported on (0, a_f/a_n); zero beyond the ceiling where the CDF has
    already saturated.
    """
    return _form(x, params, "eve_f", "psic", density=True)


def pdf_internal_f_to_n(x, params):
    """Density of the far user's wiretap SINR on the near stream."""
    return _form(x, params, "internal_f_to_n", "psic", density=True)


# ---------------------------------------------------------------------------
# secrecy outage probabilities: SOP = sum_k w_k F_legit(tau_k)

# scenario -> DerivedConstants method giving its mean-field outage threshold
_THRESHOLD = {"external_n": "eps_n2", "external_f": "eps_f", "internal": "eps_fn"}


def _thresholds(dc: DerivedConstants, scenario: str, sic: str, outer: QuadratureTable):
    """Outage thresholds tau_k = 2^R (1 + gamma_E) - 1 and their weights w_k.

    gamma_E is the eavesdropper's mean-field SINR: averaged over its residual
    interference (outer table) for external_n/ipSIC, a point mass otherwise.
    """
    if scenario not in _THRESHOLD:
        raise ValueError(f"no closed form for scenario {scenario!r}")
    if sic not in SIC_MODES:
        raise ValueError(f"sic must be one of {SIC_MODES}")
    if scenario == "external_n" and sic == "ipsic":
        return dc.eps_n1(outer.nodes), outer.weights
    return np.array([getattr(dc, _THRESHOLD[scenario])()]), np.ones(1)


# the cited internal/ipSIC closed form couples omega_ipe into the user branch
_LEGIT_SCALE = {("internal", "ipsic"): "xi_e5"}


def _outage(dc: DerivedConstants, scenario: str, sic: str, thresholds, inner, scale=None):
    """The outage kernel: the legitimate CDF averaged over the thresholds.

    scale overrides the legitimate family's argument scale.  Also returns
    whether every threshold sits at the NOMA ceiling (a certain event).
    """
    tau, w = thresholds
    scale = _LEGIT_SCALE.get((scenario, sic)) if scale is None else scale
    z, _, capped = _law(dc, SCENARIOS[scenario][0][0], sic, tau, inner, scale)
    return float(w @ _cdf(dc, z, capped, inner)), bool(np.all(capped))


def sop(params, scenario: str, sic: str, *, table: QuadratureTable | None = None) -> SopEstimate:
    """Closed-form secrecy outage of one scenario: the kernel value, clamped to [0, 1].

    external_n and external_f pit the near and far user against the external
    eavesdropper, internal the near user against the far user's wiretap.
    ipSIC couples two residual-interference integrals (eavesdropper and user),
    both over `table` (default order 64); a far-user threshold at the NOMA
    ceiling gives 1, 'saturated'.
    """
    dc = _dc(params)
    table = table or default_table()
    value, saturated = _outage(dc, scenario, sic, _thresholds(dc, scenario, sic, table), table)
    return _clamped(value, "analytic", ("saturated",) if saturated else ())


def sop_system_external(params, sic: str) -> SopEstimate:
    """System-level outage against the external eavesdropper: either user leaks.

    Composed as 1 - (1 - SOP_n)(1 - SOP_f), i.e. the union of the two
    per-user outage events treated as independent (the same independence
    the per-user closed forms already assume between the cascades).  This
    is the quantity whose power-split ordering the sweep checks exercise.
    """
    return sop_union(sop(params, "external_n", sic), sop(params, "external_f", sic))


def sop_union(est_n: SopEstimate, est_f: SopEstimate) -> SopEstimate:
    """1 - (1 - SOP_n)(1 - SOP_f), carrying the flags of both in first-seen order."""
    value = 1.0 - (1.0 - est_n.value) * (1.0 - est_f.value)
    return _clamped(value, "analytic", tuple(dict.fromkeys(est_n.flags + est_f.flags)))


# ---------------------------------------------------------------------------
# high-budget asymptotes


def _small_arg_asymptote(u: float, n_active: int) -> tuple[float, tuple[str, ...]]:
    # leading term of the cascade CDF near 0: -u ln u (q = 1), u/(q-1) otherwise
    flags = () if u < 0.1 else ("asymptote-regime-invalid",)
    if n_active == 1:
        return (-u * math.log(u) if u > 0.0 else 0.0), flags
    return u / (n_active - 1.0), flags


def sop_asymptotic(params, scenario: str, sic: str) -> SopEstimate:
    """High-budget SOP asymptote on the kernel's thresholds and arguments.

    external_n + ipsic:  residual-interference error floor (the kernel with
                         the user-side scale cut to its residual term)
    external_n + psic:   -u ln u (single active element) or u/(Q-1) at the
                         legitimate argument u of the threshold
    external_f:          same small-argument forms on the far-user argument
    internal + psic:     same forms on the wiretap argument
    internal + ipsic:    no closed-form asymptote exists; raises
    The single-element logarithmic forms turn negative outside the
    asymptotic regime, so estimates carry a validity flag requiring the
    argument to sit below 0.1.
    """
    if scenario == "internal" and sic == "ipsic":
        raise UnsupportedScenarioError(
            "internal + ipsic has no closed-form asymptote (the residual floor "
            "couples both quadratures); evaluate sop directly"
        )
    dc = _dc(params)
    table = default_table()
    thresholds = _thresholds(dc, scenario, sic, table)
    if scenario == "external_n" and sic == "ipsic":
        p = dc.params
        floor_scale = p.omega_ipu / (p.a_n * p.kappa**2 * dc.omega_br * dc.omega_rn)
        value, _ = _outage(dc, scenario, sic, thresholds, table, floor_scale * table.nodes)
        return _clamped(value, "asymptotic")
    u, _, capped = _law(dc, SCENARIOS[scenario][0][0], sic, thresholds[0], table)
    if capped[0]:
        return SopEstimate(1.0, "asymptotic", flags=("saturated",))
    value, flags = _small_arg_asymptote(float(u[0]), dc.params.n_active)
    return SopEstimate(float(value), "asymptotic", flags=flags)


def sop_curve_fixed_eavesdropper(params, scenario: str, sic: str, p_bs_values) -> np.ndarray:
    """Closed-form SOP along a transmit-power sweep with frozen wiretap thresholds.

    Diversity analysis scales the legitimate link while holding the
    eavesdropper's receive SNR at the operating point given by params;
    otherwise both links improve together and the outage event saturates
    instead of decaying.  The kernel takes its thresholds from params and
    its legitimate CDF from each p_bs; returns one SOP per p_bs value.
    """
    table = default_table()
    thresholds = _thresholds(_dc(params), scenario, sic, table)
    out = np.empty(len(p_bs_values), dtype=float)
    for i, p_bs in enumerate(p_bs_values):
        dc = derive(replace(params, p_bs=float(p_bs)))
        out[i], _ = _outage(dc, scenario, sic, thresholds, table)
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# derived metrics


def diversity_order(curve) -> float:
    """Negative log-log slope through the two highest-power points of a curve.

    curve: sequence of (rho, sop) pairs, rho ascending.  Raises
    DegenerateCurveError when fewer than two points are given, when either
    SOP is nonpositive (already below double precision: no slope left to
    measure), or when the two abscissas coincide.
    """
    pts = [(float(r), float(s)) for r, s in curve]
    if len(pts) < 2:
        raise DegenerateCurveError("need at least two (rho, sop) points")
    (r1, s1), (r2, s2) = pts[-2], pts[-1]
    if r1 <= 0.0 or r2 <= 0.0 or r1 == r2:
        raise DegenerateCurveError("abscissas must be positive and distinct")
    if s1 <= 0.0 or s2 <= 0.0:
        raise DegenerateCurveError("SOP reached zero; slope undefined")
    return -(math.log(s2) - math.log(s1)) / (math.log(r2) - math.log(r1))


def secrecy_throughput(sop_value: float, rate: float) -> float:
    """Effective secrecy throughput (1 - SOP) * rate, in bits per channel use."""
    if not 0.0 <= sop_value <= 1.0:
        raise ValueError("sop_value must lie in [0, 1]")
    if rate < 0.0:
        raise ValueError("rate must be nonnegative")
    return (1.0 - sop_value) * rate
