"""Closed-form secrecy outage probabilities, asymptotes and throughput.

The cascaded BS-RIS-receiver power is K-distributed; every CDF/PDF below is
that law evaluated at an SINR-dependent argument, with exponentially
distributed residual-interference power integrated out by Gauss-Laguerre
quadrature.  Outage thresholds replace the eavesdropper's SINR by its
mean-field value; the Monte Carlo engine deliberately does not share that
step, which is what the cross-engine tolerances in the tests measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import DerivedConstants, derive, scenario_rate
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
    "scenario_rate",
    "secrecy_throughput",
    "sop",
    "sop_asymptotic",
    "sop_curve_fixed_eavesdropper",
    "sop_external_f",
    "sop_external_n",
    "sop_internal",
    "sop_system_external",
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
# legitimate-user CDFs


def cdf_user_n_ipsic(x, params, *, table: QuadratureTable | None = None):
    """CDF of the near user's SINR under imperfect SIC.

    The residual-interference power is exponential, so the conditional
    cascade CDF is averaged over a Gauss-Laguerre table (default order 64).
    Accepts scalar or array x >= 0.
    """
    dc = _dc(params)
    table = table or default_table()
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    scales = dc.xi_n(table.nodes)  # (D,)
    z = _scaled_arg(x_arr[..., None], scales)  # (..., D)
    # accumulate outage mass, not survival: a zero argument stays exactly 0
    out = kdist_cdf(dc.params.n_active, z) @ table.weights
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if np.isscalar(x) else out.reshape(np.shape(x))


def cdf_user_n_psic(x, params):
    """CDF of the near user's SINR under perfect SIC."""
    dc = _dc(params)
    z = _scaled_arg(x, dc.xi_n(0.0))
    out = np.clip(1.0 - kdist_sf(dc.params.n_active, z), 0.0, 1.0)
    return float(out) if np.isscalar(x) else out


def cdf_user_f(x, params):
    """CDF of the far user's SINR; saturates to 1 at the NOMA ceiling a_f/a_n.

    Below the ceiling the argument x * xi_f / (c_f - x c_n) blows up as x
    approaches a_f/a_n; the guard hands those points the exact limit 1.
    """
    dc = _dc(params)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    denom = dc.c_f - x_arr * dc.c_n
    capped = denom <= _CEILING_GUARD * dc.c_f
    z = np.where(capped, 1.0, _scaled_arg(x_arr, dc.xi_f) / np.where(capped, 1.0, denom))
    out = 1.0 - kdist_sf(dc.params.n_active, z)
    out[capped] = 1.0
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if np.isscalar(x) else out.reshape(np.shape(x))


# ---------------------------------------------------------------------------
# eavesdropper PDFs (and the matching CDFs, used by the validator)


def _cdf_eve_n_ipsic(x, dc: DerivedConstants, table: QuadratureTable):
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    z = _scaled_arg(x_arr[..., None], dc.xi_e1(table.nodes))
    return np.clip(kdist_cdf(dc.params.n_active, z) @ table.weights, 0.0, 1.0)


def _cdf_eve_n_psic(x, dc: DerivedConstants):
    return kdist_cdf(dc.params.n_active, _scaled_arg(x, dc.xi_e2))


def _cdf_eve_f(x, dc: DerivedConstants):
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    denom = dc.c_f - x_arr * dc.c_n
    capped = denom <= _CEILING_GUARD * dc.c_f
    z = np.where(capped, 1.0, _scaled_arg(x_arr, dc.xi_e3) / np.where(capped, 1.0, denom))
    out = kdist_cdf(dc.params.n_active, z)
    out[capped] = 1.0
    return out


def _cdf_internal_f_to_n(x, dc: DerivedConstants):
    return kdist_cdf(dc.params.n_active, _scaled_arg(x, dc.xi_e4))


def pdf_eve_n_ipsic(x, params, *, table: QuadratureTable | None = None):
    """Density of the external eavesdropper's SINR on the near stream, ipSIC."""
    dc = _dc(params)
    table = table or default_table()
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    scales = dc.xi_e1(table.nodes)
    z = x_arr[..., None] * scales
    out = (kdist_pdf(dc.params.n_active, z) * scales) @ table.weights
    return float(out[0]) if np.isscalar(x) else out.reshape(np.shape(x))


def pdf_eve_n_psic(x, params):
    """Density of the external eavesdropper's SINR on the near stream, pSIC."""
    dc = _dc(params)
    x_arr = np.asarray(x, dtype=float)
    out = dc.xi_e2 * kdist_pdf(dc.params.n_active, x_arr * dc.xi_e2)
    return float(out) if np.isscalar(x) else out


def pdf_eve_f(x, params):
    """Density of the external eavesdropper's SINR on the far stream.

    Supported on (0, a_f/a_n); zero beyond the ceiling where the CDF has
    already saturated.
    """
    dc = _dc(params)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    denom = dc.c_f - x_arr * dc.c_n
    inside = denom > _CEILING_GUARD * dc.c_f
    safe = np.where(inside, denom, 1.0)
    z = x_arr * dc.xi_e3 / safe
    dz = dc.xi_e3 * dc.c_f / (safe * safe)  # d/dx of the argument map
    out = np.where(inside, dz * kdist_pdf(dc.params.n_active, np.where(inside, z, 0.0)), 0.0)
    return float(out[0]) if np.isscalar(x) else out.reshape(np.shape(x))


def pdf_internal_f_to_n(x, params):
    """Density of the far user's wiretap SINR on the near stream."""
    dc = _dc(params)
    x_arr = np.asarray(x, dtype=float)
    out = dc.xi_e4 * kdist_pdf(dc.params.n_active, x_arr * dc.xi_e4)
    return float(out) if np.isscalar(x) else out


# ---------------------------------------------------------------------------
# secrecy outage probabilities


def _sop_external_n_ipsic_value(
    dc: DerivedConstants, outer: QuadratureTable, inner: QuadratureTable, eps_dc: DerivedConstants
) -> float:
    # outer nodes: eavesdropper residual; inner nodes: user residual
    eps = eps_dc.eps_n1(outer.nodes)  # (S,)
    scales = dc.xi_n(inner.nodes)  # (D,)
    z = _scaled_arg(eps[:, None], scales)  # (S, D)
    outage = kdist_cdf(dc.params.n_active, z) @ inner.weights
    return float(outer.weights @ outage)


def sop_external_n(
    params,
    sic: str,
    *,
    outer_table: QuadratureTable | None = None,
    inner_table: QuadratureTable | None = None,
) -> SopEstimate:
    """Secrecy outage of the near user against the external eavesdropper.

    ipSIC couples two independent residual-interference integrals (one at
    the user, one at the eavesdropper), hence the double quadrature; pSIC
    collapses to a single cascade-CDF evaluation.
    """
    dc = _dc(params)
    if sic == "ipsic":
        outer = outer_table or default_table()
        inner = inner_table or default_table()
        return _clamped(_sop_external_n_ipsic_value(dc, outer, inner, dc), "analytic")
    if sic == "psic":
        z = float(_scaled_arg(dc.eps_n2(), dc.xi_n(0.0)))
        return _clamped(1.0 - kdist_sf(dc.params.n_active, z), "analytic")
    raise ValueError("sic must be 'ipsic' or 'psic'")


def sop_external_f(params) -> SopEstimate:
    """Secrecy outage of the far user against the external eavesdropper.

    Residual interference never enters (neither side runs SIC for this
    stream).  When the outage threshold reaches the NOMA ceiling the event
    is certain and the value 1 is returned with a 'saturated' flag.
    """
    dc = _dc(params)
    eps = dc.eps_f()
    denom = dc.c_f - eps * dc.c_n
    if denom <= _CEILING_GUARD * dc.c_f:
        return SopEstimate(1.0, "analytic", flags=("saturated",))
    z = float(_scaled_arg(eps, dc.xi_f)) / denom
    return _clamped(1.0 - kdist_sf(dc.params.n_active, z), "analytic")


def sop_internal(
    params, sic: str, *, table: QuadratureTable | None = None
) -> SopEstimate:
    """Secrecy outage of the near user against the far user's wiretap."""
    dc = _dc(params)
    eps = dc.eps_fn()
    if sic == "ipsic":
        table = table or default_table()
        z = _scaled_arg(eps, dc.xi_e5(table.nodes))
        outage = kdist_cdf(dc.params.n_active, z) @ table.weights
        return _clamped(float(outage), "analytic")
    if sic == "psic":
        z = float(_scaled_arg(eps, dc.xi_n(0.0)))
        return _clamped(1.0 - kdist_sf(dc.params.n_active, z), "analytic")
    raise ValueError("sic must be 'ipsic' or 'psic'")


def sop(params, scenario: str, sic: str, **tables) -> SopEstimate:
    """Dispatch to the scenario-specific closed form."""
    if scenario == "external_n":
        return sop_external_n(params, sic, **tables)
    if scenario == "external_f":
        return sop_external_f(params)
    if scenario == "internal":
        return sop_internal(params, sic, **tables)
    raise ValueError(f"no closed form for scenario {scenario!r}")


def sop_system_external(params, sic: str) -> SopEstimate:
    """System-level outage against the external eavesdropper: either user leaks.

    Composed as 1 - (1 - SOP_n)(1 - SOP_f), i.e. the union of the two
    per-user outage events treated as independent (the same independence
    the per-user closed forms already assume between the cascades).  This
    is the quantity whose power-split ordering the sweep checks exercise.
    """
    est_n = sop_external_n(params, sic)
    est_f = sop_external_f(params)
    value = 1.0 - (1.0 - est_n.value) * (1.0 - est_f.value)
    return _clamped(value, "analytic", extra_flags=tuple(set(est_n.flags) | set(est_f.flags)))


# ---------------------------------------------------------------------------
# high-budget asymptotes


def _small_arg_asymptote(u: float, n_active: int) -> tuple[float, tuple[str, ...]]:
    # leading term of the cascade CDF near 0: -u ln u (q = 1), u/(q-1) otherwise
    flags = () if u < 0.1 else ("asymptote-regime-invalid",)
    if n_active == 1:
        return (-u * math.log(u) if u > 0.0 else 0.0), flags
    return u / (n_active - 1.0), flags


def sop_asymptotic(
    params,
    scenario: str,
    sic: str | None = None,
    *,
    outer_table: QuadratureTable | None = None,
    inner_table: QuadratureTable | None = None,
) -> SopEstimate:
    """High-budget SOP asymptote for the supported scenario/SIC combinations.

    external_n + ipsic:  residual-interference error floor (double quadrature)
    external_n + psic:   -u ln u (single active element) or u/(Q-1)
    external_f:          same small-argument forms on the far-user argument
    internal + psic:     same forms on the wiretap argument
    internal + ipsic:    no closed-form asymptote exists; raises
    The single-element logarithmic forms turn negative outside the
    asymptotic regime, so estimates carry a validity flag requiring the
    argument to sit below 0.1.
    """
    dc = _dc(params)
    q = dc.params.n_active
    if scenario == "external_n":
        if sic == "ipsic":
            outer = outer_table or default_table()
            inner = inner_table or default_table()
            eps = dc.eps_n1(outer.nodes)
            p = dc.params
            floor_scale = p.omega_ipu / (p.a_n * p.kappa**2 * dc.omega_br * dc.omega_rn)
            z = _scaled_arg(eps[:, None], floor_scale * inner.nodes)
            outage = kdist_cdf(q, z) @ inner.weights
            return _clamped(float(outer.weights @ outage), "asymptotic")
        if sic == "psic":
            u = float(_scaled_arg(dc.eps_n2(), dc.xi_n(0.0)))
            value, flags = _small_arg_asymptote(u, q)
            return SopEstimate(float(value), "asymptotic", flags=flags)
        raise ValueError("sic must be 'ipsic' or 'psic' for external_n")
    if scenario == "external_f":
        eps = dc.eps_f()
        denom = dc.c_f - dc.c_n * eps
        if denom <= _CEILING_GUARD * dc.c_f:
            return SopEstimate(1.0, "asymptotic", flags=("saturated",))
        w = dc.xi_f * eps / denom
        value, flags = _small_arg_asymptote(w, q)
        return SopEstimate(float(value), "asymptotic", flags=flags)
    if scenario == "internal":
        if sic == "psic":
            u = float(_scaled_arg(dc.eps_fn(), dc.xi_n(0.0)))
            value, flags = _small_arg_asymptote(u, q)
            return SopEstimate(float(value), "asymptotic", flags=flags)
        raise UnsupportedScenarioError(
            "internal + ipsic has no closed-form asymptote (the residual floor "
            "couples both quadratures); evaluate sop_internal directly"
        )
    raise ValueError(f"no closed-form asymptote for scenario {scenario!r}")


def sop_curve_fixed_eavesdropper(params, scenario: str, sic: str, p_bs_values) -> np.ndarray:
    """Closed-form SOP along a transmit-power sweep with frozen wiretap thresholds.

    Diversity analysis scales the legitimate link while holding the
    eavesdropper's receive SNR at the operating point given by params;
    otherwise both links improve together and the outage event saturates
    instead of decaying.  Returns one SOP per p_bs value.
    """
    base = _dc(params)
    outer = default_table()
    inner = default_table()
    out = np.empty(len(p_bs_values), dtype=float)
    for i, p_bs in enumerate(p_bs_values):
        dc = derive(replace(params, p_bs=float(p_bs)))
        q = dc.params.n_active
        if scenario == "external_n" and sic == "ipsic":
            out[i] = _sop_external_n_ipsic_value(dc, outer, inner, base)
        elif scenario == "external_n" and sic == "psic":
            z = base.eps_n2() * dc.v_n / (dc.c_n * dc.omega_br * dc.omega_rn)
            out[i] = 1.0 - kdist_sf(q, z)
        elif scenario == "external_f":
            eps = base.eps_f()
            denom = dc.c_f - eps * dc.c_n
            if denom <= _CEILING_GUARD * dc.c_f:
                out[i] = 1.0
            else:
                out[i] = 1.0 - kdist_sf(q, eps * dc.xi_f / denom)
        elif scenario == "internal" and sic == "psic":
            z = base.eps_fn() * dc.v_n / (dc.c_n * dc.omega_br * dc.omega_rn)
            out[i] = 1.0 - kdist_sf(q, z)
        elif scenario == "internal" and sic == "ipsic":
            eps = base.eps_fn()
            z = _scaled_arg(eps, dc.xi_e5(inner.nodes))
            out[i] = float(kdist_cdf(q, z) @ inner.weights)
        else:
            raise ValueError(f"unsupported scenario/sic: {scenario}/{sic}")
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
