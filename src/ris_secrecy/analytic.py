"""Closed-form secrecy outage probabilities, asymptotes and throughput.

The cascaded BS-RIS-receiver power is K-distributed; every CDF/PDF below is
that law at an SINR-dependent argument, with exponential residual-interference
power integrated out by Gauss-Laguerre quadrature.  Every SOP is one kernel:
the legitimate SINR CDF averaged over outage thresholds 2^R (1 + gamma_E) - 1,
where gamma_E is the eavesdropper's mean-field SINR.  Monte Carlo shares the
threshold (model.secrecy_threshold) but deliberately not that mean-field step,
which is what the cross-engine tolerances in the tests measure.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .model import (SCENARIOS, SINR_FAMILIES, DerivedConstants, SinrFamily, SopEstimate, derive,
                    secrecy_threshold)
# kdist_sf is unused here; it stays only because perfbench/spans.py wraps it by this name
from .specfun import QuadratureTable, gauss_laguerre, kdist_cdf, kdist_pdf, kdist_sf

__all__ = [
    "DegenerateCurveError",
    "UnsupportedScenarioError",
    "default_table",
    "diversity_order",
    "law",
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
    """Diversity slope undefined (too few or non-finite points, zero SOP, or repeated abscissa)."""


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


# ---------------------------------------------------------------------------
# the cascade law of every SINR family, and its CDF and density


def _cascade(dc: DerivedConstants, fam: SinrFamily, sic: str, x, table: QuadratureTable,
             scale=None, *, density: bool = False):
    """Cascade argument z of one SINR_FAMILIES row at the 1-D points x, the slope
    dz/dx (None unless density) and the mask of points at the NOMA ceiling a_f/a_n.

    scale defaults to dc.scale of the row, at the table nodes where the row reads
    ipSIC (z then has a trailing quadrature axis), else at 0.0.  A capped row's
    argument x * scale / (c_f - x c_n), c_x = a_x p_bs kappa^2, reads 0 at the ceiling.
    """
    if scale is None:
        scale = dc.scale(fam, table.nodes if fam.sic_for(sic) == "ipsic" else 0.0)
    xs = x[:, None] if np.ndim(scale) else x
    # degenerate configs make scale = +inf while a zero threshold keeps x = 0;
    # the distribution argument is then 0, not 0 * inf
    with np.errstate(invalid="ignore"):
        z = np.where(xs == 0.0, 0.0, xs * scale)
    if not fam.capped:
        return z, scale, np.zeros(x.shape, bool)
    p = dc.params
    c_n, c_f = p.a_n * p.p_bs * p.kappa**2, p.a_f * p.p_bs * p.kappa**2
    denom = c_f - x * c_n
    capped = denom <= _CEILING_GUARD * c_f
    safe = np.where(capped, 1.0, denom)
    # the slope overflows at a large accepted kappa, where the CDF is still finite
    return np.where(capped, 0.0, z / safe), scale * c_f / (safe * safe) if density else None, capped


def _average(terms, weights):
    """Quadrature average over the last axis; 1.0 where all terms are, whatever the weight round-off."""
    return np.where(np.all(terms == 1.0, axis=-1), 1.0, terms @ weights)


def _cdf(dc: DerivedConstants, z, capped, table: QuadratureTable):
    """Unclipped CDF at the arguments of _cascade, averaged over a quadrature axis;
    exactly 1 at the NOMA ceiling."""
    # outage mass, not 1 - survival: it keeps its relative accuracy in the tail
    out = kdist_cdf(dc.params.n_active, z)
    return np.where(capped, 1.0, _average(out, table.weights) if z.ndim == 2 else out)


def _pdf(dc: DerivedConstants, z, slope, capped, table: QuadratureTable):
    """Density at the arguments and slopes of _cascade, averaged over a quadrature axis."""
    # an infinite scale (unreachable receiver) sends x > 0 to z = inf, where
    # the density is 0, not inf * 0
    with np.errstate(invalid="ignore"):
        out = slope * kdist_pdf(dc.params.n_active, z)
    out = np.where(np.isinf(z), 0.0, out)
    if z.ndim == 2:
        out = out @ table.weights
    return np.where(capped, 0.0, out)


def law(x, params, family: str, sic: str, *, density: bool = False):
    """CDF (clipped to [0, 1]) or density of a SINR_FAMILIES key's SINR under `sic`
    at scalar or array x >= 0 for the SystemParams params.

    Where the family takes SIC, ipSIC averages the conditional cascade law over
    the exponential residual power on the default order-64 Gauss-Laguerre table.
    The far-stream families saturate at the NOMA ceiling a_f/a_n: from there on
    the CDF is exactly 1 and the density exactly 0.
    """
    dc, table = derive(params), default_table()
    z, slope, capped = _cascade(dc, SINR_FAMILIES[family], sic, np.asarray(x, dtype=float).ravel(),
                                table, density=density)
    if density:
        out = _pdf(dc, z, slope, capped, table)
    else:
        out = np.clip(_cdf(dc, z, capped, table), 0.0, 1.0)
    return float(out[0]) if np.isscalar(x) else out.reshape(np.shape(x))


# ---------------------------------------------------------------------------
# secrecy outage probabilities: SOP = sum_k w_k F_legit(tau_k)

def _thresholds(dc: DerivedConstants, scenario: str, sic: str, outer: QuadratureTable):
    """Outage thresholds tau_k = 2^R (1 + gamma_E) - 1 and their weights w_k.

    gamma_E is the wiretap family's mean-field SINR (dc.mean_sinr): averaged
    over its residual interference (outer table) when it takes SIC under
    ipSIC, a point mass otherwise.
    """
    events = SCENARIOS.get(scenario, ())
    if len(events) != 1:
        raise ValueError(f"scenario {scenario!r} has no single-event closed form"
                         + ("; sop_system_external composes the union" if events else ""))
    (_, wiretap, rate), = events
    fam = SINR_FAMILIES[wiretap]
    zeta, w = (outer.nodes, outer.weights) if fam.sic_for(sic) == "ipsic" else (0.0, np.ones(1))
    return np.atleast_1d(secrecy_threshold(dc.params, rate, dc.mean_sinr(fam, zeta))), w


# legitimate-family residual-gain overrides: the cited internal/ipSIC closed
# form couples omega_ipe into the user branch
_LEGIT_SCALE = {("internal", "ipsic"): "omega_ipe"}


def _outage(dc: DerivedConstants, scenario: str, sic: str, thresholds, inner, scale=None):
    """The outage kernel: the legitimate CDF averaged over the thresholds.

    scale overrides the legitimate family's argument scale.  Also returns
    whether every threshold sits at the NOMA ceiling (a certain event).
    """
    tau, w = thresholds
    fam = SINR_FAMILIES[SCENARIOS[scenario][0][0]]
    if (scenario, sic) in _LEGIT_SCALE:
        fam = fam._replace(residual=_LEGIT_SCALE[scenario, sic])
    z, _, capped = _cascade(dc, fam, sic, tau, inner, scale)
    return float(_average(_cdf(dc, z, capped, inner), w)), bool(np.all(capped))


def sop(params, scenario: str, sic: str, *, table: QuadratureTable | None = None) -> SopEstimate:
    """Closed-form secrecy outage of one scenario: the kernel value, clamped to [0, 1].

    external_n and external_f pit the near and far user against the external
    eavesdropper, internal the near user against the far user's wiretap.
    ipSIC couples two residual-interference integrals (eavesdropper and user),
    both over `table` (default order 64); a far-user threshold at the NOMA
    ceiling gives 1, 'saturated'.
    """
    dc = derive(params)
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
    dc, table = derive(params), default_table()
    thresholds = _thresholds(dc, scenario, sic, table)
    if scenario == "external_n" and sic == "ipsic":
        p = dc.params
        den = p.a_n * p.kappa**2 * dc.omega_br * dc.omega_rn
        # no near-user signal (a_n = 0, an unreachable hop): the floor is outage
        floor_scale = p.omega_ipu / den if den > 0.0 else math.inf
        value, _ = _outage(dc, scenario, sic, thresholds, table, floor_scale * table.nodes)
        return _clamped(value, "asymptotic")
    u, _, capped = _cascade(dc, SINR_FAMILIES[SCENARIOS[scenario][0][0]], sic, thresholds[0], table)
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
    thresholds = _thresholds(derive(params), scenario, sic, table)
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
    DegenerateCurveError when fewer than two points are given, when any rho
    or SOP is not finite, when either SOP is nonpositive (already below double
    precision: no slope left to measure), or when the two abscissas coincide.
    """
    pts = [(float(r), float(s)) for r, s in curve]
    if len(pts) < 2:
        raise DegenerateCurveError("need at least two (rho, sop) points")
    if not all(math.isfinite(v) for pt in pts for v in pt):
        raise DegenerateCurveError("every rho and SOP must be finite")
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
    if not 0.0 <= rate < math.inf:
        raise ValueError("rate must be finite and nonnegative")
    return (1.0 - sop_value) * rate
