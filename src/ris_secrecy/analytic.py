"""Closed-form secrecy outage probabilities, asymptotes and throughput.

The cascaded BS-RIS-receiver power is K-distributed; every CDF below is
that law at an SINR-dependent argument, with exponential residual-interference
power integrated out by Gauss-Laguerre quadrature.  Every SOP is one kernel:
the legitimate SINR CDF averaged over outage thresholds 2^R (1 + gamma_E) - 1,
where gamma_E is the eavesdropper's mean-field SINR.  Monte Carlo shares the
threshold (model.secrecy_threshold) but deliberately not that mean-field step,
which is what the cross-engine tolerances in the tests measure.

One kdist_cdf call serves a distinct law (model.LAW_FIELDS): the sweep executor
plans all of its closed-form cells into one CascadeBatch, validate plans its CDF
check points (CascadeBatch.probe) beside them, and a bare sop or law is a
one-cell batch.  Only sop takes a union of events, built from their kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from .model import (SCENARIOS, SINR_FAMILIES, DerivedConstants, SinrFamily, SopEstimate, derive,
                    secrecy_threshold)
# kdist_pdf and kdist_sf are unused here; they stay only because perfbench/spans.py wraps them
from .specfun import QuadratureTable, gauss_laguerre, kdist_cdf, kdist_pdf, kdist_quantile, kdist_sf

__all__ = [
    "CascadeBatch",
    "DegenerateCurveError",
    "UnsupportedScenarioError",
    "default_table",
    "diversity_order",
    "law",
    "law_points",
    "secrecy_throughput",
    "sop",
    "sop_asymptotic",
    "sop_curve_fixed_eavesdropper",
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


@functools.cache
def default_table(order: int = DEFAULT_ORDER) -> QuadratureTable:
    """Cached Gauss-Laguerre table; order 64 unless the caller overrides."""
    return gauss_laguerre(order)


def _clamped(value: float, provenance: str, extra_flags: tuple[str, ...] = ()) -> SopEstimate:
    flags = tuple(extra_flags)
    if value < -_CLAMP_TOL or value > 1.0 + _CLAMP_TOL:
        flags = flags + ("clamp-drift",)
    return SopEstimate(value=float(min(max(value, 0.0), 1.0)), provenance=provenance, flags=flags)


# ---------------------------------------------------------------------------
# the cascade law of every SINR family, and its CDF


def _cascade(dc: DerivedConstants, fam: SinrFamily, sic: str, x, table: QuadratureTable, scale=None):
    """Cascade argument z of one SINR_FAMILIES row at the 1-D points x, and the mask
    of points at the NOMA ceiling a_f/a_n.

    scale defaults to dc.scale of the row, at the table nodes where the row reads
    ipSIC (z then has a trailing quadrature axis), else at 0.0.  A capped row's
    argument x * scale / (c_f - x c_n), c_x = a_x p_bs kappa^2, reads 0 at the ceiling.
    """
    if scale is None:
        scale = dc.scale(fam, table.nodes if fam.sic_for(sic) == "ipsic" else 0.0)
    xs = x[:, None] if np.ndim(scale) else x
    if np.isfinite(scale).all():  # x * scale is then exactly 0 at x = 0
        z = xs * scale
    else:
        # degenerate configs make scale = +inf while a zero threshold keeps x = 0;
        # the distribution argument is then 0, not 0 * inf
        with np.errstate(invalid="ignore"):
            z = np.where(xs == 0.0, 0.0, xs * scale)
    if not fam.capped:
        return z, np.zeros(x.shape, bool)
    p = dc.params
    c_n, c_f = p.a_n * p.p_bs * p.kappa**2, p.a_f * p.p_bs * p.kappa**2
    denom = c_f - x * c_n
    capped = denom <= _CEILING_GUARD * c_f
    return np.where(capped, 0.0, z / np.where(capped, 1.0, denom)), capped


def law(x, params, family: str, sic: str):
    """CDF, clipped to [0, 1], of a SINR_FAMILIES key's SINR under `sic` at scalar
    or array x >= 0 for the SystemParams params: a one-probe CascadeBatch read.

    Where the family takes SIC, ipSIC averages the conditional cascade CDF over
    the exponential residual power on the default order-64 Gauss-Laguerre table.
    The far-stream families saturate at the NOMA ceiling a_f/a_n: from there on
    the CDF is exactly 1.
    """
    batch, x = CascadeBatch(params), np.asarray(x, dtype=float)
    out = batch.cdf(batch.probe(family, sic, x.ravel()))
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def law_points(params, family: str, sic: str, probs) -> np.ndarray:
    """Points x at which law(x, params, family, sic) reads each p of probs, 0 < p < 1:
    the kdist_quantile cascade quantiles z mapped back through the family's argument,
    x = z / scale, or z c_f / (scale + z c_n) for a capped row (as in _cascade).  Where
    the family reads ipSIC the scale is taken at the mean residual power (zeta = 1), so
    law reads near p there; an unreachable receiver (infinite scale) gives points of 0."""
    dc, fam, p = derive(params), SINR_FAMILIES[family], params
    scale = dc.scale(fam, 1.0 if fam.sic_for(sic) == "ipsic" else 0.0)
    z = kdist_quantile(p.n_active, np.asarray(probs, dtype=float))
    if not fam.capped:
        return z / scale
    c_n, c_f = p.a_n * p.p_bs * p.kappa**2, p.a_f * p.p_bs * p.kappa**2
    return z * c_f / (scale + z * c_n)


# ---------------------------------------------------------------------------
# secrecy outage probabilities: SOP = sum_k w_k F_legit(tau_k)

def _thresholds(dc: DerivedConstants, event: tuple, sic: str, outer: QuadratureTable):
    """Outage thresholds tau_k = 2^R (1 + gamma_E) - 1 and weights w_k of one SCENARIOS
    event (legit, wiretap, rate): gamma_E is the wiretap family's mean-field SINR
    (dc.mean_sinr), averaged over its residual interference (outer table) when it
    takes SIC under ipSIC, a point mass otherwise."""
    _, wiretap, rate = event
    fam = SINR_FAMILIES[wiretap]
    zeta, w = (outer.nodes, outer.weights) if fam.sic_for(sic) == "ipsic" else (0.0, np.ones(1))
    return np.atleast_1d(secrecy_threshold(dc.params, rate, dc.mean_sinr(fam, zeta))), w


# legitimate-family residual-gain overrides by (wiretap family, SIC mode): the
# cited internal/ipSIC closed form couples omega_ipe into the user branch
_LEGIT_SCALE = {("internal_f_to_n", "ipsic"): "omega_ipe"}


class CascadeBatch:
    """Outage kernels of closed-form cells, and CDF probes of SINR families, at one
    operating point and table.  Each is a slot, an index into args: per slot the cascade
    argument, its ceiling mask and the threshold weights (None for a probe).  The first
    read of a slot evaluates every argument planned so far with one kdist_cdf call,
    element-wise exact, so no value depends on its neighbours: a cell, a probe and law
    alike."""

    def __init__(self, params, table: QuadratureTable | None = None):
        self.dc, self.table = derive(params), table or default_table()
        self.args, self._cdfs, self._plans, self._outages = [], [], {}, {}

    def plan(self, scenario: str, sic: str, engine: str = "analytic") -> list[int]:
        """A cell's kernel slots, memoized per (event, SIC, engine): one per event for
        'analytic'; for 'asymptotic' the floor sop_asymptotic reads, if any."""
        events = SCENARIOS[scenario]
        if engine == "asymptotic" and (len(events) > 1 or (events[0][1], sic) in _LEGIT_SCALE
                                       or SINR_FAMILIES[events[0][0]].sic_for(sic) != "ipsic"):
            return []
        dc, table = self.dc, self.table
        for event in events:
            if (event, sic, engine) in self._plans:
                continue
            scale = None
            if engine == "asymptotic":
                p, fam = dc.params, SINR_FAMILIES[event[0]]
                den = getattr(p, fam.share) * p.kappa**2 * dc.omega_br * getattr(dc, "omega_r" + fam.receiver)
                # no legitimate signal (a zero share, an unreachable hop): the floor is outage
                scale = (getattr(p, fam.residual) / den if den > 0.0 else math.inf) * table.nodes
            self._plans[event, sic, engine] = self.register(dc, event, sic,
                                                            _thresholds(dc, event, sic, table), scale)
        return [self._plans[event, sic, engine] for event in events]

    def register(self, dc: DerivedConstants, event: tuple, sic: str, thresholds, scale=None) -> int:
        """Slot of an event's legitimate CDF under dc at the thresholds (tau, weights), dc a
        point of the batch's element count, scale overriding its argument scale."""
        tau, w = thresholds
        fam = SINR_FAMILIES[event[0]]
        if (event[1], sic) in _LEGIT_SCALE:
            fam = fam._replace(residual=_LEGIT_SCALE[event[1], sic])
        self.args.append((*_cascade(dc, fam, sic, tau, self.table, scale), w))
        return len(self.args) - 1

    def probe(self, family: str, sic: str, x) -> int:
        """Slot of a SINR_FAMILIES key's CDF under sic at the 1-D points x: the family's
        cascade argument, with no threshold average."""
        self.args.append((*_cascade(self.dc, SINR_FAMILIES[family], sic, x, self.table), None))
        return len(self.args) - 1

    def _read(self, slot: int) -> np.ndarray:
        """A slot's unclipped CDF, averaged over a quadrature axis; exactly 1 at the NOMA
        ceiling and where every node reads 1, whatever the weight round-off.  The outage
        mass, not 1 - survival, keeps its relative accuracy in the tail."""
        if slot >= len(self._cdfs):
            pending = self.args[len(self._cdfs):]
            flat = kdist_cdf(self.dc.params.n_active, np.concatenate([z.ravel() for z, _, _ in pending]))
            for z, capped, _ in pending:
                out, flat = flat[:z.size].reshape(z.shape), flat[z.size:]
                if out.ndim == 2:  # kdist_cdf values lie in [0, 1]: a row is all 1.0 where its min is
                    capped, out = capped | (out.min(axis=-1) == 1.0), out @ self.table.weights
                self._cdfs.append(np.where(capped, 1.0, out))
        return self._cdfs[slot]

    def cdf(self, slot: int) -> np.ndarray:
        """A probe's CDF at its points, clipped to [0, 1]."""
        return np.clip(self._read(slot), 0.0, 1.0)

    def outage(self, slot: int) -> tuple[float, bool]:
        """A plan's kernel value, the legitimate CDF averaged over the thresholds (1.0
        where it is 1.0 at every one), and whether every threshold sits at the NOMA
        ceiling (a certain event); memoized per slot, so a union reuses its events'."""
        if slot not in self._outages:
            cdf, (_, capped, w) = self._read(slot), self.args[slot]
            self._outages[slot] = (1.0 if (cdf == 1.0).all() else float(cdf @ w)), bool(capped.all())
        return self._outages[slot]


def _single_event(scenario: str) -> tuple:
    """The one event of a scenario; a union of several has no closed form but sop's."""
    events = SCENARIOS[scenario]
    if len(events) > 1:
        raise UnsupportedScenarioError(f"{scenario!r} unions {len(events)} events; only sop takes it")
    return events[0]


def _batch_of(params, batch: CascadeBatch | None) -> CascadeBatch:
    """batch, which must be of params (else ValueError), by default a one-cell batch."""
    if batch is not None and batch.dc.params is not params and batch.dc.params != params:
        raise ValueError("batch is a CascadeBatch of another operating point than params")
    return batch or CascadeBatch(params)


def sop(params, scenario: str, sic: str, *, batch: CascadeBatch | None = None) -> SopEstimate:
    """Closed-form secrecy outage of any SCENARIOS key: per event the kernel value
    clamped to [0, 1], for several events their sop_union in registry order.

    ipSIC couples two residual-interference integrals (eavesdropper and user),
    both over the batch's table (by default order 64); a far-user threshold at
    the NOMA ceiling gives 1, 'saturated'.  batch, a CascadeBatch of params,
    shares its kernel call and chooses the table; by default the call makes its
    own.  A batch of another operating point raises ValueError.
    """
    batch = _batch_of(params, batch)
    estimates = [_clamped(value, "analytic", ("saturated",) if saturated else ())
                 for value, saturated in map(batch.outage, batch.plan(scenario, sic))]
    return functools.reduce(sop_union, estimates)


def sop_system_external(params, sic: str) -> SopEstimate:
    """sop of the union of both external events (the name cli imports)."""
    return sop(params, "system_external", sic)


def sop_union(est_n: SopEstimate, est_f: SopEstimate) -> SopEstimate:
    """1 - (1 - SOP_n)(1 - SOP_f): two outage events taken as independent (as the
    closed forms take the cascades), with the flags of both in first-seen order."""
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


def sop_asymptotic(params, scenario: str, sic: str, *, batch: CascadeBatch | None = None) -> SopEstimate:
    """High-budget SOP asymptote of a one-event scenario on the kernel's thresholds.

    legitimate family under ipSIC:  residual-interference error floor (the kernel
                                    with the user-side scale cut to its residual term)
    otherwise:                      -u ln u (single active element) or u/(Q-1) at
                                    the legitimate argument u of the threshold
    A legitimate scale coupled to the wiretap's residual (internal + ipsic) and a
    union of events have no asymptote: both raise UnsupportedScenarioError.  The
    single-element logarithmic forms turn negative outside the asymptotic regime,
    so estimates carry a validity flag requiring the argument to sit below 0.1.
    batch is as in sop.
    """
    event = _single_event(scenario)
    if (event[1], sic) in _LEGIT_SCALE:
        raise UnsupportedScenarioError(f"{scenario} + {sic} has no closed-form asymptote (the residual "
                                       "floor couples both quadratures); evaluate sop directly")
    batch = _batch_of(params, batch)
    if SINR_FAMILIES[event[0]].sic_for(sic) == "ipsic":
        value, _ = batch.outage(*batch.plan(scenario, sic, "asymptotic"))
        return _clamped(value, "asymptotic")
    # the argument and ceiling mask of the kernel's own plan, which this asymptote expands
    u, capped, _ = batch.args[batch.plan(scenario, sic)[0]]
    if capped[0]:
        return SopEstimate(1.0, "asymptotic", flags=("saturated",))
    value, flags = _small_arg_asymptote(float(u[0]), batch.dc.params.n_active)
    return SopEstimate(float(value), "asymptotic", flags=flags)


def sop_curve_fixed_eavesdropper(params, scenario: str, sic: str, p_bs_values) -> np.ndarray:
    """Closed-form SOP along a transmit-power sweep with frozen wiretap thresholds.

    Diversity analysis scales the legitimate link while holding the
    eavesdropper's receive SNR at the operating point given by params;
    otherwise both links improve together and the outage event saturates
    instead of decaying.  The kernel takes its thresholds from params and
    its legitimate CDF from each p_bs; returns one SOP per p_bs value.
    """
    event, batch = _single_event(scenario), CascadeBatch(params)
    thresholds = _thresholds(batch.dc, event, sic, batch.table)
    plans = [batch.register(derive(replace(params, p_bs=float(p_bs))), event, sic, thresholds)
             for p_bs in p_bs_values]
    return np.clip(np.array([batch.outage(plan)[0] for plan in plans], dtype=float), 0.0, 1.0)


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
