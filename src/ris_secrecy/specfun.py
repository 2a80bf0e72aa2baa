"""Special-function kernel used by the closed-form secrecy engine.

Everything downstream reduces to two primitives: the log of the
integer-order modified Bessel function of the second kind and
Gauss-Laguerre quadrature tables.  On top of those this module provides the
survival function, CDF and density of the normalized cascaded-channel power
(the squared magnitude of a coherent sum of products of independent complex
Gaussians), evaluated in log space so that large quadrature arguments
underflow gracefully instead of turning into inf*0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp_special

__all__ = [
    "QuadratureTable",
    "log_bessel_k",
    "gauss_laguerre",
    "kdist_cdf",
    "kdist_logsf",
    "kdist_pdf",
    "kdist_sf",
]

_EULER_GAMMA = 0.5772156649015329


def _check_bessel_domain(x):
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("modified Bessel K requires finite x > 0")
    return arr


def log_bessel_k(q: int, x) -> np.ndarray | float:
    """ln K_q(x) for integer order q >= 0, stable for arguments up to ~1e300.

    Uses the exponentially scaled kernel, ln K_q(x) = ln(kve(q, x)) - x, and
    switches to the leading small-argument form when the scaled kernel would
    overflow (large q together with tiny x) or to the large-argument
    asymptotic expansion where the scaled kernel reports NaN (x beyond about
    1.07e9, where the expansion is already exact to well under double
    precision for any order this package uses).
    """
    if q < 0 or q != int(q):
        raise ValueError("order must be a nonnegative integer")
    arr = _check_bessel_domain(x)
    scalar = np.isscalar(x) or arr.ndim == 0
    arr = np.atleast_1d(arr)

    with np.errstate(over="ignore"):
        kve = sp_special.kve(q, arr)
    out = np.log(kve) - arr

    # Two ways the scaled kernel fails: kve ~ Gamma(q)/2 * (2/x)^q overflows
    # for big q at tiny x, and the backing Amos routine returns NaN for
    # x beyond ~2^30.  K_q itself is representable in log form in both
    # regimes, so patch each analytically.
    bad = ~np.isfinite(out)
    if np.any(bad):
        xs = arr[bad]
        patched = np.empty_like(xs)
        huge = np.isnan(kve[bad])
        if np.any(huge):
            # relative truncation error of the two-term tail is < 1e-17 at
            # the 2^30 takeover point even for q = 64
            xh = xs[huge]
            mu = 4.0 * q * q
            a1 = (mu - 1.0) / 8.0
            a2 = a1 * (mu - 9.0) / 16.0
            patched[huge] = (
                0.5 * np.log(np.pi / (2.0 * xh)) - xh + np.log1p(a1 / xh + a2 / (xh * xh))
            )
        tiny = ~huge
        if np.any(tiny):
            xt = xs[tiny]
            if q == 0:
                patched[tiny] = np.log(-np.log(xt / 2.0) - _EULER_GAMMA)
            else:
                lead = math.lgamma(q) - math.log(2.0) + q * np.log(2.0 / xt)
                if q >= 2:
                    # next ascending-series term; only a refinement, so skip
                    # it where the series is not converging
                    corr = (xt * xt) / (4.0 * (q - 1.0))
                    ok = corr < 0.5
                    lead[ok] += np.log1p(-corr[ok])
                patched[tiny] = lead
        out[bad] = patched
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class QuadratureTable:
    """Gauss-Laguerre abscissas and weights for integrals against exp(-x).

    Invariants checked at construction: nodes strictly ascending and positive,
    weights nonnegative and finite, sum(w) = 1 within 1e-10 and
    sum(w * x) = 1 within 1e-9 (zeroth and first moments of exp(-x)).
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != (self.order,) or weights.shape != (self.order,):
            raise ValueError("nodes/weights must both have shape (order,)")
        if nodes[0] <= 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly ascending and positive")
        if np.any(~np.isfinite(weights)) or np.any(weights < 0.0):
            raise ValueError("weights must be finite and nonnegative")
        if abs(weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must sum to 1 within 1e-10")
        if abs(float(weights @ nodes) - 1.0) > 1e-9:
            raise ValueError("first moment must equal 1 within 1e-9")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def gauss_laguerre(order: int) -> QuadratureTable:
    """Build the Gauss-Laguerre table of the given order (1 <= order <= 256).

    Nodes and weights come from scipy.special.roots_laguerre.  Beyond order
    ~190 the extreme tail weights drop below the smallest double and are
    returned as exact zeros; the cap sits below order 512, where that
    routine returns NaN.
    """
    if not isinstance(order, (int, np.integer)) or order < 1 or order > 256:
        raise ValueError("order must be an integer in [1, 256]")
    nodes, weights = sp_special.roots_laguerre(int(order))
    return QuadratureTable(int(order), nodes, weights)


def _as_float_array(z):
    # +inf is a legitimate saturated argument (sf -> 0, pdf -> 0)
    arr = np.asarray(z, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr < 0.0):
        raise ValueError("argument must be >= 0 (nan rejected)")
    return arr


def kdist_logsf(q: int, z) -> np.ndarray | float:
    """ln of the cascade-power survival function (2/Gamma(q)) z^{q/2} K_q(2 sqrt z).

    z is the power normalized by the per-hop mean-gain product; q is the
    number of coherently combined elements.  The survival function tends to 1
    as z -> 0+ and to 0 in the exponential tail; both limits are reached
    without overflow by combining the scaled Bessel kernel with a
    small-argument series below z = 1e-12.
    """
    if q < 1 or q != int(q):
        raise ValueError("q must be a positive integer")
    arr = _as_float_array(z)
    scalar = np.isscalar(z) or arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    out = np.empty_like(arr)

    unbounded = np.isinf(arr)
    out[unbounded] = -np.inf
    small = (arr < 1e-12) & ~unbounded
    if np.any(small):
        zs = arr[small]
        if q == 1:
            # x K_1(x) = 1 + z ln z + (2*gamma - 1) z + O(z^2 ln z), x = 2 sqrt z
            with np.errstate(divide="ignore", invalid="ignore"):
                corr = np.where(zs > 0.0, zs * np.log(zs), 0.0)
            out[small] = np.log1p(corr + (2.0 * _EULER_GAMMA - 1.0) * zs)
        else:
            out[small] = np.log1p(-zs / (q - 1.0))
    rest = ~small & ~unbounded
    if np.any(rest):
        zl = arr[rest]
        x = 2.0 * np.sqrt(zl)
        out[rest] = (
            math.log(2.0)
            - math.lgamma(q)
            + (q / 2.0) * np.log(zl)
            + log_bessel_k(q, x)
        )
    out = np.minimum(out, 0.0)
    return float(out[0]) if scalar else out.reshape(np.shape(np.asarray(z)))


def kdist_sf(q: int, z) -> np.ndarray | float:
    """Survival function of the normalized cascade power; see kdist_logsf."""
    logsf = kdist_logsf(q, z)
    with np.errstate(under="ignore"):
        return np.exp(logsf)


_SATURATED_LOGSF = -40.0
_SATURATION_ARGS: dict[int, float] = {}


def _saturation_arg(q: int) -> float:
    """Cached per q: a z with kdist_logsf(q, z) <= -40, bisected to adjacent doubles."""
    z_sat = _SATURATION_ARGS.get(q)
    if z_sat is None:
        lo, hi = 0.0, 64.0
        while kdist_logsf(q, hi) > _SATURATED_LOGSF:
            lo, hi = hi, 2.0 * hi
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if kdist_logsf(q, mid) > _SATURATED_LOGSF else (lo, mid)
        z_sat = _SATURATION_ARGS[q] = hi
    return z_sat


def kdist_cdf(q: int, z) -> np.ndarray | float:
    """CDF of the normalized cascade power, 1 - kdist_sf, clamped to [0, 1].

    Arguments at or beyond the per-q saturation point, where ln sf <= -40,
    return 1.0 without a Bessel call.  That is exact: -expm1(x) rounds to
    1.0 for any x < ln 2^-54 ~ -37.4, and 2.6 nats is far more than the
    ~1e-12 error of kdist_logsf, so the result is bit for bit the one the
    survival function would give.
    """
    arr = _as_float_array(z)
    out = np.ones(arr.shape)
    live = arr < _saturation_arg(q)
    if np.any(live):
        with np.errstate(under="ignore"):
            out[live] = -np.expm1(kdist_logsf(q, arr[live]))
    return np.clip(out, 0.0, 1.0)


def kdist_pdf(q: int, z) -> np.ndarray | float:
    """Density of the normalized cascade power: (2/Gamma(q)) z^{(q-1)/2} K_{q-1}(2 sqrt z).

    This is the exact derivative of kdist_cdf; the identity
    d/du [u^{q/2} K_q(2 sqrt u)] = -u^{(q-1)/2} K_{q-1}(2 sqrt u) collapses
    the three-Bessel forms that appear when the chain rule is written out
    term by term.  For q = 1 the density diverges logarithmically at 0.
    """
    if q < 1 or q != int(q):
        raise ValueError("q must be a positive integer")
    arr = _as_float_array(z)
    scalar = np.isscalar(z) or arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    out = np.empty_like(arr)

    zero = arr == 0.0
    if np.any(zero):
        if q == 1:
            out[zero] = np.inf
        elif q == 2:
            out[zero] = 1.0
        else:
            out[zero] = 1.0 / (q - 1.0)
    unbounded = np.isinf(arr)
    out[unbounded] = 0.0
    pos = ~zero & ~unbounded
    if np.any(pos):
        zp = arr[pos]
        x = 2.0 * np.sqrt(zp)
        logpdf = (
            math.log(2.0)
            - math.lgamma(q)
            + ((q - 1.0) / 2.0) * np.log(zp)
            + log_bessel_k(q - 1, x)
        )
        with np.errstate(under="ignore"):
            out[pos] = np.exp(logpdf)
    return float(out[0]) if scalar else out.reshape(np.shape(np.asarray(z)))
