"""Special-function kernel used by the closed-form secrecy engine, in numpy alone.

Everything downstream reduces to one recurrence and Gauss-Laguerre tables.  With
x = 2 sqrt(z), the terms s_0 = 2 K_0(x) and s_n = (2/Gamma(n)) z^(n/2) K_n(x) obey

    s_2 = s_1 + z s_0,    s_(n+1) = s_n + z s_(n-1) / (n (n - 1)),

sums of positive terms.  s_q is the survival function of the normalized
cascaded-channel power (the squared magnitude of a coherent sum of q products of
independent complex Gaussians), s_(q-1)/max(q-1, 1) its density, and ln K_q
follows from s_q.  s_0 and s_1 come from power series below x = 2 and Chebyshev
fits above.  Results are formed in log space, so large arguments underflow
gracefully instead of turning into inf*0.

Each public function checks its arguments once, on entry, and raises ValueError on a bad
one: the kdist_* functions through _checked (q a positive integer, not a bool; z >= 0 or
+inf, the saturated limit), log_bessel_k on its own domain (q >= 0; finite x > 0).  A
scalar or 0-d argument gives a scalar back; an array gives an array of its own shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureTable",
    "log_bessel_k",
    "gauss_laguerre",
    "kdist_cdf",
    "kdist_logsf",
    "kdist_pdf",
    "kdist_quantile",
    "kdist_sf",
]

_EULER_GAMMA = 0.5772156649015329
_LN2 = math.log(2.0)


def log_bessel_k(q: int, x) -> np.ndarray | float:
    """ln K_q(x) for integer order q >= 0, stable for arguments up to ~1e300.

    Read off the recurrence: ln K_0 = ln s_0 - ln 2, and for q >= 1
    ln K_q = ln s_q + ln Gamma(q) - ln 2 - q ln(x/2), with z = x^2/4; as x -> 0 the
    s_n tend to 1 and this is the leading small-argument form.  From x = 2^30 on the
    two-term Hankel expansion takes over: its relative truncation error there is
    below 1e-16 up to q = 128, and unlike the recurrence's power-of-two bookkeeping
    it keeps ln K + x accurate when x is that large.
    """
    if isinstance(q, (bool, np.bool_)) or q < 0 or q != int(q):
        raise ValueError("order must be a nonnegative integer")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not (np.isfinite(arr) & (arr > 0.0)).all():
        raise ValueError("modified Bessel K requires finite x > 0")
    q, out, ok = int(q), np.empty_like(arr), arr < 2.0**30
    if ok.any():
        xs = arr[ok]
        out[ok] = (_log_s(q, xs, 0.25 * xs * xs) + (math.lgamma(max(q, 1)) - _LN2)
                   - q * np.log(0.5 * xs))
    if not ok.all():
        xh, mu = arr[~ok], 4.0 * q * q
        a1 = (mu - 1.0) / 8.0
        a2 = a1 * (mu - 9.0) / 16.0
        out[~ok] = 0.5 * np.log(np.pi / (2.0 * xh)) - xh + np.log1p(a1 / xh + a2 / (xh * xh))
    return _shaped(out, x)


# sqrt(x) K_n(x) e^x on x >= 2 as Chebyshev series in u = 4/x - 1, one row per n = 0, 1.
# Recipe: mpmath at 50 digits on the 64 Chebyshev-Gauss points u_j = cos(pi (j + 1/2)/64),
# c_k = (2/64) sum_j f(u_j) cos(pi k (j + 1/2)/64) (c_0 halved), terms below 1e-17 dropped.
_CHEB_K01 = np.array([
    [1.2201515410329777, -0.0314481013119645, 0.0015698838857300533, -0.00012849549581627802,
     1.39498137188765e-05, -1.8317555227191195e-06, 2.766813639445015e-07, -4.660489897687948e-08,
     8.574034017414225e-09, -1.6975345093890614e-09, 3.5773972814003283e-10, -7.957489244477396e-11,
     1.8559491149549264e-11, -4.514597883374519e-12, 1.1403405882073441e-12, -2.9800969231481784e-13,
     8.032890775068375e-14, -2.2275133267462965e-14, 6.340076476276646e-15, -1.848593377920907e-15,
     5.5120559994043335e-16, -1.6782311257549006e-16, 5.2103917776435543e-17, -1.6475805939842632e-17],
    [1.3603130952422213, 0.10392373657681724, -0.002857816859622779, 0.00019521551847135162,
     -1.936197974166083e-05, 2.406484947837217e-06, -3.5019606030878126e-07, 5.7410841254500495e-08,
     -1.0345762465678097e-08, 2.0150497551970347e-09, -4.1903547593419254e-10, 9.218315187605315e-11,
     -2.129967838427791e-11, 5.139639673482343e-12, -1.2891739609498229e-12, 3.348419666052243e-13,
     -8.976705182010146e-14, 2.4771544242195988e-14, -7.0198370892147685e-15, 2.038703166239861e-15,
     -6.057047270643018e-16, 1.8380935752430455e-16, -5.689462849193648e-17, 1.7940510478863572e-17],
]).T[:, :, None]


def _power_series() -> np.ndarray:
    """Coefficients of z^k, k < 15, columns I_0, P_0, J, P_1, for x < 2 (A&S 9.6.13,
    9.6.11): K_0 = P_0(z) - ln(x/2) I_0(z) and x K_1 = 1 + z (2 ln(x/2) J(z) - P_1(z))."""
    rows, psi = [], -_EULER_GAMMA  # psi(k + 1)
    for k in range(15):
        f2, j = math.factorial(k) ** 2, 1.0 / (math.factorial(k) * math.factorial(k + 1))
        rows.append((1.0 / f2, psi / f2, j, (2.0 * psi + 1.0 / (k + 1)) * j))
        psi += 1.0 / (k + 1)
    return np.array(rows)[:, :, None]


_SERIES = _power_series()


def _log_s(n: int, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """ln s_n (module docstring) at x = 2 sqrt(z) > 0.  For x >= 2 the s_n carry a
    factor e^x, taken out at the end; past x = 700 the pair is rescaled by a power of
    two on every step, which is exact, so no element depends on the rest of its array."""
    s0, s1, shift = np.empty_like(x), np.empty_like(x), np.zeros_like(x)
    low = x < 2.0
    if low.any():
        zl, half = z[low], np.log(0.5 * x[low])
        acc = np.zeros((4, zl.size))
        for row in _SERIES[::-1]:  # Horner in z
            acc *= zl
            acc += row
        i0, p0, j, p1 = acc
        s0[low], s1[low] = 2.0 * (p0 - half * i0), 1.0 + zl * (2.0 * half * j - p1)
    if not low.all():
        xh = x[~low]
        # Clenshaw in u, b1 <- u2 * b1 - b2 + row, on three rotating buffers
        u2, shape = 2.0 * (4.0 / xh - 1.0), (2, xh.size)
        b1, b2, b0 = np.zeros(shape), np.zeros(shape), np.empty(shape)
        for row in _CHEB_K01[:0:-1]:
            np.multiply(u2, b1, out=b0)
            b0 -= b2
            b0 += row
            b1, b2, b0 = b0, b1, b2
        k0, k1 = 0.5 * u2 * b1 - b2 + _CHEB_K01[0]
        root = np.sqrt(xh)
        s0[~low], s1[~low], shift[~low] = 2.0 * k0 / root, root * k1, xh
    # s_(k+1) = (z / (k (k - 1))) s_(k-1) + s_k (z s_0 + s_1 at k = 1), rotating buffers
    prev, cur, step = (s1, s0, None) if n == 0 else (s0, s1, np.empty_like(x))
    rescale, exp2 = n > 1 and bool((x > 700.0).any()), 0
    for k in range(1, n):
        if k == 1:
            np.multiply(z, prev, out=step)
        else:
            np.divide(z, k * (k - 1), out=step)
            step *= prev
        step += cur
        prev, cur, step = cur, step, prev
        if rescale:
            cur, e = np.frexp(cur)
            prev, exp2 = np.ldexp(prev, -e), exp2 + e
    mant, e = np.frexp(cur)
    return np.log(mant) + (e + exp2) * _LN2 - shift


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

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of the Jacobi
    matrix of the Laguerre recurrence (diagonal 2k + 1, off-diagonal k), polished by
    two Newton steps on L_n.  The weights 1/(x L_n'(x)^2) are formed in log space and
    scaled to sum to one, so the order-64 tail weights near 1e-101 survive; beyond
    order ~190 the extreme tail weights drop below the smallest double and are
    returned as exact zeros.  |L_n(x)| <= e^(x/2), so no L_n here overflows.
    """
    if not isinstance(order, (int, np.integer)) or order < 1 or order > 256:
        raise ValueError("order must be an integer in [1, 256]")
    n = int(order)
    nodes = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + 1.0) + np.diag(np.arange(1.0, n), -1))
    for polish in (True, True, False):
        # L_n and d = L_n - L_(n-1) by recurring on d, which keeps its accuracy at the
        # small roots, where d is much smaller than L_(n-1); L_n' = n d / x
        d, val = -nodes, 1.0 - nodes
        for k in range(1, n):
            d = (k * d - nodes * val) / (k + 1)
            val = val + d
        if polish:
            nodes = nodes - nodes * val / (n * d)
    weights = np.exp(np.log(nodes) - 2.0 * np.log(n * np.abs(d)))
    return QuadratureTable(n, nodes, weights / weights.sum())


def _checked(q, z) -> np.ndarray:
    """z as an at-least-1-D float array, once q and z are known to be in the domain."""
    if isinstance(q, (bool, np.bool_)) or q < 1 or q != int(q):
        raise ValueError("q must be a positive integer")
    arr = np.atleast_1d(np.asarray(z, dtype=float))
    if not (arr >= 0.0).all():
        raise ValueError("argument must be >= 0 (nan rejected)")
    return arr


def _shaped(out: np.ndarray, z):
    """Scalar in, float out; an array argument keeps its shape."""
    return float(out[0]) if np.ndim(z) == 0 else out


def _logsf(q: int, arr: np.ndarray) -> np.ndarray:
    """kdist_logsf on a checked array of any shape."""
    out = np.full_like(arr, -np.inf)  # ln sf at z = +inf
    small = arr < 1e-12
    if small.any():
        zs = arr[small]
        if q == 1:
            # x K_1(x) = 1 + z ln z + (2*gamma - 1) z + O(z^2 ln z), x = 2 sqrt z
            with np.errstate(divide="ignore", invalid="ignore"):
                corr = np.where(zs > 0.0, zs * np.log(zs), 0.0)
            out[small] = np.log1p(corr + (2.0 * _EULER_GAMMA - 1.0) * zs)
        else:
            out[small] = np.log1p(-zs / (q - 1.0))
    rest = ~small & np.isfinite(arr)
    if rest.any():
        zr = arr[rest]
        out[rest] = _log_s(q, 2.0 * np.sqrt(zr), zr)
    return np.minimum(out, 0.0)


def kdist_logsf(q: int, z) -> np.ndarray | float:
    """ln of the cascade-power survival function (2/Gamma(q)) z^{q/2} K_q(2 sqrt z).

    z is the power normalized by the per-hop mean-gain product; q is the
    number of coherently combined elements.  The survival function tends to 1
    as z -> 0+ and to 0 in the exponential tail; both limits are reached
    without overflow by combining the recurrence, in log space, with a
    small-argument series below z = 1e-12.
    """
    return _shaped(_logsf(q, _checked(q, z)), z)


def kdist_sf(q: int, z) -> np.ndarray | float:
    """Survival function of the normalized cascade power; see kdist_logsf."""
    with np.errstate(under="ignore"):
        return np.exp(kdist_logsf(q, z))


_SATURATED_LOGSF = -40.0
_SATURATION_ARGS: dict[int, float] = {}
_QUANTILES: dict[tuple, np.ndarray] = {}


def _log_bisect(reached, lo, hi) -> np.ndarray:
    """Per element, a z where reached(z), false at lo and true at hi, turns true between
    adjacent doubles: bisected in ln z, then at the plain midpoint once that rounds onto an end."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    while True:
        mid = np.sqrt(lo) * np.sqrt(hi)
        mid = np.where((lo < mid) & (mid < hi), mid, 0.5 * lo + 0.5 * hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            return hi
        up = reached(np.where(live, mid, hi))
        lo, hi = np.where(live & ~up, mid, lo), np.where(live & up, mid, hi)


def _saturation_arg(q: int) -> float:
    """Cached per q: a z with kdist_logsf(q, z) <= -40, bisected to adjacent doubles."""
    z_sat = _SATURATION_ARGS.get(q)
    if z_sat is None:
        lo, hi = 1.0, 64.0  # ln sf(1) > -2 at every q
        while kdist_logsf(q, hi) > _SATURATED_LOGSF:
            lo, hi = hi, 2.0 * hi
        z_sat = _SATURATION_ARGS[q] = float(_log_bisect(
            lambda z: kdist_logsf(q, z) <= _SATURATED_LOGSF, [lo], [hi])[0])
    return z_sat


def kdist_cdf(q: int, z) -> np.ndarray | float:
    """CDF of the normalized cascade power, 1 - kdist_sf, clamped to [0, 1].

    Arguments at or beyond the per-q saturation point, where ln sf <= -40,
    return 1.0 without a Bessel call.  That is exact: -expm1(x) rounds to
    1.0 for any x < ln 2^-54 ~ -37.4, and 2.6 nats is far more than the
    ~1e-12 error of kdist_logsf, so the result is bit for bit the one the
    survival function would give.
    """
    arr = _checked(q, z)
    out = np.ones(arr.shape)
    live = arr < _saturation_arg(q)
    zl = arr[live]
    if zl.size:
        with np.errstate(under="ignore"):
            # without a z below the series cutoff, _logsf is its recurrence branch alone
            logsf = _logsf(q, zl) if zl.min() < 1e-12 else np.minimum(_log_s(q, 2.0 * np.sqrt(zl), zl), 0.0)
            out[live] = np.negative(np.expm1(logsf, out=logsf), out=logsf)
    return np.clip(_shaped(out, z), 0.0, 1.0)


def kdist_quantile(q: int, probs) -> np.ndarray | float:
    """The z, to adjacent doubles, where kdist_cdf(q, z) turns to read at least each p of
    probs, 0 < p < 1; bisected in ln z below the saturation point, cached per (q, probs)."""
    p = _checked(q, probs)
    if not ((p > 0.0) & (p < 1.0)).all():
        raise ValueError("probabilities must lie in (0, 1)")
    key = (int(q), p.shape, p.tobytes())
    if key not in _QUANTILES:
        _QUANTILES[key] = _log_bisect(lambda z: kdist_cdf(key[0], z) >= p, np.full(p.shape, 2.0**-1000),
                                      np.full(p.shape, _saturation_arg(key[0])))
    return _shaped(_QUANTILES[key].copy(), probs)


def kdist_pdf(q: int, z) -> np.ndarray | float:
    """Density of the normalized cascade power: (2/Gamma(q)) z^{(q-1)/2} K_{q-1}(2 sqrt z).

    This is the exact derivative of kdist_cdf; the identity
    d/du [u^{q/2} K_q(2 sqrt u)] = -u^{(q-1)/2} K_{q-1}(2 sqrt u) collapses
    the three-Bessel forms that appear when the chain rule is written out
    term by term.  For q = 1 the density diverges logarithmically at 0.
    """
    arr = _checked(q, z)
    out = np.zeros_like(arr)  # the density at z = +inf
    out[arr == 0.0] = np.inf if q == 1 else 1.0 / (q - 1.0)
    pos = (arr > 0.0) & np.isfinite(arr)
    if pos.any():
        with np.errstate(under="ignore"):
            zp = arr[pos]
            out[pos] = np.exp(_log_s(q - 1, 2.0 * np.sqrt(zp), zp)) / max(q - 1, 1)
    return _shaped(out, z)
