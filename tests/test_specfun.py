"""Special-function kernel against arbitrary-precision oracles.

Groups:
 1. Bessel K, evaluated in log form by log_bessel_k: mpmath oracle over
    a (q, x) grid and over every order the engines use from x = 1e-12 to
    1e3, pinned single values, vectorized vs scalar calls, domain errors
 2. Gauss-Laguerre: closed forms at order 1 and 2, moment exactness
    through degree 2D-1, scipy's tables as an independent oracle at every
    order, table invariants, input validation
 3. Cascade-power distribution: mpmath oracle (the CDF's small-argument
    tail included), complementarity,
    small-argument closure, density vs finite differences, normalization,
    saturated (+inf) arguments, the CDF's saturation cutoff is bit-exact,
    element values independent of the array they sit in, the recurrence's
    reused buffers bit-identical to allocating every step
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from ris_secrecy import analytic as an
from ris_secrecy.specfun import (
    _CHEB_K01,
    _LN2,
    _SERIES,
    QuadratureTable,
    _log_s,
    _saturation_arg,
    gauss_laguerre,
    kdist_cdf,
    kdist_logsf,
    kdist_pdf,
    kdist_quantile,
    kdist_sf,
    log_bessel_k,
)

from conftest import dbm, make_params

mpmath.mp.dps = 50

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# Bessel K


def _log_k(q, x) -> float:
    return float(mpmath.log(mpmath.besselk(q, mpmath.mpf(x))))


def test_bessel_k_matches_mpmath_on_grid():
    # an absolute error of 1e-12 in ln K is a relative error of 1e-12 in K
    rng = np.random.default_rng(20260813)
    orders = rng.integers(0, 31, size=60)
    xs = 10.0 ** rng.uniform(-8, math.log10(700.0), size=60)
    for q, x in zip(orders, xs):
        got = log_bessel_k(int(q), float(x))
        assert got == pytest.approx(_log_k(int(q), float(x)), abs=1e-12), (q, x)


def test_log_bessel_k_matches_mpmath_in_log_space():
    # the tail beyond x ~ 745 only exists in log space
    for q, x in [(0, 800.0), (5, 1200.0), (30, 5000.0), (12, 1e-6), (30, 1e-8)]:
        want = float(mpmath.log(mpmath.besselk(q, mpmath.mpf(x))))
        got = log_bessel_k(q, x)
        assert got == pytest.approx(want, rel=1e-10), (q, x)


@pytest.mark.parametrize("q", [0, 1, 2, 3, 5, 20, 64, 128])
def test_log_bessel_k_matches_mpmath_from_tiny_to_large_arguments(q):
    # 1e-13 absolute in ln K, relative where |ln K| > 1; the grid crosses the
    # series/Chebyshev switch at x = 2 and the rescaled recurrence past x = 700
    xs = np.r_[np.geomspace(1e-12, 1e3, 61), 2.0 - 1e-15, 2.0, 699.0, 701.0]
    got = log_bessel_k(q, xs)
    for x, g in zip(xs, got):
        want = _log_k(q, float(x))
        assert abs(g - want) <= 1e-13 * max(1.0, abs(want)), (q, x, g, want)


def test_log_bessel_k_beyond_scaled_kernel_range():
    # from x = 2^30 on the Hankel expansion takes over from the recurrence;
    # it has to stay finite and accurate there.  At these magnitudes a
    # double carries ln K only to ~x*eps absolute, so compare the x-free part
    # ln K + x against the oracle instead of ln K itself.
    for q in (1, 5, 41, 64):
        for x in (1.5e9, 4e10, 1e12):
            got = log_bessel_k(q, x) + x
            want = float(mpmath.log(mpmath.besselk(q, mpmath.mpf(x))) + mpmath.mpf(x))
            assert got == pytest.approx(want, rel=1e-6), (q, x)
    out = log_bessel_k(64, np.array([2e9, 1e40, 1e154]))
    assert np.all(np.isfinite(out))


def test_cascade_distribution_survives_huge_arguments():
    # regression: q = 41 at z ~ 4e23 used to come back NaN through the
    # scaled-kernel takeover instead of a clean 0/1 pair
    for q in (2, 41):
        for z in (1e19, 4.2e23, 1e100):
            assert kdist_sf(q, z) == 0.0
            assert kdist_cdf(q, z) == 1.0


def test_bessel_k_pinned_values():
    # absolute tolerances in ln K are relative tolerances in K
    assert log_bessel_k(1, 2.0) == pytest.approx(math.log(0.13986588181652243), abs=1e-13)
    # K_1(x) ~ 1/x as x -> 0
    assert log_bessel_k(1, 1e-8) == pytest.approx(math.log(1e8), abs=1e-8)
    assert log_bessel_k(20, 5.0) == pytest.approx(_log_k(20, 5), abs=1e-12)
    # K_0(800) is below the smallest double; its log is not
    assert log_bessel_k(0, 800.0) == pytest.approx(_log_k(0, 800), rel=1e-12)


def test_bessel_domain_errors():
    for bad_x in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            log_bessel_k(2, bad_x)
    with pytest.raises(ValueError):
        log_bessel_k(-1, 1.0)
    with pytest.raises(ValueError):
        log_bessel_k(1.5, 1.0)


def test_bessel_k_vectorized_matches_scalar():
    xs = np.array([0.5, 2.0, 40.0])
    vec = log_bessel_k(3, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert v == log_bessel_k(3, float(x))


# ---------------------------------------------------------------------------
# Gauss-Laguerre


def test_order_one_and_two_closed_forms():
    t1 = gauss_laguerre(1)
    assert t1.nodes == pytest.approx([1.0]) and t1.weights == pytest.approx([1.0])
    t2 = gauss_laguerre(2)
    s = math.sqrt(2.0)
    assert t2.nodes == pytest.approx([2.0 - s, 2.0 + s], rel=1e-14)
    assert t2.weights == pytest.approx([(2.0 + s) / 4.0, (2.0 - s) / 4.0], rel=1e-14)


@pytest.mark.parametrize("order", [2, 16, 64])
def test_moment_exactness_through_2d_minus_1(order):
    # integrals of x^k against exp(-x) equal k!; compare in log space so the
    # degree-127 moments at order 64 stay inside double range
    table = gauss_laguerre(order)
    log_x = np.log(table.nodes)
    log_w = np.where(table.weights > 0.0, np.log(table.weights), -np.inf)
    for k in range(2 * order):
        terms = log_w + k * log_x
        m = terms.max()
        log_sum = m + math.log(np.exp(terms - m).sum())
        assert abs(math.expm1(log_sum - math.lgamma(k + 1))) < 1e-10, k


def test_third_moment_at_order_64():
    table = gauss_laguerre(64)
    assert float(table.weights @ table.nodes**3) == pytest.approx(6.0, rel=1e-12)


def test_tables_match_scipy_at_every_order():
    # scipy as an independent oracle: nodes within 1e-13 relative, and every
    # weight scipy represents above 1e-280 within 1e-10 relative
    from scipy.special import roots_laguerre

    for order in range(1, 257):
        table = gauss_laguerre(order)
        nodes, weights = roots_laguerre(order)
        assert np.max(np.abs(table.nodes / nodes - 1.0)) < 1e-13, order
        big = weights > 1e-280
        assert np.max(np.abs(table.weights[big] / weights[big] - 1.0)) < 1e-10, order


def test_table_invariants_rejected():
    good = gauss_laguerre(4)
    with pytest.raises(ValueError):
        QuadratureTable(4, good.nodes[::-1].copy(), good.weights)
    with pytest.raises(ValueError):
        QuadratureTable(4, good.nodes, good.weights * 2.0)
    with pytest.raises(ValueError):
        QuadratureTable(4, good.nodes, np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(ValueError):
        QuadratureTable(3, good.nodes, good.weights)


def test_gauss_laguerre_input_validation():
    for bad in (0, -1, 257, 513, 2.5):
        with pytest.raises(ValueError):
            gauss_laguerre(bad)


def test_high_order_tail_weights_survive():
    # order 64 tail weights sit around 1e-100; eigenvector-based weights
    # lose them, the table must not
    table = gauss_laguerre(64)
    assert table.weights[-1] > 0.0
    assert table.weights[-1] < 1e-80


# ---------------------------------------------------------------------------
# cascade-power distribution


def _oracle_sf(q, z):
    z = mpmath.mpf(z)
    return float(2 / mpmath.gamma(q) * z ** (mpmath.mpf(q) / 2) * mpmath.besselk(q, 2 * mpmath.sqrt(z)))


def _oracle_cdf(q, z):
    z = mpmath.mpf(z)
    return float(1 - 2 / mpmath.gamma(q) * z ** (mpmath.mpf(q) / 2) * mpmath.besselk(q, 2 * mpmath.sqrt(z)))


@pytest.mark.parametrize("q", [1, 2, 5, 20])
def test_sf_matches_mpmath(q):
    for z in 10.0 ** np.linspace(-10, 2, 25):
        assert kdist_sf(q, float(z)) == pytest.approx(_oracle_sf(q, float(z)), rel=1e-10)


@pytest.mark.parametrize("q", [1, 2, 3, 5, 20, 64])
def test_cdf_matches_mpmath_in_the_small_argument_tail(q):
    # the CDF is 1 - sf; at z = 1e-5 and q = 64 it is about 1.6e-7, so this
    # needs the survival function to about 1.6e-15 absolute there
    for z in np.r_[np.geomspace(1e-5, 1e-2, 61), np.geomspace(1e-2, 1e3, 21)]:
        # relative only: pytest.approx would also pass anything within 1e-12 absolute
        assert abs(kdist_cdf(q, float(z)) / _oracle_cdf(q, float(z)) - 1.0) <= 1e-8, (q, z)


def test_sf_cdf_complement_and_monotonicity():
    zs = 10.0 ** np.linspace(-12, 3, 200)
    for q in (1, 3, 20):
        sf = kdist_sf(q, zs)
        cdf = kdist_cdf(q, zs)
        assert np.allclose(sf + cdf, 1.0, atol=1e-12)
        assert np.all(np.diff(cdf) >= -1e-15)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))


def test_small_argument_closure():
    z = 1e-12
    got = kdist_cdf(1, z)
    want = -z * math.log(z) - (2.0 * EULER_GAMMA - 1.0) * z
    assert 1.0 - 1e-4 <= got / want <= 1.0 + 1e-4
    for q in (2, 5, 20):
        assert kdist_cdf(q, z) == pytest.approx(z / (q - 1.0), rel=1e-4)


def test_limits_and_saturated_arguments():
    for q in (1, 2, 7):
        assert kdist_sf(q, 0.0) == 1.0
        assert kdist_cdf(q, 0.0) == 0.0
        assert kdist_sf(q, np.inf) == 0.0
        assert kdist_cdf(q, np.inf) == 1.0
        assert kdist_pdf(q, np.inf) == 0.0
        assert kdist_logsf(q, np.inf) == -np.inf


@pytest.mark.parametrize("q", [1, 2, 3, 10, 20, 41, 64])
def test_cdf_saturation_cutoff_is_bit_exact(q):
    # beyond its per-q cutoff kdist_cdf returns 1.0 without evaluating the
    # survival function; that must be the very double the survival
    # function gives, on both sides of the cutoff and on a real ipSIC grid
    def via_sf(z):
        with np.errstate(under="ignore"):
            return np.clip(-np.expm1(kdist_logsf(q, z)), 0.0, 1.0)

    z_sat = _saturation_arg(q)
    assert kdist_logsf(q, z_sat) <= -40.0
    near = z_sat * (1.0 + np.arange(-16, 17) * 2.0**-52)
    # external_n/ipSIC thresholds through the user law: 64 x 64 arguments
    p = make_params(n_elements=2 * q, n_groups=2, n_active=q, d_re=2.0, p_bs=dbm(30.0))
    dc, table = an.derive(p), an.default_table()
    thresholds, _ = an._thresholds(dc, an.SCENARIOS["external_n"][0], "ipsic", table)
    grid, _ = an._cascade(dc, an.SINR_FAMILIES["user_n"], "ipsic", thresholds, table)
    assert grid.shape == (64, 64) and 0.0 < np.mean(grid >= z_sat) < 1.0
    for z in (np.geomspace(1e-14, 1e8, 4001), near, np.array([0.0, np.inf]), grid):
        got = kdist_cdf(q, z)
        assert got.shape == z.shape and np.array_equal(got, via_sf(z)), q
    assert kdist_cdf(q, z_sat) == 1.0 and kdist_cdf(q, 1.0) == via_sf(1.0)


@pytest.mark.parametrize("q", [1, 2, 3, 5, 20, 64])
def test_saturation_point_is_bisected_to_adjacent_doubles(q):
    # the bisection kdist_quantile shares ends on the first double whose ln sf is
    # at most -40, and kdist_cdf reads exactly the survival function's doubles on
    # a grid spanning that point a hundredfold either way
    z_sat = _saturation_arg(q)
    assert kdist_logsf(q, z_sat) <= -40.0 < kdist_logsf(q, np.nextafter(z_sat, 0.0))
    z = np.geomspace(z_sat / 100.0, 100.0 * z_sat, 20001)
    with np.errstate(under="ignore"):
        assert np.array_equal(kdist_cdf(q, z), np.clip(-np.expm1(kdist_logsf(q, z)), 0.0, 1.0))


@pytest.mark.parametrize("q", [1, 2, 3, 5, 20, 64])
def test_kdist_quantile_inverts_the_cdf(q):
    # round trip to the CDF's own round-off, each point the first double that
    # reaches its p, and a scalar for a scalar; against a brentq oracle to a few
    # ulps where the CDF is well conditioned (in the far tails its round-off
    # leaves a flat run of doubles, and the two searches may stop anywhere in it)
    probs = np.array([1e-6, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0 - 1e-9])
    z = kdist_quantile(q, probs)
    assert z.shape == probs.shape and np.all(np.diff(z) > 0.0)
    np.testing.assert_allclose(kdist_cdf(q, z), probs, rtol=1e-12, atol=1e-15)
    oracle = [brentq(lambda x, p=p: kdist_cdf(q, x) - p, 1e-300, _saturation_arg(q), xtol=1e-300,
                     rtol=1e-15, maxiter=500) for p in probs[1:-1]]
    np.testing.assert_allclose(z[1:-1], oracle, rtol=1e-13)
    assert np.all(kdist_cdf(q, z) >= probs) and np.all(kdist_cdf(q, np.nextafter(z, 0.0)) < probs)
    assert kdist_quantile(q, 0.5) == z[4] and isinstance(kdist_quantile(q, 0.5), float)
    # cached per (q, probs), and a caller's edit does not reach the cache
    z[:] = 0.0
    assert np.all(kdist_quantile(q, probs) > 0.0)
    for bad in (0.0, 1.0, -0.5, np.nan):
        with pytest.raises(ValueError):
            kdist_quantile(q, [0.5, bad])


@pytest.mark.parametrize("q", [1, 2, 5, 20, 64])
def test_kdist_elements_do_not_depend_on_their_array(q):
    # closed-form cells share one call on their concatenated arguments, which is
    # exact only if no element depends on the others: z below the 1e-12 series
    # cutoff, x = 2 sqrt(z) either side of 2, x > 700 (which turns on the
    # recurrence's power-of-two rescaling for the whole array), saturated z, +inf
    z_sat = _saturation_arg(q)
    z = np.array([0.0, 1e-300, 3e-13, 1e-12, 1e-6, 0.5, 0.9995**2, 1.0005**2, 30.0, 349.0**2,
                  351.0**2, 1e6, 1e12, z_sat * (1.0 - 2.0**-52), z_sat, 2.0 * z_sat, np.inf])
    mixed = np.random.default_rng(q).permutation(np.tile(z, 7))
    for fn in (kdist_cdf, kdist_logsf):
        for arr in (z, mixed):
            alone = np.array([fn(q, np.array([v]))[0] for v in arr])
            assert np.array_equal(fn(q, arr), alone), (fn.__name__, q)


def _log_s_allocating(n, x, z):
    """ln s_n as first written, a new array on every Clenshaw and recurrence step:
    the oracle that _log_s's reused buffers must match bit for bit."""
    s0, s1, shift = np.empty_like(x), np.empty_like(x), np.zeros_like(x)
    low = x < 2.0
    if low.any():
        zl, half = z[low], np.log(0.5 * x[low])
        acc = np.zeros((4, zl.size))
        for row in _SERIES[::-1]:
            acc *= zl
            acc += row
        i0, p0, j, p1 = acc
        s0[low], s1[low] = 2.0 * (p0 - half * i0), 1.0 + zl * (2.0 * half * j - p1)
    if not low.all():
        xh = x[~low]
        u2, b1, b2 = 2.0 * (4.0 / xh - 1.0), 0.0, 0.0
        for row in _CHEB_K01[:0:-1]:
            b1, b2 = u2 * b1 - b2 + row, b1
        k0, k1 = 0.5 * u2 * b1 - b2 + _CHEB_K01[0]
        root = np.sqrt(xh)
        s0[~low], s1[~low], shift[~low] = 2.0 * k0 / root, root * k1, xh
    prev, cur = (s1, s0) if n == 0 else (s0, s1)
    rescale, exp2 = n > 1 and bool((x > 700.0).any()), 0
    for k in range(1, n):
        step = z * prev if k == 1 else (z / (k * (k - 1))) * prev
        step += cur
        prev, cur = cur, step
        if rescale:
            cur, e = np.frexp(cur)
            prev, exp2 = np.ldexp(prev, -e), exp2 + e
    mant, e = np.frexp(cur)
    return np.log(mant) + (e + exp2) * _LN2 - shift


def test_log_s_buffers_match_allocating_every_step():
    # x below 2 (power series), in [2, 700] (Chebyshev), above 700 (the power-of-two
    # rescaling, on for the whole array) and arrays mixing them, at every order 0..70;
    # thousands of points, as a reordered step changes only about one value in a hundred
    rng = np.random.default_rng(5)
    below = np.array([1e-9, 1e-3, 0.5, 1.0, 1.999999])
    middle = np.concatenate([[2.0, 2.5, 10.0, 99.0, 350.0, 699.9, 700.0], rng.uniform(2.0, 700.0, 2000)])
    above = np.array([700.5, 1e3, 5e4, 1e6, 2.0**29])
    mixed = rng.permutation(np.concatenate([below, middle, above, 10.0 ** rng.uniform(-6, 8, 2000)]))
    for n in range(71):
        for x in (below, middle, above, mixed, mixed[:1], np.concatenate([below, middle])):
            z = 0.25 * x * x
            assert np.array_equal(_log_s(n, x, z), _log_s_allocating(n, x, z)), (n, x)


def test_pdf_at_zero():
    assert kdist_pdf(1, 0.0) == np.inf
    assert kdist_pdf(2, 0.0) == 1.0
    assert kdist_pdf(5, 0.0) == pytest.approx(0.25)


def test_pdf_is_cdf_derivative():
    # below z ~ 1e-2 the q >= 2 cdf is 1 minus a Bessel tail whose
    # absolute accuracy matches the FD increment, so differencing it
    # returns noise; the q = 1 branch stays well conditioned there
    grids = {
        1: (1e-6, 1e-3, 0.5, 5.0, 40.0),
        2: (1e-2, 0.5, 5.0, 40.0),
        20: (1e-2, 0.5, 5.0, 40.0),
    }
    for q, zs in grids.items():
        for z in zs:
            h = z * 1e-5
            fd = (kdist_cdf(q, z + h) - kdist_cdf(q, z - h)) / (2.0 * h)
            if fd == 0.0:
                continue  # tail truncated below double precision
            assert kdist_pdf(q, z) == pytest.approx(fd, rel=1e-5), (q, z)


@pytest.mark.parametrize("q", [1, 3, 20])
def test_pdf_normalizes(q):
    # tail mass beyond 600 is < 6e-10 even at q = 20
    mass, err = quad(lambda z: kdist_pdf(q, z), 0.0, 600.0, limit=300,
                     points=[1e-6, 1.0, float(q), 100.0])
    assert mass == pytest.approx(1.0, abs=5e-8)
    assert err < 1e-7


KDIST = (kdist_cdf, kdist_logsf, kdist_pdf, kdist_sf)


def test_kdist_domain_errors():
    bad_zs = (-1.0, float("nan"), np.array([0.5, float("nan"), 2.0]))
    for fn in KDIST:
        for bad_q in (0, -2, 1.5, True):
            with pytest.raises(ValueError, match="positive integer"):
                fn(bad_q, 1.0)
        for bad_z in bad_zs:
            with pytest.raises(ValueError, match="argument must be >= 0"):
                fn(2, bad_z)
    # log_bessel_k takes order 0 and rejects z = 0 (K diverges there)
    for bad_q in (-2, 1.5, True):
        with pytest.raises(ValueError, match="order"):
            log_bessel_k(bad_q, 1.0)
    for bad_x in bad_zs:
        with pytest.raises(ValueError, match="finite x > 0"):
            log_bessel_k(2, bad_x)


def test_bool_order_is_rejected_not_read_as_one():
    # True == 1 in Python, so an order check by value alone runs it as q = 1
    for fn in (*KDIST, log_bessel_k):
        with pytest.raises(ValueError):
            fn(True, 0.5)
        with pytest.raises(ValueError):
            fn(np.True_, 0.5)


@pytest.mark.parametrize("fn", (*KDIST, log_bessel_k), ids=lambda fn: fn.__name__)
def test_shapes_and_types_follow_the_argument(fn):
    # scalar in, scalar out (float, or numpy.float64 where the result passes
    # through a numpy ufunc); an array keeps its shape, element for element
    scalar_type = np.float64 if fn in (kdist_cdf, kdist_sf) else float
    q = 3
    for z in (0.5, np.array(0.5)):
        got = fn(q, z)
        assert type(got) is scalar_type and got == fn(q, 0.5)
    for z in (np.array([0.5, 2.0, 40.0]), np.geomspace(0.01, 100.0, 6).reshape(2, 3),
              np.zeros(0), np.zeros((0, 3))):
        got = fn(q, z)
        assert type(got) is np.ndarray and got.shape == z.shape
        want = np.array([fn(q, float(v)) for v in z.ravel()]).reshape(z.shape)
        assert np.array_equal(got, want)
