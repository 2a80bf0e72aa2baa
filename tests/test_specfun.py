"""Special-function kernel against arbitrary-precision oracles.

Groups:
 1. Bessel K, evaluated in log form by log_bessel_k: mpmath oracle over
    a (q, x) grid, pinned single values, vectorized vs scalar calls, domain
    errors
 2. Gauss-Laguerre: closed forms at order 1 and 2, moment exactness
    through degree 2D-1, table invariants, input validation
 3. Cascade-power distribution: mpmath oracle, complementarity,
    small-argument closure, density vs finite differences, normalization,
    saturated (+inf) arguments, the CDF's saturation cutoff is bit-exact
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from ris_secrecy import analytic as an
from ris_secrecy.specfun import (
    QuadratureTable,
    _saturation_arg,
    gauss_laguerre,
    kdist_cdf,
    kdist_logsf,
    kdist_pdf,
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


def test_log_bessel_k_beyond_scaled_kernel_range():
    # scipy's scaled kernel reports NaN past x ~ 2^30; the asymptotic
    # takeover has to stay finite and accurate there.  At these magnitudes a
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


@pytest.mark.parametrize("q", [1, 2, 5, 20])
def test_sf_matches_mpmath(q):
    for z in 10.0 ** np.linspace(-10, 2, 25):
        assert kdist_sf(q, float(z)) == pytest.approx(_oracle_sf(q, float(z)), rel=1e-10)


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
    grid, _, _ = an._law(dc, "user_n", "ipsic", dc.eps_n1(table.nodes), table)
    assert grid.shape == (64, 64) and 0.0 < np.mean(grid >= z_sat) < 1.0
    for z in (np.geomspace(1e-14, 1e8, 4001), near, np.array([0.0, np.inf]), grid):
        got = kdist_cdf(q, z)
        assert got.shape == z.shape and np.array_equal(got, via_sf(z)), q
    assert kdist_cdf(q, z_sat) == 1.0 and kdist_cdf(q, 1.0) == via_sf(1.0)


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


def test_kdist_domain_errors():
    for bad_q in (0, -2, 1.5):
        with pytest.raises(ValueError):
            kdist_sf(bad_q, 1.0)
    with pytest.raises(ValueError):
        kdist_sf(2, -1.0)
    with pytest.raises(ValueError):
        kdist_pdf(2, float("nan"))
