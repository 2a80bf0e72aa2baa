"""Checks for the parameter layer and the exact per-draw SINRs.

Groups: mean path gain arithmetic and domain handling; derived-constant
hand values (signal coefficients, mean-field noise, argument scales);
threshold algebra including the perfect-SIC collapse at varpi = 0;
straight-line SINR oracles on synthetic draws; structural SINR facts
(far-user ceiling, SIC ordering, power monotonicity); the scenario
registry; dataclass invariant enforcement, NaN in every float field
included.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ris_secrecy import model
from ris_secrecy.model import (
    SCENARIOS,
    SINR_FAMILIES,
    SystemParams,
    derive,
    mean_channel_gain,
    sinr,
    sinr_eve_f,
    sinr_eve_n,
    sinr_internal_f_to_n,
    sinr_user_f,
    sinr_user_n,
)

from conftest import BASELINE, make_params, make_passive


def test_mean_channel_gain_values():
    assert mean_channel_gain(20.0, 2.0, 1e-3) == pytest.approx(2.5e-6, rel=1e-15)
    assert mean_channel_gain(10.0, 2.0, 1e-3) == pytest.approx(1e-5, rel=1e-15)
    assert mean_channel_gain(1.0, 3.7, 0.05) == 0.05
    # an unreachable receiver has zero mean gain, not an error
    assert mean_channel_gain(math.inf, 2.0, 1e-3) == 0.0


def test_mean_channel_gain_domain():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            mean_channel_gain(bad, 2.0, 1e-3)


def test_derive_hand_values():
    p = make_params()
    dc = derive(p)
    k2 = p.kappa**2
    w_br = p.beta0 * p.d_br ** (-p.alpha_p)
    w_rn = p.beta0 * p.d_rn ** (-p.alpha_p)
    w_rf = p.beta0 * p.d_rf ** (-p.alpha_p)
    w_re = p.beta0 * p.d_re ** (-p.alpha_p)
    assert dc.omega_br == pytest.approx(w_br, rel=1e-15)
    assert dc.c_n == pytest.approx(p.a_n * p.p_bs * k2, rel=1e-15)
    assert dc.c_f == pytest.approx(p.a_f * p.p_bs * k2, rel=1e-15)
    assert dc.v_n == pytest.approx(k2 * p.sigma2_t * p.n_active * w_rn + p.sigma2, rel=1e-15)
    assert dc.v_e1 == pytest.approx(k2 * p.sigma2_t * p.n_active * w_re + p.sigma2_e, rel=1e-15)
    assert dc.v_e2 == pytest.approx(k2 * p.sigma2_t * p.n_active * w_rf + p.sigma2_e, rel=1e-15)
    assert dc.rho_e == pytest.approx(p.p_bs / p.sigma2_e, rel=1e-15)
    assert dc.xi_f == pytest.approx(dc.v_f / (w_br * w_rf), rel=1e-14)
    assert dc.xi_e1(0.0) == pytest.approx(dc.v_e1 / (dc.c_n * w_br * w_re), rel=1e-14)
    assert dc.xi_e3 == pytest.approx(dc.v_e1 / (w_br * w_re), rel=1e-14)
    assert dc.xi_e4 == pytest.approx(dc.v_e2 / (dc.c_n * w_br * w_rf), rel=1e-14)
    assert dc.xi_n(0.0) == pytest.approx(dc.v_n / (dc.c_n * w_br * w_rn), rel=1e-14)


def test_amplification_scales_quadratically():
    base = derive(make_params())
    boosted = derive(make_params(kappa=2 * BASELINE["kappa"]))
    assert boosted.c_n == pytest.approx(4.0 * base.c_n, rel=1e-15)
    assert boosted.c_f == pytest.approx(4.0 * base.c_f, rel=1e-15)


def test_passive_noise_is_receiver_only():
    dc = derive(make_passive())
    p = dc.params
    assert dc.v_n == p.sigma2
    assert dc.v_f == p.sigma2
    assert dc.v_e1 == p.sigma2_e
    assert dc.v_e2 == p.sigma2_e


def test_threshold_hand_value():
    p = make_params()
    dc = derive(p)
    gain = p.a_n * dc.rho_e * p.kappa**2 * p.n_active * dc.omega_br * dc.omega_re
    thermal = p.kappa**2 * p.sigma2_t * p.n_active * dc.omega_re / p.sigma2_e
    expected = 2.0**p.r_n * (1.0 + gain / (thermal + 1.0)) - 1.0
    assert dc.eps_n2() == pytest.approx(expected, rel=1e-14)
    # the residual term only makes the wiretap worse off, so the
    # zeta-dependent threshold can never exceed the perfect-SIC one
    for zeta in (0.1, 1.0, 17.0):
        assert dc.eps_n1(zeta) <= dc.eps_n2()


def test_perfect_sic_collapses_residual_terms():
    dc = derive(make_params(varpi=0.0))
    for zeta in (0.0, 0.3, 5.0, 200.0):
        assert dc.eps_n1(zeta) == dc.eps_n2()
        assert dc.xi_n(zeta) == dc.xi_n(0.0)
        assert dc.xi_e1(zeta) == dc.xi_e1(0.0)
        assert dc.xi_e5(zeta) == dc.xi_e5(0.0)


def test_zero_near_share_saturates_scales():
    dc = derive(make_params(a_f=1.0, a_n=0.0))
    assert dc.c_n == 0.0
    assert dc.xi_n(0.0) == math.inf
    assert dc.xi_e1(0.0) == math.inf


def _draw(**kw):
    fields = dict(
        cascaded_gain_n=0.0,
        cascaded_gain_f=0.0,
        cascaded_gain_e=0.0,
        norm_n=0.0,
        norm_f=0.0,
        norm_e=0.0,
        ip_user=0.0,
        ip_eve=0.0,
    )
    fields.update(kw)
    return SimpleNamespace(**fields)


def test_sinr_straight_line_oracles():
    p = make_params()
    k2 = p.kappa**2
    d = _draw(
        cascaded_gain_n=2e-9,
        cascaded_gain_f=3e-10,
        cascaded_gain_e=5e-10,
        norm_n=3e-6,
        norm_f=4e-6,
        norm_e=6e-6,
        ip_user=1e-7,
        ip_eve=2e-7,
    )
    got = sinr_user_n(p, d, "ipsic")
    want = (p.a_n * p.p_bs * k2 * 2e-9) / (
        k2 * p.sigma2_t * 3e-6 + p.varpi * p.p_bs * 1e-7 + p.sigma2
    )
    assert got == pytest.approx(want, rel=1e-14)

    got = sinr_user_n(p, d, "psic")
    want = (p.a_n * p.p_bs * k2 * 2e-9) / (k2 * p.sigma2_t * 3e-6 + p.sigma2)
    assert got == pytest.approx(want, rel=1e-14)

    got = sinr_user_f(p, d)
    want = (p.a_f * p.p_bs * k2 * 3e-10) / (
        p.a_n * p.p_bs * k2 * 3e-10 + k2 * p.sigma2_t * 4e-6 + p.sigma2
    )
    assert got == pytest.approx(want, rel=1e-14)

    got = sinr_eve_n(p, d, "ipsic")
    want = (p.a_n * p.p_bs * k2 * 5e-10) / (
        k2 * p.sigma2_t * 6e-6 + p.varpi * p.p_bs * 2e-7 + p.sigma2_e
    )
    assert got == pytest.approx(want, rel=1e-14)

    got = sinr_eve_f(p, d)
    want = (p.a_f * p.p_bs * k2 * 5e-10) / (
        p.a_n * p.p_bs * k2 * 5e-10 + k2 * p.sigma2_t * 6e-6 + p.sigma2_e
    )
    assert got == pytest.approx(want, rel=1e-14)

    got = sinr_internal_f_to_n(p, d)
    want = (p.a_n * p.p_bs * k2 * 3e-10) / (k2 * p.sigma2_t * 4e-6 + p.sigma2_e)
    assert got == pytest.approx(want, rel=1e-14)


def test_registry_dispatches_to_the_sinr_functions():
    p = make_params()
    d = _draw(cascaded_gain_n=2e-9, cascaded_gain_f=3e-10, cascaded_gain_e=5e-10,
              norm_n=3e-6, norm_f=4e-6, norm_e=6e-6, ip_user=1e-7, ip_eve=2e-7)
    for family, fam in SINR_FAMILIES.items():
        fn = getattr(model, fam.function)
        for sic in ("ipsic", "psic"):
            want = fn(p, d, sic) if fam.takes_sic else fn(p, d)
            assert sinr(family, p, d, sic) == want, (family, sic)
        assert math.isfinite(getattr(p, fam.distance))
    # every outage event pairs known families with a SystemParams rate field
    for events in SCENARIOS.values():
        for legit, eve, rate in events:
            assert legit in SINR_FAMILIES and eve in SINR_FAMILIES
            assert getattr(p, rate) >= 0.0
    with pytest.raises(ValueError):
        sinr("nobody", p, d, "psic")


def test_far_user_sinr_ceiling():
    p = make_params()
    ceiling = p.a_f / p.a_n
    rng = np.random.default_rng(20260813)
    gains = 10.0 ** rng.uniform(-12, 6, size=200)
    d = _draw(cascaded_gain_f=gains, norm_f=np.full_like(gains, 1e-6))
    vals = sinr_user_f(p, d)
    assert np.all(vals < ceiling)
    # the ceiling is approached, not crossed, as the channel hardens
    huge = sinr_user_f(p, _draw(cascaded_gain_f=1e12, norm_f=1e-6))
    assert huge == pytest.approx(ceiling, rel=1e-9)


def test_residual_interference_only_hurts():
    p = make_params()
    rng = np.random.default_rng(3)
    d = _draw(
        cascaded_gain_n=10.0 ** rng.uniform(-12, -6, size=500),
        cascaded_gain_e=10.0 ** rng.uniform(-12, -6, size=500),
        norm_n=10.0 ** rng.uniform(-8, -4, size=500),
        norm_e=10.0 ** rng.uniform(-8, -4, size=500),
        ip_user=10.0 ** rng.uniform(-10, -5, size=500),
        ip_eve=10.0 ** rng.uniform(-10, -5, size=500),
    )
    assert np.all(sinr_user_n(p, d, "psic") >= sinr_user_n(p, d, "ipsic"))
    assert np.all(sinr_eve_n(p, d, "psic") >= sinr_eve_n(p, d, "ipsic"))


def test_sinr_monotone_in_power():
    d = _draw(cascaded_gain_n=2e-9, norm_n=3e-6, ip_user=1e-7)
    powers = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    for sic in ("psic", "ipsic"):
        vals = [sinr_user_n(make_params(p_bs=pw), d, sic) for pw in powers]
        assert all(a < b for a, b in zip(vals, vals[1:])), sic


def test_sinr_rejects_unknown_sic():
    d = _draw(cascaded_gain_n=1e-9, norm_n=1e-6)
    with pytest.raises(ValueError):
        sinr_user_n(make_params(), d, "perfect")
    with pytest.raises(ValueError):
        sinr_eve_n(make_params(), d, "")


def test_params_invariants():
    with pytest.raises(ValueError):
        make_params(d_br=-1.0)
    with pytest.raises(ValueError):
        make_params(sigma2=0.0)
    with pytest.raises(ValueError):
        make_params(a_f=0.6, a_n=0.3)  # split must sum to 1
    with pytest.raises(ValueError):
        make_params(a_f=0.4, a_n=0.6)  # far user must dominate
    with pytest.raises(ValueError):
        make_params(n_elements=41)  # must equal n_groups * n_active
    with pytest.raises(ValueError):
        make_params(kappa=0.5)
    with pytest.raises(ValueError):
        make_params(varpi=1.5)
    with pytest.raises(ValueError):
        make_params(n_groups=0, n_elements=0)
    with pytest.raises(ValueError):
        make_params(r_n=-0.1)


def test_params_allow_infinite_distances():
    p = make_params(d_rf=math.inf, d_re=math.inf)
    dc = derive(p)
    assert dc.omega_rf == 0.0
    assert dc.omega_re == 0.0
    assert isinstance(p, SystemParams)


FLOAT_FIELDS = [f.name for f in dataclasses.fields(SystemParams) if f.type in (float, "float")]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_params_reject_nan(name):
    with pytest.raises(ValueError, match=name):
        make_params(**{name: float("nan")})
