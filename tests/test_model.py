"""Checks for the parameter layer and the exact per-draw SINRs.

Groups: mean path gain arithmetic and domain handling; derived-constant
hand values (signal coefficients, mean-field noise, argument scales);
threshold algebra including the perfect-SIC collapse at varpi = 0;
straight-line SINR oracles on synthetic draws; the per-family hand formulas
the registry replaced, matched bit for bit on seeded operating points;
structural SINR facts (far-user ceiling, SIC ordering, power monotonicity);
the scenario registry; dataclass invariant enforcement, NaN in every float
field and infinity outside the distances included.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ris_secrecy import model
from ris_secrecy.analytic import _thresholds, default_table
from ris_secrecy.model import (
    SCENARIOS,
    SINR_FAMILIES,
    DerivedConstants,
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
from ris_secrecy.montecarlo import ChannelDraw

from conftest import BASELINE, make_params, make_passive

# the cited internal/ipSIC user-side law: user_n with the eavesdropper's residual gain
USER_N_IPE = SINR_FAMILIES["user_n"]._replace(residual="omega_ipe")


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
    # mean-field noise: RIS thermal noise over the Q active elements + receiver noise
    v_n = k2 * p.sigma2_t * p.n_active * w_rn + p.sigma2
    v_f = k2 * p.sigma2_t * p.n_active * w_rf + p.sigma2
    v_e1 = k2 * p.sigma2_t * p.n_active * w_re + p.sigma2_e
    v_e2 = k2 * p.sigma2_t * p.n_active * w_rf + p.sigma2_e
    assert dc.scale("user_f", 0.0) == pytest.approx(v_f / (w_br * w_rf), rel=1e-14)
    c_n = p.a_n * p.p_bs * k2
    assert dc.scale("eve_n", 0.0) == pytest.approx(v_e1 / (c_n * w_br * w_re), rel=1e-14)
    assert dc.scale("eve_f", 0.0) == pytest.approx(v_e1 / (w_br * w_re), rel=1e-14)
    assert dc.scale("internal_f_to_n", 0.0) == pytest.approx(
        v_e2 / (c_n * w_br * w_rf), rel=1e-14)
    assert dc.scale("user_n", 0.0) == pytest.approx(v_n / (c_n * w_br * w_rn), rel=1e-14)


def test_amplification_scales_quadratically():
    # without RIS thermal noise the near-user scale is sigma2 / (a_n p_bs kappa^2 omega_br omega_rn)
    base = derive(make_params(sigma2_t=0.0)).scale("user_n", 0.0)
    boosted = derive(make_params(sigma2_t=0.0, kappa=2 * BASELINE["kappa"])).scale("user_n", 0.0)
    assert boosted == pytest.approx(base / 4.0, rel=1e-15)


def test_passive_noise_is_receiver_only():
    dc = derive(make_passive())
    p = dc.params
    c_n = p.a_n * p.p_bs * p.kappa**2
    assert dc.scale("user_n", 0.0) == p.sigma2 / (c_n * dc.omega_br * dc.omega_rn)
    assert dc.scale("user_f", 0.0) == p.sigma2 / (dc.omega_br * dc.omega_rf)
    assert dc.scale("eve_n", 0.0) == p.sigma2_e / (c_n * dc.omega_br * dc.omega_re)
    assert dc.scale("internal_f_to_n", 0.0) == p.sigma2_e / (c_n * dc.omega_br * dc.omega_rf)


def test_threshold_hand_value():
    p = make_params()
    dc = derive(p)
    rho_e = p.p_bs / p.sigma2_e
    gain = p.a_n * rho_e * p.kappa**2 * p.n_active * dc.omega_br * dc.omega_re
    thermal = p.kappa**2 * p.sigma2_t * p.n_active * dc.omega_re / p.sigma2_e
    expected = 2.0**p.r_n * (1.0 + gain / (thermal + 1.0)) - 1.0
    assert 2.0**p.r_n * (1.0 + dc.mean_sinr("eve_n", 0.0)) - 1.0 == pytest.approx(
        expected, rel=1e-14)
    # the residual term only makes the wiretap worse off, so the
    # zeta-dependent threshold can never exceed the perfect-SIC one
    for zeta in (0.1, 1.0, 17.0):
        assert dc.mean_sinr("eve_n", zeta) <= dc.mean_sinr("eve_n", 0.0)


def test_perfect_sic_collapses_residual_terms():
    dc = derive(make_params(varpi=0.0))
    for zeta in (0.0, 0.3, 5.0, 200.0):
        assert dc.mean_sinr("eve_n", zeta) == dc.mean_sinr("eve_n", 0.0)
        assert dc.scale("user_n", zeta) == dc.scale("user_n", 0.0)
        assert dc.scale("eve_n", zeta) == dc.scale("eve_n", 0.0)
        assert dc.scale(USER_N_IPE, zeta) == dc.scale(USER_N_IPE, 0.0)


def test_zero_near_share_saturates_scales():
    dc = derive(make_params(a_f=1.0, a_n=0.0))
    assert dc.scale("user_n", 0.0) == math.inf
    assert dc.scale("eve_n", 0.0) == math.inf


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
        fn = getattr(model, "sinr_" + family)
        for sic in ("ipsic", "psic"):
            want = fn(p, d, sic) if fam.takes_sic else fn(p, d)
            assert sinr(family, p, d, sic) == want, (family, sic)
        assert math.isfinite(getattr(p, fam.distance))
        # a row is data: its share, noise, residual gain and distance name
        # SystemParams fields, its receiver a ChannelDraw gain and norm and a
        # DerivedConstants mean gain
        params_fields = {f.name for f in dataclasses.fields(SystemParams)}
        draw_fields = {f.name for f in dataclasses.fields(ChannelDraw)}
        assert {fam.share, fam.noise, fam.distance} <= params_fields, family
        if fam.takes_sic:
            assert fam.residual in params_fields
            assert model._RESIDUAL_DRAW[fam.residual] in draw_fields
        assert {"cascaded_gain_" + fam.receiver, "norm_" + fam.receiver} <= draw_fields
        assert "omega_r" + fam.receiver in {f.name for f in dataclasses.fields(DerivedConstants)}
    # every outage event pairs known families with a SystemParams rate field
    for events in SCENARIOS.values():
        for legit, eve, rate in events:
            assert legit in SINR_FAMILIES and eve in SINR_FAMILIES
            assert getattr(p, rate) >= 0.0
    with pytest.raises(ValueError):
        sinr("nobody", p, d, "psic")


# ---------------------------------------------------------------------------
# the hand formulas the registry replaced: one exact SINR per family, the
# mean-field noise sums v_*, the CDF argument scales xi_* and the wiretap
# thresholds eps_*.  The registry code must reproduce every one bit for bit.


def ref_residual(p, ip_gain, sic):
    return 0.0 if sic == "psic" else p.varpi * p.p_bs * ip_gain


def ref_sinr_user_n(p, d, sic):
    k2 = p.kappa**2
    num = p.a_n * p.p_bs * k2 * d.cascaded_gain_n
    return num / (k2 * p.sigma2_t * d.norm_n + ref_residual(p, d.ip_user, sic) + p.sigma2)


def ref_sinr_user_f(p, d):
    k2 = p.kappa**2
    num = p.a_f * p.p_bs * k2 * d.cascaded_gain_f
    return num / (p.a_n * p.p_bs * k2 * d.cascaded_gain_f + k2 * p.sigma2_t * d.norm_f + p.sigma2)


def ref_sinr_eve_n(p, d, sic):
    k2 = p.kappa**2
    num = p.a_n * p.p_bs * k2 * d.cascaded_gain_e
    return num / (k2 * p.sigma2_t * d.norm_e + ref_residual(p, d.ip_eve, sic) + p.sigma2_e)


def ref_sinr_eve_f(p, d):
    k2 = p.kappa**2
    num = p.a_f * p.p_bs * k2 * d.cascaded_gain_e
    return num / (p.a_n * p.p_bs * k2 * d.cascaded_gain_e + k2 * p.sigma2_t * d.norm_e
                  + p.sigma2_e)


def ref_sinr_internal_f_to_n(p, d):
    k2 = p.kappa**2
    return p.a_n * p.p_bs * k2 * d.cascaded_gain_f / (k2 * p.sigma2_t * d.norm_f + p.sigma2_e)


def ref_v_n(p, dc):
    return p.kappa**2 * p.sigma2_t * p.n_active * dc.omega_rn + p.sigma2


def ref_v_f(p, dc):
    return p.kappa**2 * p.sigma2_t * p.n_active * dc.omega_rf + p.sigma2


def ref_v_e1(p, dc):
    return p.kappa**2 * p.sigma2_t * p.n_active * dc.omega_re + p.sigma2_e


def ref_v_e2(p, dc):
    return p.kappa**2 * p.sigma2_t * p.n_active * dc.omega_rf + p.sigma2_e


def ref_ratio(num, den):
    return num / den if den > 0.0 else math.inf


def ref_xi_f(p, dc):
    return ref_ratio(ref_v_f(p, dc), dc.omega_br * dc.omega_rf)


def ref_xi_e3(p, dc):
    return ref_ratio(ref_v_e1(p, dc), dc.omega_br * dc.omega_re)


def ref_xi_e4(p, dc):
    return ref_ratio(ref_v_e2(p, dc), p.a_n * p.p_bs * p.kappa**2 * dc.omega_br * dc.omega_rf)


def ref_xi_n(p, dc, zeta):
    num = ref_v_n(p, dc) + p.varpi * p.p_bs * p.omega_ipu * zeta
    den = p.a_n * p.p_bs * p.kappa**2 * dc.omega_br * dc.omega_rn
    return num / den if den > 0.0 else num * math.inf


def ref_xi_e1(p, dc, zeta):
    num = ref_v_e1(p, dc) + p.varpi * p.p_bs * p.omega_ipe * zeta
    den = p.a_n * p.p_bs * p.kappa**2 * dc.omega_br * dc.omega_re
    return num / den if den > 0.0 else num * math.inf


def ref_xi_e5(p, dc, zeta):
    num = ref_v_n(p, dc) + p.varpi * p.p_bs * p.omega_ipe * zeta
    den = p.a_n * p.p_bs * p.kappa**2 * dc.omega_br * dc.omega_rn
    return num / den if den > 0.0 else num * math.inf


def ref_eve_gain(p, dc, a_frac):
    return a_frac * (p.p_bs / p.sigma2_e) * p.kappa**2 * p.n_active * dc.omega_br * dc.omega_re


def ref_eve_thermal(p, dc):
    return p.kappa**2 * p.sigma2_t * p.n_active * dc.omega_re / p.sigma2_e


def ref_eps_n1(p, dc, zeta):
    rho_e = p.p_bs / p.sigma2_e
    mean = ref_eve_gain(p, dc, p.a_n) / (
        ref_eve_thermal(p, dc) + p.varpi * rho_e * p.omega_ipe * zeta + 1.0)
    return 2.0**p.r_n * (1.0 + mean) - 1.0


def ref_eps_n2(p, dc):
    return 2.0**p.r_n * (1.0 + ref_eve_gain(p, dc, p.a_n) / (ref_eve_thermal(p, dc) + 1.0)) - 1.0


def ref_eps_f(p, dc):
    mean = ref_eve_gain(p, dc, p.a_f) / (
        ref_eve_thermal(p, dc) + ref_eve_gain(p, dc, p.a_n) + 1.0)
    return 2.0**p.r_f * (1.0 + mean) - 1.0


def ref_eps_fn(p, dc):
    gain = p.a_n * (p.p_bs / p.sigma2_e) * p.kappa**2 * p.n_active * dc.omega_br * dc.omega_rf
    thermal = p.kappa**2 * p.sigma2_t * p.n_active * dc.omega_rf / p.sigma2_e
    return 2.0**p.r_n * (1.0 + gain / (thermal + 1.0)) - 1.0


def _oracle_points(count: int, seed: int):
    """Seeded operating points with Q in 1..64 that hit every degenerate branch:
    a_n = 0, an unreachable eavesdropper, a passive surface with no thermal
    noise, varpi = 0 and zero residual gains."""
    rng = np.random.default_rng(seed)

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    for i in range(count):
        q, groups = int(rng.integers(1, 65)), int(rng.integers(1, 4))
        passive = i % 5 == 0
        a_n = 0.0 if i % 7 == 0 else u(0.01, 0.49)
        yield SystemParams(
            d_br=u(1, 100), d_rn=u(1, 100), d_rf=u(1, 100),
            d_re=math.inf if i % 6 == 0 else u(1, 100), alpha_p=u(1.5, 4.0),
            beta0=10 ** u(-4, -2), n_elements=q * groups, n_groups=groups, n_active=q,
            kappa=1.0 if passive else u(1.0, 30.0), sigma2=10 ** u(-12, -6),
            sigma2_e=10 ** u(-12, -6), sigma2_t=0.0 if passive else 10 ** u(-10, -4),
            a_f=1.0 - a_n, a_n=a_n, r_f=u(0.0, 2.0), r_n=u(0.0, 2.0),
            varpi=0.0 if i % 4 == 0 else u(0.0, 1.0),
            omega_ipu=0.0 if i % 9 == 0 else 10 ** u(-10, -6),
            omega_ipe=0.0 if i % 8 == 0 else 10 ** u(-10, -6), p_bs=10 ** u(-4, 1),
        )


def _oracle_draw(rng, n=32):
    # synthetic per-trial quantities, a few of them exactly zero
    def field(lo, hi):
        x = 10.0 ** rng.uniform(lo, hi, n)
        x[rng.random(n) < 0.1] = 0.0
        return x

    return _draw(cascaded_gain_n=field(-14, -5), cascaded_gain_f=field(-14, -5),
                 cascaded_gain_e=field(-14, -5), norm_n=field(-9, -3), norm_f=field(-9, -3),
                 norm_e=field(-9, -3), ip_user=field(-12, -6), ip_eve=field(-12, -6))


def test_registry_formulas_match_the_hand_formulas_bit_for_bit():
    exact = {"user_n": ref_sinr_user_n, "user_f": ref_sinr_user_f, "eve_n": ref_sinr_eve_n,
             "eve_f": ref_sinr_eve_f, "internal_f_to_n": ref_sinr_internal_f_to_n}
    table = default_table()
    rng = np.random.default_rng(7)
    for p in _oracle_points(400, seed=20261018):
        dc = derive(p)
        d = _oracle_draw(rng)
        for family, ref in exact.items():
            for sic in ("ipsic", "psic"):
                want = ref(p, d, sic) if SINR_FAMILIES[family].takes_sic else ref(p, d)
                assert np.array_equal(sinr(family, p, d, sic), want), (family, sic, p)
        for zeta in (0.0, table.nodes):
            for got, want in ((dc.scale("user_n", zeta), ref_xi_n(p, dc, zeta)),
                              (dc.scale("eve_n", zeta), ref_xi_e1(p, dc, zeta)),
                              (dc.scale(USER_N_IPE, zeta), ref_xi_e5(p, dc, zeta)),
                              (dc.scale("user_f", zeta), ref_xi_f(p, dc)),
                              (dc.scale("eve_f", zeta), ref_xi_e3(p, dc)),
                              (dc.scale("internal_f_to_n", zeta), ref_xi_e4(p, dc))):
                assert np.shape(got) == np.shape(want) and np.array_equal(got, want), p
        for scenario, sic, want in (("external_n", "ipsic", ref_eps_n1(p, dc, table.nodes)),
                                    ("external_n", "psic", [ref_eps_n2(p, dc)]),
                                    ("external_f", "ipsic", [ref_eps_f(p, dc)]),
                                    ("external_f", "psic", [ref_eps_f(p, dc)]),
                                    ("internal", "ipsic", [ref_eps_fn(p, dc)]),
                                    ("internal", "psic", [ref_eps_fn(p, dc)])):
            tau, _ = _thresholds(dc, scenario, sic, table)
            assert np.array_equal(tau, want), (scenario, sic, p)
        assert ref_eps_n1(p, dc, 0.0) == ref_eps_n2(p, dc)


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


@pytest.mark.parametrize("family", sorted(SINR_FAMILIES))
def test_sinr_rejects_unknown_sic_for_every_family(family):
    # a family the SIC mode does not enter must still refuse a mode that does not exist
    d = _draw(cascaded_gain_n=1e-9, cascaded_gain_f=1e-9, cascaded_gain_e=1e-9)
    with pytest.raises(ValueError, match="sic"):
        sinr(family, make_params(), d, "genie")
    with pytest.raises(ValueError, match="sic"):
        SINR_FAMILIES[family].sic_for("genie")


def test_effective_sic_is_psic_without_a_residual():
    # the SIC mode a family's SINR reads: a family with no residual reads one SINR under both
    for name, fam in SINR_FAMILIES.items():
        expected = ["ipsic", "psic"] if name in ("user_n", "eve_n") else ["psic", "psic"]
        assert [fam.sic_for(sic) for sic in ("ipsic", "psic")] == expected, name


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


@pytest.mark.parametrize("name", ["omega_ipu", "omega_ipe"])
def test_params_reject_infinite_residual_gain(name):
    # pSIC has no residual-free limit of an infinite gain (0 * inf is NaN)
    with pytest.raises(ValueError, match=name):
        make_params(**{name: math.inf})


FLOAT_FIELDS = [f.name for f in dataclasses.fields(SystemParams) if f.type in (float, "float")]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_params_allow_infinity_only_in_distances(name):
    if name.startswith("d_"):
        make_params(**{name: math.inf})
    else:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make_params(**{name: math.inf})


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_params_reject_nan(name):
    with pytest.raises(ValueError, match=name):
        make_params(**{name: float("nan")})
