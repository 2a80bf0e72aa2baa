"""Checks for the closed-form engine.

Groups: CDF shape properties (bounds, monotonicity, saturation, the
far-user ceiling); density consistency (nonnegativity, normalization,
finite-difference agreement with the matching CDFs); independent
re-derivations of each outage expression from the model constants and
the cascade distribution; structural SOP facts (SIC ordering, rate and
geometry monotonicity, perfect-SIC collapse); the fixed-eavesdropper
power curve; asymptote forms and regime flags; derived metrics and all
error paths.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from ris_secrecy import analytic as an
from ris_secrecy import config
from ris_secrecy.analytic import (
    DegenerateCurveError,
    UnsupportedScenarioError,
    default_table,
    diversity_order,
    law,
    secrecy_throughput,
    sop,
    sop_asymptotic,
    sop_curve_fixed_eavesdropper,
    sop_system_external,
    sop_union,
)
from ris_secrecy import model
from ris_secrecy.model import (
    SCENARIOS, SIC_MODES, SINR_FAMILIES, DerivedConstants, SopEstimate, derive, scenario_rate,
)
from ris_secrecy.specfun import gauss_laguerre, kdist_cdf, kdist_pdf, kdist_sf

from conftest import make_params

CDFS = {
    "user_n_ipsic": lambda x, p: law(x, p, "user_n", "ipsic"),
    "user_n_psic": lambda x, p: law(x, p, "user_n", "psic"),
    "user_f": lambda x, p: law(x, p, "user_f", "psic"),
}


@pytest.mark.parametrize("name", sorted(CDFS))
def test_cdf_shape(name):
    form = CDFS[name]
    p = make_params()
    xs = np.logspace(-8, 2, 60)
    vals = np.asarray(form(xs, p))
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) >= 0.0)
    assert form(0.0, p) == 0.0
    assert form(1e12, p) == pytest.approx(1.0, abs=1e-12)


def test_far_user_cdf_saturates_at_ceiling():
    p = make_params()
    ceiling = p.a_f / p.a_n
    assert law(ceiling, p, "user_f", "psic") == 1.0
    assert law(ceiling * 2.0, p, "user_f", "psic") == 1.0
    just_below = ceiling * (1.0 - 1e-9)
    assert law(just_below, p, "user_f", "psic") == pytest.approx(1.0, abs=1e-9)


def test_cdf_accepts_scalar_and_array():
    p = make_params()
    xs = np.array([0.0, 1e-3, 0.2, 5.0])
    for form in CDFS.values():
        arr = np.asarray(form(xs, p))
        assert arr.shape == xs.shape
        for x, v in zip(xs, arr):
            assert form(float(x), p) == pytest.approx(v, rel=1e-14, abs=1e-300)


# every (family, SIC) law of the registry, named family_sic where the SIC mode enters
LAWS = {
    (f"{family}_{sic}" if fam.takes_sic else family): (family, sic if fam.takes_sic else "psic")
    for family, fam in SINR_FAMILIES.items() for sic in SIC_MODES
}
WIRETAP_LAWS = sorted(name for name, (family, _) in LAWS.items()
                      if any(family == eve for events in SCENARIOS.values() for _, eve, _ in events))


def _law_forms(name):
    family, sic = LAWS[name]
    return (lambda x, p: law(x, p, family, sic, density=True),
            lambda x, p: law(x, p, family, sic))


def _support_cut(name, p):
    # upper integration limit with provably negligible tail: the smallest
    # argument scale maps 600 back to x, and kdist_sf(q, 600) < 6e-10
    fam = SINR_FAMILIES[LAWS[name][0]]
    if fam.capped:
        return p.a_f / p.a_n
    return 600.0 / derive(p).scale(fam, 0.0)


def test_law_registry_resolves():
    p = make_params()
    dc = derive(p)
    assert len(LAWS) == 7 and len(WIRETAP_LAWS) == 4
    for family, fam in SINR_FAMILIES.items():
        # the row names the SystemParams fields and the receiver's
        # DerivedConstants mean gain that dc.scale reads
        assert {fam.share, fam.noise} | {fam.residual} - {None} <= set(p.__dataclass_fields__)
        assert "omega_r" + fam.receiver in DerivedConstants.__dataclass_fields__, family
        for sic in SIC_MODES:
            value = dc.scale(family, default_table().nodes if sic == "ipsic" else 0.0)
            assert np.all(np.isfinite(value)) and np.all(np.asarray(value) > 0.0), (family, sic)
            # a quadrature axis exactly where the residual power enters
            assert np.ndim(value) == int(fam.takes_sic and sic == "ipsic"), (family, sic)
        assert callable(getattr(model, "sinr_" + family)) and fam.distance in p.__dataclass_fields__
    # every single-event scenario resolves to registry families and a closed form
    for scenario, events in SCENARIOS.items():
        if len(events) > 1:
            continue
        (legit, eve, _), = events
        assert legit in SINR_FAMILIES and eve in SINR_FAMILIES
        for sic in SIC_MODES:
            est = sop(p, scenario, sic)
            assert 0.0 < est.value < 1.0 and est.provenance == "analytic", (scenario, sic)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_pdf_nonnegative_and_normalized(name):
    pdf, _ = _law_forms(name)
    p = make_params()
    hi = _support_cut(name, p)
    xs = np.linspace(1e-9 * hi, hi * 0.999, 200)
    assert np.all(np.asarray(pdf(xs, p)) >= 0.0)
    mass, err = quad(lambda x: float(np.asarray(pdf(x, p)).reshape(())), 0.0, hi,
                     limit=400, points=[hi * 1e-6, hi * 0.01, hi * 0.5])
    assert mass == pytest.approx(1.0, abs=1e-4), name
    assert err < 1e-6


@pytest.mark.parametrize("name", sorted(LAWS))
def test_pdf_matches_cdf_derivative(name):
    pdf, cdf = _law_forms(name)
    p = make_params()
    hi = _support_cut(name, p)
    for frac in (1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.6, 0.9):
        x = frac * hi
        h = x * 1e-5
        lo_v = float(np.asarray(cdf(x - h, p)).reshape(()))
        hi_v = float(np.asarray(cdf(x + h, p)).reshape(()))
        fd = (hi_v - lo_v) / (2.0 * h)
        got = float(np.asarray(pdf(x, p)).reshape(()))
        if fd < 1e-12 or hi_v > 1.0 - 1e-6:
            # flat or saturated tail: the CDF difference is below the
            # resolution of values this close to 1
            continue
        assert got == pytest.approx(fd, rel=1e-4), (name, frac)


@pytest.mark.parametrize("name", WIRETAP_LAWS)
def test_pdf_of_unreachable_wiretap_receiver(name):
    # zerorate: infinite d_rf and d_re make every wiretap scale infinite and
    # the wiretap SINR surely 0, so the density is 0 for x > 0 and +inf at
    # x = 0, never inf * 0
    pdf, _ = _law_forms(name)
    p = config.realize_point(config.load_preset("zerorate"), None, "aris")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dens = np.asarray(pdf(np.array([0.0, 0.5, 1.0]), p))
        scalar = float(np.asarray(pdf(0.3, p)).reshape(()))
    assert dens[0] == np.inf, name
    assert np.all(dens[1:] == 0.0) and scalar == 0.0, name


# ---------------------------------------------------------------------------
# independent re-derivations of the outage expressions


def _threshold(dc, wiretap, rate, zeta):
    """2^R (1 + mean-field wiretap SINR) - 1."""
    return 2.0**rate * (1.0 + dc.mean_sinr(wiretap, zeta)) - 1.0


def test_external_n_psic_rederived():
    p = make_params()
    dc = derive(p)
    want = 1.0 - kdist_sf(p.n_active, _threshold(dc, "eve_n", p.r_n, 0.0) * dc.scale("user_n", 0.0))
    assert sop(p, "external_n", "psic").value == pytest.approx(want, rel=1e-14)


def test_external_n_ipsic_rederived_by_double_loop():
    p = make_params()
    dc = derive(p)
    t = gauss_laguerre(64)
    total = 0.0
    for ws, zs in zip(t.weights, t.nodes):
        eps = _threshold(dc, "eve_n", p.r_n, zs)
        for wd, zd in zip(t.weights, t.nodes):
            total += ws * wd * float(kdist_cdf(p.n_active, eps * dc.scale("user_n", zd)))
    assert sop(p, "external_n", "ipsic").value == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("q", [2, 20])
def test_psic_tail_keeps_relative_accuracy(q):
    # an unreachable eavesdropper and a 1e-15 rate put the threshold 2^r_n - 1
    # deep in the tail, where the CDF is z / (Q - 1) to double precision
    p = make_params(n_elements=2 * q, n_active=q, d_re=math.inf, r_n=1e-15, r_f=1e-15)
    x = 2.0**p.r_n - 1.0
    want = x * derive(p).scale("user_n", 0.0) / (q - 1)
    assert sop(p, "external_n", "psic").value == pytest.approx(want, rel=1e-12, abs=0.0)
    assert law(x, p, "user_n", "psic") == pytest.approx(want, rel=1e-12, abs=0.0)


def test_external_f_rederived():
    p = make_params()
    dc = derive(p)
    eps = _threshold(dc, "eve_f", p.r_f, 0.0)
    c_n, c_f = p.a_n * p.p_bs * p.kappa**2, p.a_f * p.p_bs * p.kappa**2
    want = 1.0 - kdist_sf(p.n_active, eps * dc.scale("user_f", 0.0) / (c_f - eps * c_n))
    assert sop(p, "external_f", "psic").value == pytest.approx(want, rel=1e-14)


def test_internal_rederived():
    p = make_params()
    dc = derive(p)
    eps = _threshold(dc, "internal_f_to_n", p.r_n, 0.0)
    want_psic = 1.0 - kdist_sf(p.n_active, eps * dc.scale("user_n", 0.0))
    assert sop(p, "internal", "psic").value == pytest.approx(want_psic, rel=1e-14)
    t = gauss_laguerre(64)
    # the cited closed form couples the eavesdropper's residual gain into the user law
    user_n_ipe = SINR_FAMILIES["user_n"]._replace(residual="omega_ipe")
    want_ipsic = float(kdist_cdf(p.n_active, eps * dc.scale(user_n_ipe, t.nodes)) @ t.weights)
    assert sop(p, "internal", "ipsic").value == pytest.approx(want_ipsic, rel=1e-12)


def test_system_external_is_union_of_per_user_events():
    p = make_params()
    for sic in ("ipsic", "psic"):
        s_n = sop(p, "external_n", sic).value
        s_f = sop(p, "external_f", "psic").value
        want = 1.0 - (1.0 - s_n) * (1.0 - s_f)
        assert sop_system_external(p, sic).value == pytest.approx(want, rel=1e-15)


def test_system_flags_keep_first_seen_order(monkeypatch):
    # a set union would order two distinct flags by PYTHONHASHSEED
    n = SopEstimate(0.2, "analytic", flags=("clamp-drift",))
    f = SopEstimate(0.5, "analytic", flags=("saturated", "clamp-drift"))
    assert sop_union(n, f) == SopEstimate(0.6, "analytic", flags=("clamp-drift", "saturated"))
    assert sop_union(f, n).flags == ("saturated", "clamp-drift")
    per_user = {"external_n": n, "external_f": f}
    monkeypatch.setattr(an, "sop", lambda params, scenario, sic: per_user[scenario])
    assert sop_system_external(make_params(), "ipsic").flags == ("clamp-drift", "saturated")


# ---------------------------------------------------------------------------
# structural facts


def test_sop_bounds_and_provenance():
    p = make_params()
    for scenario, sic in (
        ("external_n", "ipsic"),
        ("external_n", "psic"),
        ("external_f", "psic"),
        ("internal", "ipsic"),
        ("internal", "psic"),
    ):
        est = sop(p, scenario, sic)
        assert isinstance(est, SopEstimate)
        assert 0.0 <= est.value <= 1.0
        assert est.provenance == "analytic"


def test_residual_interference_raises_outage():
    # imperfect SIC can only hurt: the wiretap thresholds are unchanged
    # (internal) or lowered (external) while the user's own CDF shifts up
    for p_bs in (0.001, 0.01, 0.1):
        p = make_params(p_bs=p_bs)
        assert sop(p, "internal", "ipsic").value >= sop(p, "internal", "psic").value
        assert sop(p, "external_n", "ipsic").value >= sop(p, "external_n", "psic").value


def test_sop_monotone_in_target_rate():
    vals = [sop(make_params(r_n=r), "external_n", "psic").value for r in (0.01, 0.05, 0.2, 1.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_sop_improves_with_closer_user():
    near = sop(make_params(d_rn=5.0), "external_n", "psic").value
    far = sop(make_params(d_rn=15.0), "external_n", "psic").value
    assert near < far


def test_sop_improves_with_distant_eavesdropper():
    close = sop(make_params(d_re=20.0), "external_n", "psic").value
    distant = sop(make_params(d_re=60.0), "external_n", "psic").value
    assert distant < close


def test_perfect_sic_collapse():
    p = make_params(varpi=0.0)
    assert sop(p, "external_n", "ipsic").value == pytest.approx(
        sop(p, "external_n", "psic").value, abs=1e-9
    )
    assert sop(p, "internal", "ipsic").value == pytest.approx(
        sop(p, "internal", "psic").value, abs=1e-9
    )
    xs = np.logspace(-6, 1, 30)
    np.testing.assert_allclose(
        law(xs, p, "user_n", "ipsic"), law(xs, p, "user_n", "psic"), atol=1e-9
    )


def test_far_user_saturation_flag():
    est = sop(make_params(r_f=5.0), "external_f", "psic")
    assert est.value == 1.0
    assert "saturated" in est.flags


def test_quadrature_order_stability():
    p = make_params()
    base = sop(p, "external_n", "ipsic").value
    t128 = default_table(128)
    refined = sop(p, "external_n", "ipsic", table=t128).value
    assert abs(refined - base) < 1e-8


def test_default_table_is_cached():
    assert default_table() is default_table()
    assert default_table(32) is default_table(32)
    fresh = gauss_laguerre(32)
    np.testing.assert_array_equal(default_table(32).nodes, fresh.nodes)


# ---------------------------------------------------------------------------
# fixed-eavesdropper curve and asymptotes


def test_fixed_eavesdropper_curve_matches_sop_at_operating_point():
    p = make_params()
    for scenario, sic in (
        ("external_n", "ipsic"),
        ("external_n", "psic"),
        ("external_f", "psic"),
        ("internal", "ipsic"),
        ("internal", "psic"),
    ):
        curve = sop_curve_fixed_eavesdropper(p, scenario, sic, [p.p_bs])
        assert curve[0] == pytest.approx(sop(p, scenario, sic).value, rel=1e-12)


def test_fixed_eavesdropper_curve_decays_with_power():
    p = make_params()
    powers = p.p_bs * 10.0 ** np.arange(0, 4)
    curve = sop_curve_fixed_eavesdropper(p, "external_n", "psic", powers)
    assert np.all(np.diff(curve) < 0.0)


def test_fixed_eavesdropper_curve_rejects_unknown_combo():
    with pytest.raises(ValueError):
        sop_curve_fixed_eavesdropper(make_params(), "sidelink", "psic", [0.01])
    with pytest.raises(ValueError):
        sop_curve_fixed_eavesdropper(make_params(), "internal", "genie", [0.01])


def test_asymptote_small_argument_form():
    # a distant eavesdropper keeps the outage argument inside the regime
    p = make_params(p_bs=10.0, d_re=2000.0)
    dc = derive(p)
    u = _threshold(dc, "eve_n", p.r_n, 0.0) * dc.scale("user_n", 0.0)
    assert u < 0.1
    est = sop_asymptotic(p, "external_n", "psic")
    assert est.flags == ()
    assert est.value == pytest.approx(u / (p.n_active - 1), rel=1e-14)


def test_asymptote_single_element_log_form():
    p = make_params(
        p_bs=10.0, d_re=2000.0, n_elements=40, n_groups=40, n_active=1
    )
    dc = derive(p)
    u = _threshold(dc, "eve_n", p.r_n, 0.0) * dc.scale("user_n", 0.0)
    est = sop_asymptotic(p, "external_n", "psic")
    assert est.value == pytest.approx(-u * math.log(u), rel=1e-14)


def test_asymptote_flags_out_of_regime():
    est = sop_asymptotic(make_params(), "external_n", "psic")
    assert "asymptote-regime-invalid" in est.flags


@pytest.mark.parametrize("edits", [{"a_n": 0.0, "a_f": 1.0}, {"d_br": math.inf}, {"d_rn": math.inf}],
                         ids=["a_n=0", "d_br=inf", "d_rn=inf"])
def test_ipsic_floor_asymptote_without_near_user_signal(edits):
    # no signal reaches the near user: the floor's scale is infinite and the
    # asymptote is certain outage, as the exact closed form gives
    p = make_params(**edits)
    exact = sop(p, "external_n", "ipsic").value
    assert sop_asymptotic(p, "external_n", "ipsic").value == exact == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("edits", [{"a_n": 0.0, "a_f": 1.0}, {"d_br": math.inf}, {"d_rn": math.inf}],
                         ids=["a_n=0", "d_br=inf", "d_rn=inf"])
def test_certain_outage_reads_exactly_one(edits):
    # every quadrature term is 1.0 here, while the order-64 weights sum to
    # 1 - 1e-16: the averages must give Monte Carlo's exact 1.0
    p = make_params(**edits)
    assert law(1.0, p, "user_n", "ipsic") == 1.0
    assert sop(p, "external_n", "ipsic").value == 1.0
    assert sop_asymptotic(p, "external_n", "ipsic").value == 1.0


def test_asymptote_internal_ipsic_unsupported():
    with pytest.raises(UnsupportedScenarioError):
        sop_asymptotic(make_params(), "internal", "ipsic")


# ---------------------------------------------------------------------------
# derived metrics and error paths


def test_diversity_order_exact_powerlaw():
    rhos = [1e2, 1e3, 1e4]
    curve = [(r, 5.0 * r**-2.0) for r in rhos]
    assert diversity_order(curve) == pytest.approx(2.0, rel=1e-12)
    flat = [(r, 0.25) for r in rhos]
    assert diversity_order(flat) == pytest.approx(0.0, abs=1e-12)


def test_diversity_order_error_paths():
    with pytest.raises(DegenerateCurveError):
        diversity_order([(1e3, 0.1)])
    with pytest.raises(DegenerateCurveError):
        diversity_order([(1e3, 0.1), (1e3, 0.05)])
    with pytest.raises(DegenerateCurveError):
        diversity_order([(1e3, 0.1), (1e4, 0.0)])
    with pytest.raises(DegenerateCurveError):
        diversity_order([(-1.0, 0.1), (1e4, 0.05)])


@pytest.mark.parametrize("curve", [[(1.0, 0.1), (math.inf, 0.01)],
                                   [(1e3, 0.1), (1e4, math.nan)],
                                   [(math.nan, 0.1), (1e3, 0.1), (1e4, 0.01)],
                                   [(1e3, math.inf), (1e4, 0.01)]],
                         ids=["rho-inf", "sop-nan", "rho-nan-early", "sop-inf"])
def test_diversity_order_rejects_non_finite_points(curve):
    with pytest.raises(DegenerateCurveError):
        diversity_order(curve)


def test_secrecy_throughput():
    assert secrecy_throughput(0.25, 0.2) == pytest.approx(0.15, rel=1e-15)
    assert secrecy_throughput(1.0, 0.2) == 0.0
    assert secrecy_throughput(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        secrecy_throughput(1.2, 0.1)
    with pytest.raises(ValueError):
        secrecy_throughput(0.5, -0.1)
    # a NaN or infinite rate is no rate: (1 - SOP) * nan would pass NaN on
    for rate in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            secrecy_throughput(0.5, rate)


def test_scenario_rate():
    p = make_params(r_f=0.07, r_n=0.05)
    assert scenario_rate(p, "external_n") == 0.05
    assert scenario_rate(p, "internal") == 0.05
    assert scenario_rate(p, "external_f") == 0.07
    assert scenario_rate(p, "system_external") == pytest.approx(0.12, rel=1e-15)
    with pytest.raises(ValueError):
        scenario_rate(p, "uplink")


def test_system_external_errors_name_its_closed_form():
    # the union has a closed form, just not through the per-event entry points
    for fn in (sop, sop_asymptotic):
        with pytest.raises(ValueError, match="sop_system_external"):
            fn(make_params(), "system_external", "psic")


def test_dispatch_errors():
    p = make_params()
    with pytest.raises(ValueError):
        sop(p, "sidelink", "psic")
    with pytest.raises(ValueError):
        sop(p, "external_n", "genie")
    with pytest.raises(ValueError):
        sop(p, "internal", "genie")
    with pytest.raises(ValueError):
        sop(p, "external_f", "genie")
    with pytest.raises(ValueError):
        sop_asymptotic(p, "sidelink", "psic")
    with pytest.raises(ValueError):
        law(0.3, p, "user_n", "genie")
    with pytest.raises(ValueError):
        law(0.3, p, "eve_f", "genie", density=True)
