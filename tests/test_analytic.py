"""Checks for the closed-form engine.

Groups: CDF shape properties (bounds, monotonicity, saturation, the
far-user ceiling), for every registry law (F(0) = 0, nondecreasing, all
but 1e-4 of the mass inside the support cut); independent
re-derivations of each outage expression from the model constants and
the cascade distribution; structural SOP facts (SIC ordering, rate and
geometry monotonicity, perfect-SIC collapse); the fixed-eavesdropper
power curve; asymptote forms and regime flags; derived metrics and all
error paths.
"""

import math
import pickle
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from ris_secrecy import analytic as an
from ris_secrecy import config
from ris_secrecy.analytic import (
    DegenerateCurveError,
    UnsupportedScenarioError,
    default_table,
    diversity_order,
    law,
    law_points,
    secrecy_throughput,
    sop,
    sop_asymptotic,
    sop_curve_fixed_eavesdropper,
    sop_system_external,
    sop_union,
)
from ris_secrecy import model
from ris_secrecy.model import (
    LAW_FIELDS, SCENARIOS, SIC_MODES, SINR_FAMILIES, DerivedConstants, SopEstimate, SystemParams, derive,
    scenario_rate, sinr,
)
from ris_secrecy.montecarlo import (
    empirical_sinr_cdfs, estimate_sop, estimate_sop_grid, sample_draw, sinr_samples,
)
from ris_secrecy.specfun import gauss_laguerre, kdist_cdf, kdist_quantile, kdist_sf

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
    # a scalar or 0-d argument gives a float, as every specfun entry gives
    want = law(0.2, p, "user_n", "ipsic")
    for x in (np.float64(0.2), np.array(0.2)):
        got = law(x, p, "user_n", "ipsic")
        assert type(got) is float and got == want
    assert law(np.array([0.2]), p, "user_n", "ipsic").shape == (1,)


# every (family, SIC) law of the registry, named family_sic where the SIC mode enters
LAWS = {
    (f"{family}_{sic}" if fam.takes_sic else family): (family, sic if fam.takes_sic else "psic")
    for family, fam in SINR_FAMILIES.items() for sic in SIC_MODES
}
WIRETAP_LAWS = sorted(name for name, (family, _) in LAWS.items()
                      if any(family == eve for events in SCENARIOS.values() for _, eve, _ in events))


def _support_cut(name, p):
    # a point past which the law has provably negligible mass: the smallest
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
@pytest.mark.parametrize("q", [1, 4, 64])
def test_law_points_are_the_law_quantiles(name, q):
    # where the family reads pSIC the points are the law's exact quantiles; under
    # ipSIC they take the scale at the mean residual power, so law reads near p;
    # an unreachable receiver puts every point at 0
    family, sic = LAWS[name]
    probs = np.linspace(0.1, 0.9, 9)
    for p in (make_params(n_active=q, n_elements=2 * q), make_params(n_active=q, n_elements=2 * q, kappa=1.0,
                                                                      sigma2_t=0.0, d_re=40.0)):
        x = law_points(p, family, sic, probs)
        assert np.all(np.diff(x) > 0.0) and x[0] > 0.0
        if SINR_FAMILIES[family].sic_for(sic) == "psic":
            np.testing.assert_allclose(law(x, p, family, sic), probs, rtol=0.0, atol=1e-12)
        else:  # the scale at zeta = 1, the mean of the exponential residual power
            scale = derive(p).scale(SINR_FAMILIES[family], 1.0)
            assert np.array_equal(x, kdist_quantile(q, probs) / scale), name
            assert np.max(np.abs(law(x, p, family, sic) - probs)) < 0.05, name
    gone = make_params(**{SINR_FAMILIES[family].distance: math.inf})
    assert np.array_equal(law_points(gone, family, sic, probs), np.zeros(9))


@pytest.mark.parametrize("name", sorted(LAWS))
def test_pdf_nonnegative_and_normalized(name):
    # the law's CDF: it starts at 0, never decreases, and leaves at most 1e-4
    # of its mass past the support cut
    family, sic = LAWS[name]
    p = make_params()
    hi = _support_cut(name, p)
    cdf = law(np.linspace(0.0, hi, 200), p, family, sic)
    assert cdf[0] == 0.0 and np.all(np.diff(cdf) >= 0.0), name
    assert 1.0 - cdf[-1] <= 1e-4, name


@pytest.mark.parametrize("name", WIRETAP_LAWS)
def test_pdf_of_unreachable_wiretap_receiver(name):
    # zerorate: infinite d_rf and d_re make every wiretap scale infinite and
    # the wiretap SINR surely 0, so the CDF is exactly 1 for x > 0, never 0 * inf
    family, sic = LAWS[name]
    p = config.realize_point(config.load_preset("zerorate"), None, "aris")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf = law(np.array([1e-300, 0.5, 1.0, np.inf]), p, family, sic)
        scalar = law(0.3, p, family, sic)
    assert np.all(cdf == 1.0) and scalar == 1.0, name


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
    # sop composes the union of its events' kernel values in registry order:
    # the near event drifts below 0, the far one is saturated and drifts above 1
    events = SCENARIOS["system_external"]
    kernel = {events[0]: (-0.5, False), events[1]: (1.5, True)}
    monkeypatch.setattr(an.CascadeBatch, "register", lambda self, dc, event, *a: event)
    monkeypatch.setattr(an.CascadeBatch, "outage", lambda self, event: kernel[event])
    assert sop(make_params(), "system_external", "ipsic").flags == ("clamp-drift", "saturated")
    monkeypatch.setitem(SCENARIOS, "system_external", events[::-1])
    assert sop(make_params(), "system_external", "ipsic").flags == ("saturated", "clamp-drift")


def _closed_forms(p):
    """sop and sop_asymptotic (or the reason it has none) of every scenario and SIC mode."""
    out = []
    for scenario in SCENARIOS:
        for sic in SIC_MODES:
            out.append(sop(p, scenario, sic))
            try:
                out.append(sop_asymptotic(p, scenario, sic))
            except UnsupportedScenarioError as exc:
                out.append(str(exc))
    return out


def test_element_split_at_fixed_q_changes_no_closed_form():
    # the sweep shares one batch among points equal on LAW_FIELDS, every field but
    # M and P: a closed form that read either would differ between these splits
    assert set(LAW_FIELDS) == {f.name for f in fields(SystemParams)} - {"n_elements", "n_groups"}
    for base in (make_params(), make_params(a_f=0.9, a_n=0.1, r_f=4.0),
                 make_params(kappa=1.0, sigma2_t=0.0, n_active=1, n_elements=2, n_groups=2)):
        want = _closed_forms(base)
        for groups in (1, 3, 7):
            split = replace(base, n_groups=groups, n_elements=groups * base.n_active)
            assert _closed_forms(split) == want, groups


@pytest.mark.parametrize("sic", SIC_MODES)
def test_sop_of_the_system_event_is_the_union_of_its_events_bit_for_bit(sic):
    for p in (make_params(), make_params(a_f=0.9, a_n=0.1, r_f=4.0), make_params(n_active=1,
              n_elements=2, n_groups=2)):
        want = sop_union(sop(p, "external_n", sic), sop(p, "external_f", sic))
        assert sop(p, "system_external", sic) == want
        assert sop_system_external(p, sic) == want
    # the far event at the NOMA ceiling: the union carries its flag
    assert "saturated" in sop(make_params(a_f=0.9, a_n=0.1, r_f=4.0), "system_external", sic).flags


def test_registry_extension_reaches_sop_and_estimate_sop(monkeypatch):
    # a new composed scenario is one registry entry: no engine names it
    near, internal = SCENARIOS["external_n"][0], SCENARIOS["internal"][0]
    monkeypatch.setitem(SCENARIOS, "system_internal", (near, internal))
    p = make_params()
    for sic in SIC_MODES:
        want = sop_union(sop(p, "external_n", sic), sop(p, "internal", sic))
        assert sop(p, "system_internal", sic) == want
    assert scenario_rate(p, "system_internal") == p.r_n + p.r_n
    est = estimate_sop(p, "system_internal", "ipsic", 4000, 11)
    draw = sample_draw(p, 4000, 11)
    gamma = {f: sinr(f, p, draw, "ipsic") for f in ("user_n", "eve_n", "internal_f_to_n")}
    fired = ((gamma["user_n"] < model.secrecy_threshold(p, "r_n", gamma["eve_n"]))
             | (gamma["user_n"] < model.secrecy_threshold(p, "r_n", gamma["internal_f_to_n"])))
    assert est.value == np.count_nonzero(fired) / 4000 and est.trials == 4000


UNKNOWN_NAMES = {
    "sop": ("scenario", lambda p: sop(p, "sidelink", "psic")),
    "sop_asymptotic": ("scenario", lambda p: sop_asymptotic(p, "sidelink", "psic")),
    "sop_curve_fixed_eavesdropper":
        ("scenario", lambda p: sop_curve_fixed_eavesdropper(p, "sidelink", "psic", [p.p_bs])),
    "scenario_rate": ("scenario", lambda p: scenario_rate(p, "sidelink")),
    "estimate_sop": ("scenario", lambda p: estimate_sop(p, "sidelink", "psic", 100, 1)),
    "estimate_sop_grid": ("scenario", lambda p: estimate_sop_grid([(p, "sidelink", "psic")], 100, 1)),
    "law": ("SINR family", lambda p: law(0.3, p, "sidelink", "psic")),
    "sinr": ("SINR family", lambda p: sinr("sidelink", p, sample_draw(p, 10, 1), "psic")),
    "sinr_samples": ("SINR family", lambda p: sinr_samples(p, [("sidelink", "psic")], 100, 1)),
    "empirical_sinr_cdfs":
        ("SINR family", lambda p: empirical_sinr_cdfs(p, [("sidelink", "psic", [1.0])], 100, 1)),
}


@pytest.mark.parametrize("entry", sorted(UNKNOWN_NAMES))
def test_one_error_for_an_unknown_registry_name(entry):
    # every engine entry point reports an unknown name through its registry
    what, call = UNKNOWN_NAMES[entry]
    known = SCENARIOS if what == "scenario" else SINR_FAMILIES
    message = f"unknown {what} 'sidelink'; known: {', '.join(known)}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        call(make_params())


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
    refined = sop(p, "external_n", "ipsic", batch=an.CascadeBatch(p, t128)).value
    assert abs(refined - base) < 1e-8


def test_sop_refuses_a_batch_of_another_operating_point():
    # a batch fixes the operating point its kernels read, so a call for another
    # point raises rather than answer with the batch's point
    cfg = config.load_preset("fig2")
    low, high = (config.realize_point(cfg, p_tot_dbm, "aris") for p_tot_dbm in (0.0, 32.0))
    batch = an.CascadeBatch(low)
    for fn in (sop, sop_asymptotic):
        with pytest.raises(ValueError, match="operating point"):
            fn(high, "external_n", "psic", batch=batch)
    # the batch's own params, or an equal copy of them, share its kernel call
    assert sop(low, "external_n", "psic", batch=batch) == sop(low, "external_n", "psic")
    assert sop(replace(low), "external_n", "psic", batch=batch) == sop(low, "external_n", "psic")
    assert sop(high, "external_n", "psic").value == pytest.approx(0.32288, abs=1e-5)
    assert sop(low, "external_n", "psic").value == pytest.approx(0.99999681, abs=1e-8)


def test_probes_share_the_batch_and_move_no_cell(monkeypatch):
    # CDF probes planned beside the SOP cells of one CascadeBatch, before and after
    # them, share their one kdist_cdf call, change no sop or sop_asymptotic value by
    # a single bit, and each reads law called alone bit for bit: pSIC and ipSIC
    # families, the capped rows (user_f, eve_f) and points at the NOMA ceiling
    requests = [(family, sic) for family in SINR_FAMILIES for sic in SIC_MODES]
    cells = [(fn, scenario, sic) for fn in (sop, sop_asymptotic) for scenario in SCENARIOS for sic in SIC_MODES]

    def read(p, batch):
        out = []
        for fn, scenario, sic in cells:
            try:
                out.append(fn(p, scenario, sic, batch=batch))
            except UnsupportedScenarioError:
                out.append(None)
        return out

    calls = []
    monkeypatch.setattr(an, "kdist_cdf", lambda q, z, _real=an.kdist_cdf: calls.append(z.size) or _real(q, z))
    for p in (make_params(), make_params(a_f=0.9, a_n=0.1, r_f=4.0),
              make_params(kappa=1.0, sigma2_t=0.0, n_active=1, n_elements=2, n_groups=2)):
        alone = read(p, None)
        ceiling = p.a_f / p.a_n
        points = [np.append(law_points(p, family, sic, np.linspace(0.1, 0.9, 9)),
                            [0.0, ceiling * (1.0 - 1e-9), ceiling, 2.0 * ceiling]) for family, sic in requests]
        assert all(np.isfinite(x).all() for x in points)
        batch = an.CascadeBatch(p)
        calls.clear()
        probes = [batch.probe(*request, x) for request, x in zip(requests[:4], points[:4])]
        for _, scenario, sic in cells[:len(cells) // 2]:
            for engine in ("analytic", "asymptotic"):
                batch.plan(scenario, sic, engine)
        probes += [batch.probe(*request, x) for request, x in zip(requests[4:], points[4:])]
        assert pickle.dumps(read(p, batch)) == pickle.dumps(alone)
        assert len(calls) == 1
        for request, x, probe in zip(requests, points, probes):
            got = batch.cdf(probe)
            assert np.array_equal(got, law(x, p, *request)), request
            assert got[-4] == 0.0
            if SINR_FAMILIES[request[0]].capped:
                assert got[-2] == got[-1] == 1.0, request
        assert len(calls) == 1 + len(requests)  # law's own batches, one call each


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


def test_fixed_eavesdropper_curve_is_one_kernel_call(monkeypatch):
    # every power of a curve shares one kdist_cdf call, and the curve equals
    # its points taken one at a time, bit for bit
    p = make_params()
    powers = p.p_bs * 10.0 ** np.arange(-2.0, 4.0)
    calls, real = [], an.kdist_cdf
    monkeypatch.setattr(an, "kdist_cdf", lambda q, z: calls.append(np.size(z)) or real(q, z))
    for scenario, sic in (("external_n", "ipsic"), ("external_f", "psic"), ("internal", "ipsic")):
        calls.clear()
        curve = sop_curve_fixed_eavesdropper(p, scenario, sic, powers)
        assert len(calls) == 1
        alone = [sop_curve_fixed_eavesdropper(p, scenario, sic, [x])[0] for x in powers]
        assert np.array_equal(curve, alone)


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


def test_a_union_of_events_has_no_asymptote():
    # sop composes the union; the per-event asymptotes and fixed-eavesdropper curve do not
    p = make_params()
    for sic in SIC_MODES:
        with pytest.raises(UnsupportedScenarioError, match="system_external"):
            sop_asymptotic(p, "system_external", sic)
        with pytest.raises(UnsupportedScenarioError, match="system_external"):
            sop_curve_fixed_eavesdropper(p, "system_external", sic, [p.p_bs])


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
