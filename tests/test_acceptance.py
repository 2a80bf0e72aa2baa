"""Acceptance gate: the seven release criteria, one test each.

Every test prints one PASS/FAIL line per checked item plus a criterion
summary line, so a bare ``pytest -v tests/test_acceptance.py`` reads as
the full acceptance report.  Criteria:

1. closed forms agree with 10^7-trial Monte Carlo at three budget
   points for all six scenario/SIC combinations, max(3 sigma, 15%)
   (passive perfect-SIC cells tighten to max(3 sigma, 2%); the rule is
   cli.sop_tolerance, which validate applies too), under five minutes;
2. the three legitimate-user SINR CDFs track 10^7-draw empirical CDFs
   within 0.005 absolute at 20 quantile points, and the four wiretap
   densities normalize to 1 within 1e-4 and match their CDFs' finite
   differences within 1e-4 relative;
3. fixed-eavesdropper outage curves decay with unit slope (perfect
   SIC) or flatten to an error floor (imperfect SIC) between +30 and
   +40 dB, and the two high-budget asymptote forms land within 5% of
   the exact curves there;
4. the headline orderings hold pointwise on five-point sweeps: active
   beats passive at equal total power, the external system optimum
   sits near power offset 0.8, the internal scenario prefers small
   offsets;
5. the special-function kernel matches a 50-digit oracle to 1e-10 on a
   200-point grid, the quadrature is exact through degree 2D-1, and
   doubling the quadrature orders moves no SOP by more than 1e-8;
6. sweep and simulate outputs are byte-identical across repeat runs,
   also for a sweep spanning two draw laws;
7. zero residual interference collapses every imperfect-SIC expression
   onto its perfect-SIC counterpart within 1e-9, throughput is exactly
   (1 - SOP) * rate, and SOP stays inside [0, 1] on a 1000-point
   randomized parameter fuzz.
"""

import json
import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from ris_secrecy import analytic as an
from ris_secrecy import cli
from ris_secrecy.analytic import default_table, diversity_order, secrecy_throughput
from ris_secrecy.config import load_preset, parse_config, realize_point
from ris_secrecy.model import SystemParams, derive, scenario_rate
from ris_secrecy.montecarlo import DRAW_FIELDS, empirical_sinr_cdfs, estimate_sop_grid
from ris_secrecy.specfun import gauss_laguerre, kdist_cdf, log_bessel_k

from conftest import dbm, make_params, make_passive, throughput_rows

mpmath.mp.dps = 50

MC_TRIALS = 10**7
MC_SEED = 20260813


def _report(criterion, lines, failures):
    for line in lines:
        print(line)
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPT criterion-{criterion} {status} ({len(lines)} checks, {len(failures)} failed)")
    assert not failures, "\n".join(failures)


def test_criterion_1_closed_form_vs_monte_carlo():
    combos = [
        ("aris", "external_n", "ipsic"), ("aris", "external_n", "psic"),
        ("aris", "external_f", "ipsic"), ("aris", "external_f", "psic"),
        ("aris", "internal", "ipsic"), ("aris", "internal", "psic"),
        ("pris", "external_n", "psic"), ("pris", "external_f", "psic"),
        ("pris", "internal", "psic"),
    ]
    cases, meta = [], []
    for budget_dbm in (-40.0, -30.0, -20.0):
        p_tot = dbm(budget_dbm)
        for mode, scenario, sic in combos:
            if mode == "aris":
                # amplifiers take a fifth of the budget, element draw is zero
                params = make_params(p_bs=0.8 * p_tot)
            else:
                params = make_passive(p_bs=p_tot)
            cases.append((params, scenario, sic))
            meta.append((budget_dbm, mode, scenario, sic))
    t0 = time.perf_counter()
    results = estimate_sop_grid(cases, MC_TRIALS, MC_SEED)
    lines, failures = [], []
    for (budget_dbm, mode, scenario, sic), (params, _, _), res in zip(meta, cases, results):
        a = an.sop(params, scenario, sic).value
        m = res.value
        tol = cli.sop_tolerance(a, m, res.stderr, mode, sic, scenario_rate(params, scenario))
        gap = abs(a - m)
        ok = gap <= tol
        if not ok:
            failures.append(f"{mode} {scenario} {sic} @ {budget_dbm} dBm: gap {gap:.3g} > tol {tol:.3g}")
        lines.append(
            f"  {'PASS' if ok else 'FAIL'} c1 {mode} {scenario:10s} {sic:5s} "
            f"p_tot={budget_dbm:+.0f}dBm analytic={a:.6g} mc={m:.6g} gap={gap:.3g} tol={tol:.3g}"
        )
    elapsed = time.perf_counter() - t0
    lines.append(f"  INFO c1 {len(cases)} cells x {MC_TRIALS:.0e} trials in {elapsed:.1f} s")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds the 5 minute target")
    _report(1, lines, failures)


def _invert(cdf, targets, hi=1e9):
    return np.array([brentq(lambda x, t=t: cdf(x) - t, 1e-15, hi, xtol=1e-14, rtol=1e-13)
                     for t in targets])


def test_criterion_2_distribution_agreement():
    p = make_params()
    dc = derive(p)
    lines, failures = [], []

    probs = np.linspace(0.04, 0.96, 20)
    user_forms = [
        ("user_n", "ipsic", lambda x: an.law(x, p, "user_n", "ipsic")),
        ("user_n", "psic", lambda x: an.law(x, p, "user_n", "psic")),
        ("user_f", "psic", lambda x: an.law(x, p, "user_f", "psic")),
    ]
    requests = []
    for which, sic, form in user_forms:
        hi = 0.999999 * p.a_f / p.a_n if which == "user_f" else 1e9
        requests.append((which, sic, _invert(form, probs, hi=hi)))
    empirical = empirical_sinr_cdfs(p, requests, MC_TRIALS, MC_SEED)
    for (which, sic, form), (_, _, xs), emp in zip(user_forms, requests, empirical):
        closed = np.array([form(float(x)) for x in xs])
        gap = float(np.max(np.abs(emp - closed)))
        ok = gap <= 0.005
        if not ok:
            failures.append(f"CDF {which}/{sic}: max gap {gap:.4g} > 0.005")
        lines.append(f"  {'PASS' if ok else 'FAIL'} c2 cdf {which:7s} {sic:5s} "
                     f"max|F_mc-F|={gap:.2e} tol=5.0e-03 over 20 quantiles")

    eve_forms = [
        ("eve_n_ipsic", lambda x: an.law(x, p, "eve_n", "ipsic", density=True),
         lambda x: an.law(x, dc, "eve_n", "ipsic"), 600.0 / dc.scale("eve_n", 0.0)),
        ("eve_n_psic", lambda x: an.law(x, p, "eve_n", "psic", density=True),
         lambda x: an.law(x, dc, "eve_n", "psic"), 600.0 / dc.scale("eve_n", 0.0)),
        ("eve_f", lambda x: an.law(x, p, "eve_f", "psic", density=True),
         lambda x: an.law(x, dc, "eve_f", "psic"), p.a_f / p.a_n),
        ("internal_f_to_n", lambda x: an.law(x, p, "internal_f_to_n", "psic", density=True),
         lambda x: an.law(x, dc, "internal_f_to_n", "psic"),
         600.0 / dc.scale("internal_f_to_n", 0.0)),
    ]
    for name, pdf, cdf, hi in eve_forms:
        mass, quad_err = quad(pdf, 0.0, hi, limit=400,
                              points=[hi * 1e-6, hi * 0.01, hi * 0.5])
        gap = abs(mass - 1.0)
        ok = gap <= 1e-4 and quad_err < 1e-6
        if not ok:
            failures.append(f"PDF {name}: mass {mass!r} (quad err {quad_err:.1e})")
        lines.append(f"  {'PASS' if ok else 'FAIL'} c2 pdf-mass {name:15s} "
                     f"|1-integral|={gap:.2e} tol=1.0e-04")

        worst = 0.0
        for x in _invert(cdf, [0.1, 0.25, 0.5, 0.75, 0.9], hi=hi * 0.999999):
            h = x * 1e-5
            fd = (cdf(x + h) - cdf(x - h)) / (2.0 * h)
            worst = max(worst, abs(pdf(x) - fd) / fd)
        ok = worst <= 1e-4
        if not ok:
            failures.append(f"PDF {name}: worst FD mismatch {worst:.3g} > 1e-4")
        lines.append(f"  {'PASS' if ok else 'FAIL'} c2 pdf-slope {name:15s} "
                     f"max rel FD gap={worst:.2e} tol=1.0e-04")
    _report(2, lines, failures)


def test_criterion_3_diversity_and_asymptotes():
    base = make_params(p_bs=0.8e-3, omega_ipu=1e-7, omega_ipe=1e-7)
    rhos = [base.p_bs * 1e3, base.p_bs * 1e4]  # +30 dB and +40 dB
    lines, failures = [], []

    for scenario, sic, want in (
        ("external_n", "psic", 1.0),
        ("external_f", "psic", 1.0),
        ("internal", "psic", 1.0),
        ("external_n", "ipsic", 0.0),
    ):
        sops = an.sop_curve_fixed_eavesdropper(base, scenario, sic, rhos)
        slope = diversity_order(list(zip(rhos, sops)))
        ok = abs(slope - want) <= 0.05
        if not ok:
            failures.append(f"slope {scenario}/{sic}: {slope:.4f} not within {want}+-0.05")
        lines.append(f"  {'PASS' if ok else 'FAIL'} c3 slope {scenario:10s} {sic:5s} "
                     f"= {slope:+.4f} target {want:.1f}+-0.05")

    hi = rhos[-1]
    dc0 = derive(base)
    dch = derive(SystemParams(**{**base.__dict__, "p_bs": hi}))
    q = base.n_active

    exact = float(an.sop_curve_fixed_eavesdropper(base, "external_n", "psic", [hi])[0])
    # the wiretap threshold stays at the base point, the legitimate scale moves with p_bs
    u = (2.0**base.r_n * (1.0 + dc0.mean_sinr("eve_n", 0.0)) - 1.0) * dch.scale("user_n", 0.0)
    approx = u / (q - 1)
    gap = abs(approx - exact) / exact
    ok = gap <= 0.05
    if not ok:
        failures.append(f"perfect-SIC asymptote off by {gap:.3%}")
    lines.append(f"  {'PASS' if ok else 'FAIL'} c3 asymptote psic  "
                 f"exact={exact:.4e} approx={approx:.4e} rel gap={gap:.3%} tol=5%")

    t = default_table()
    fs = base.omega_ipu / (base.a_n * base.kappa**2 * dc0.omega_br * dc0.omega_rn)
    eps0 = 2.0**base.r_n * (1.0 + dc0.mean_sinr("eve_n", t.nodes)) - 1.0
    floor = float(t.weights @ (kdist_cdf(q, eps0[:, None] * fs * t.nodes) @ t.weights))
    exact = float(an.sop_curve_fixed_eavesdropper(base, "external_n", "ipsic", [hi])[0])
    gap = abs(floor - exact) / exact
    ok = gap <= 0.05
    if not ok:
        failures.append(f"error-floor asymptote off by {gap:.3%}")
    lines.append(f"  {'PASS' if ok else 'FAIL'} c3 asymptote ipsic "
                 f"exact={exact:.4e} floor={floor:.4e} rel gap={gap:.3%} tol=5%")
    _report(3, lines, failures)


def test_criterion_4_figure_orderings():
    lines, failures = [], []

    fig2 = load_preset("fig2")
    for value in fig2.sweep.values:
        for scenario in ("external_n", "external_f"):
            a = an.sop(realize_point(fig2, value, "aris"), scenario, "psic").value
            p = an.sop(realize_point(fig2, value, "pris"), scenario, "psic").value
            ok = a < p
            if not ok:
                failures.append(f"fig2 {scenario} @ {value} dBm: active {a!r} !< passive {p!r}")
            lines.append(f"  {'PASS' if ok else 'FAIL'} c4 fig2 {scenario:10s} "
                         f"p_tot={value:+.0f}dBm active={a:.6f} < passive={p:.6f}")

    fig5 = load_preset("fig5")
    values = fig5.sweep.values
    sops = [an.sop_system_external(realize_point(fig5, v, "aris"), "ipsic").value
            for v in values]
    pivot = values.index(0.8)
    ok = all(x > y for x, y in zip(sops[: pivot + 1], sops[1: pivot + 1])) and sops[-1] > sops[pivot]
    if not ok:
        failures.append(f"fig5 system optimum not at 0.8: {sops}")
    lines.append(f"  {'PASS' if ok else 'FAIL'} c4 fig5 system optimum near 0.8: "
                 + " ".join(f"{s:.4f}" for s in sops))

    fig9 = load_preset("fig9")
    for sic in ("ipsic", "psic"):
        sops = [an.sop(realize_point(fig9, v, "aris"), "internal", sic).value
                for v in fig9.sweep.values]
        ok = all(x < y for x, y in zip(sops, sops[1:]))
        if not ok:
            failures.append(f"fig9 internal {sic} not increasing: {sops}")
        lines.append(f"  {'PASS' if ok else 'FAIL'} c4 fig9 internal {sic:5s} rises with offset: "
                     + " ".join(f"{s:.4f}" for s in sops))
    _report(4, lines, failures)


def test_criterion_5_special_function_kernel():
    lines, failures = [], []

    rng = np.random.default_rng(MC_SEED)
    worst = 0.0
    for _ in range(200):
        q = int(rng.integers(1, 31))
        x = float(10.0 ** rng.uniform(-8.0, math.log10(700.0)))
        ours = log_bessel_k(q, x)
        ref = mpmath.log(mpmath.besselk(q, mpmath.mpf(x)))
        ratio = abs(float(mpmath.expm1(mpmath.mpf(ours) - ref)))
        worst = max(worst, ratio)
    ok = worst <= 1e-10
    if not ok:
        failures.append(f"Bessel kernel worst relative error {worst:.3g} > 1e-10")
    lines.append(f"  {'PASS' if ok else 'FAIL'} c5 bessel 200-point grid "
                 f"worst rel err={worst:.2e} tol=1.0e-10")

    for order in (2, 16, 64):
        table = gauss_laguerre(order)
        log_nodes = np.log(table.nodes)
        with np.errstate(divide="ignore"):
            log_w = np.log(table.weights)
        worst = 0.0
        for k in range(2 * order):
            log_terms = k * log_nodes + log_w
            peak = np.max(log_terms)
            total = peak + math.log(np.sum(np.exp(log_terms - peak)))
            worst = max(worst, abs(math.expm1(total - math.lgamma(k + 1))))
        ok = worst <= 1e-10
        if not ok:
            failures.append(f"quadrature order {order} moment error {worst:.3g}")
        lines.append(f"  {'PASS' if ok else 'FAIL'} c5 quadrature order {order:3d} exact "
                     f"through degree {2 * order - 1}, worst rel err={worst:.2e}")

    t128 = gauss_laguerre(128)
    for label, params in (("baseline", make_params()),
                          ("fig9-base", realize_point(load_preset("fig9"), None, "aris"))):
        coarse = an.sop(params, "external_n", "ipsic").value
        fine = an.sop(params, "external_n", "ipsic", table=t128).value
        gap = abs(fine - coarse)
        ok = gap < 1e-8
        if not ok:
            failures.append(f"order 64->128 moved SOP by {gap:.3g} at {label}")
        lines.append(f"  {'PASS' if ok else 'FAIL'} c5 order 64->128 {label:10s} "
                     f"|dSOP|={gap:.2e} tol=1.0e-08")
    _report(5, lines, failures)


def test_criterion_6_byte_determinism(tmp_path):
    doc = {
        "name": "determinism",
        "params": {
            "d_br": 20.0, "d_rn": 10.0, "d_rf": 20.0, "d_re": 20.0,
            "alpha_p": 2.0, "beta0_db": -30.0, "n_elements": 40, "n_active": 20,
            "kappa": 10.0, "sigma2_dbm": -55.0, "sigma2_e_dbm": -55.0,
            "sigma2_t_dbm": -40.0, "a_f": 0.7, "r_f": 0.05, "r_n": 0.05,
            "varpi": 1.0, "omega_ipu_db": -80.0, "omega_ipe_db": -80.0,
        },
        "budget": {"p_tot_dbm": 10.0, "ris_fraction": 0.2,
                   "p_ps_dbm": -40.0, "p_dc_dbm": -40.0, "mode": "aris"},
        "metric": "sop",
        "sweep": {
            "variable": "n_elements", "values": [20.0, 40.0], "hold": "n_groups",
            "scenarios": [["external_n", "psic", "aris"], ["internal", "ipsic", "pris"]],
            "engines": ["analytic", "montecarlo"], "trials": 5000, "seed": 99,
        },
    }
    path = tmp_path / "determinism.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    lines, failures = [], []

    # holding n_groups moves n_active, so the Monte Carlo cells fall into
    # two draw laws, each scored over its own stream
    cfg = parse_config(doc)
    laws = {tuple(getattr(realize_point(cfg, v, mode), f) for f in DRAW_FIELDS)
            for v in cfg.sweep.values for _, _, mode in cfg.sweep.scenarios}
    ok = len(laws) >= 2
    if not ok:
        failures.append(f"determinism sweep has {len(laws)} draw law(s), expected two or more")
    lines.append(f"  {'PASS' if ok else 'FAIL'} c6 sweep spans {len(laws)} draw laws")

    def run(cmd, name):
        out = tmp_path / name
        code = cli.main([cmd, "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_OK
        return out.read_bytes()

    ok = run("sweep", "s0.csv") == run("sweep", "s1.csv")
    if not ok:
        failures.append("sweep output changed across runs")
    lines.append(f"  {'PASS' if ok else 'FAIL'} c6 sweep byte-identical across runs")

    ok = run("simulate", "m0.csv") == run("simulate", "m1.csv")
    if not ok:
        failures.append("simulate output changed across runs")
    lines.append(f"  {'PASS' if ok else 'FAIL'} c6 simulate byte-identical across runs")
    _report(6, lines, failures)


def test_criterion_7_consistency_identities():
    lines, failures = [], []

    p0 = make_params(varpi=0.0)
    xs = np.logspace(-6, 2, 50)
    worst = float(np.max(np.abs(an.law(xs, p0, "user_n", "ipsic")
                                - an.law(xs, p0, "user_n", "psic"))))
    pdf_i = an.law(xs, p0, "eve_n", "ipsic", density=True)
    pdf_p = an.law(xs, p0, "eve_n", "psic", density=True)
    scale = np.maximum(np.abs(pdf_p), 1.0)
    worst = max(worst, float(np.max(np.abs(pdf_i - pdf_p) / scale)))
    for scenario in ("external_n", "internal"):
        gap = abs(an.sop(p0, scenario, "ipsic").value - an.sop(p0, scenario, "psic").value)
        worst = max(worst, gap)
    ok = worst <= 1e-9
    if not ok:
        failures.append(f"zero-residual collapse gap {worst:.3g} > 1e-9")
    lines.append(f"  {'PASS' if ok else 'FAIL'} c7 zero-residual collapse worst gap={worst:.2e} tol=1.0e-09")

    mc = estimate_sop_grid([(p0, "external_n", "ipsic"), (p0, "external_n", "psic")], 20000, MC_SEED)
    ok = mc[0].value == mc[1].value
    if not ok:
        failures.append("Monte Carlo ipSIC and pSIC differ at zero residual")
    lines.append(f"  {'PASS' if ok else 'FAIL'} c7 Monte Carlo collapse is bit-exact")

    rng = np.random.default_rng(MC_SEED)
    ok = True
    for _ in range(300):
        s = float(rng.uniform(0.0, 1.0))
        r = float(rng.uniform(0.0, 3.0))
        if secrecy_throughput(s, r) != (1.0 - s) * r:
            ok = False
    # Monte Carlo throughput rows, system_external at r_n + r_f
    cfg, rows = throughput_rows(5000, MC_SEED)
    for row in rows:
        params = realize_point(cfg, row["value"], row["mode"])
        s = estimate_sop_grid([(params, row["scenario"], "psic")], 5000, MC_SEED)[0].value
        rate = {"external_n": params.r_n, "external_f": params.r_f, "internal": params.r_n,
                "system_external": params.r_n + params.r_f}[row["scenario"]]
        if row["estimate"] != (1.0 - s) * rate:
            ok = False
    if not ok:
        failures.append("throughput identity violated")
    lines.append(f"  {'PASS' if ok else 'FAIL'} c7 throughput == (1 - SOP) * rate exactly")

    bad = 0
    checked = 0
    for _ in range(1000):
        q = int(rng.integers(1, 65))
        groups = int(rng.integers(1, 9))
        a_f = float(rng.uniform(0.51, 0.99))
        params = SystemParams(
            d_br=float(10.0 ** rng.uniform(0.0, 3.5)),
            d_rn=float(10.0 ** rng.uniform(0.0, 3.5)),
            d_rf=float(10.0 ** rng.uniform(0.0, 3.5)),
            d_re=float(10.0 ** rng.uniform(0.0, 3.5)),
            alpha_p=float(rng.uniform(1.5, 4.0)),
            beta0=float(10.0 ** rng.uniform(-4.0, -2.0)),
            n_elements=groups * q, n_groups=groups, n_active=q,
            kappa=float(10.0 ** rng.uniform(0.0, 1.5)),
            sigma2=float(10.0 ** rng.uniform(-12.0, -6.0)),
            sigma2_e=float(10.0 ** rng.uniform(-12.0, -6.0)),
            sigma2_t=float(10.0 ** rng.uniform(-12.0, -6.0)),
            a_f=a_f, a_n=1.0 - a_f,
            r_f=float(rng.uniform(0.0, 2.0)), r_n=float(rng.uniform(0.0, 2.0)),
            varpi=float(rng.uniform(0.0, 1.0)),
            omega_ipu=float(10.0 ** rng.uniform(-10.0, -4.0)),
            omega_ipe=float(10.0 ** rng.uniform(-10.0, -4.0)),
            p_bs=float(10.0 ** rng.uniform(-6.0, 1.0)),
        )
        for scenario, sic in (("external_n", "ipsic"), ("external_n", "psic"),
                              ("external_f", "psic"), ("internal", "ipsic"),
                              ("internal", "psic")):
            v = an.sop(params, scenario, sic).value
            checked += 1
            if not 0.0 <= v <= 1.0:
                bad += 1
        v = an.sop_system_external(params, "ipsic").value
        checked += 1
        if not 0.0 <= v <= 1.0:
            bad += 1
    ok = bad == 0
    if not ok:
        failures.append(f"{bad} fuzz evaluations left [0, 1]")
    lines.append(f"  {'PASS' if ok else 'FAIL'} c7 {checked} fuzz SOP evaluations all in [0, 1]")
    _report(7, lines, failures)
