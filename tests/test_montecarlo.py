"""Checks for the Monte Carlo engine.

Groups: the projected draw against the element-wise reference sampler
(two-sample tests on every receiver's gain and norm marginals and on outage
counts); first-moment agreement of the raw draws with the channel model;
empirical SINR CDFs against the closed forms at seeded grid points;
bit-exact reproducibility (same-seed identity, trial-count prefix
property, draw bits against straight-line arithmetic, grid-versus-single
equality, seed separation); structural
per-trial facts (far-user ceiling, SIC ordering, exact zero- and
one-probability corners); the throughput and union-event accounting;
input validation.
"""

import pickle
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import ks_2samp

from ris_secrecy import analytic as an
from ris_secrecy import config, model, montecarlo
from ris_secrecy.montecarlo import (
    BLOCK,
    ChannelDraw,
    _block_rng,
    _outage_counts,
    empirical_sinr_cdfs,
    estimate_sop,
    estimate_sop_grid,
    sample_draw,
    sinr_samples,
)
from ris_secrecy.model import derive

from conftest import THROUGHPUT_RATES, make_params, make_passive, throughput_rows

SEED = 20260813
RECEIVERS = ("n", "f", "e")


# ---------------------------------------------------------------------------
# the projected draw against the element-wise reference sampler


def _elementwise_draws(params, trials, seed, chunk=4096):
    """Element-wise reference draws: {shared_hbr: ChannelDraw} for both laws.

    Every hop is a vector of per-element CN(0, omega) entries and each
    cascade the coherent on-group sum, with none of the engine's projection
    identities.  One pass serves both laws: each receiver has its own BS-RIS
    vector for the independent law, and the shared law reuses the near
    user's vector for all three cascades.
    """
    q = params.n_active
    rng = np.random.Generator(np.random.SFC64(seed))
    omega_br = model.mean_channel_gain(params.d_br, params.alpha_p, params.beta0)

    def cn_matrix(m, omega):
        # per-element CN(0, omega) entries, real and imaginary parts interleaved
        h = rng.standard_normal((m, 2 * q))
        h *= np.sqrt(omega / 2.0)
        return h.view(np.complex128)

    def cascade(h_r_conj, h_br):
        s = np.einsum("ij,ij->i", h_r_conj, h_br)  # coherent on-group sum
        return s.real * s.real + s.imag * s.imag

    out = {shared: {} for shared in (False, True)}
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        h_br_n = None
        for r in RECEIVERS:
            h_br = cn_matrix(m, omega_br)
            h_br_n = h_br if h_br_n is None else h_br_n
            omega_r = model.mean_channel_gain(getattr(params, f"d_r{r}"), params.alpha_p,
                                              params.beta0)
            h_r = cn_matrix(m, omega_r)
            norm = np.einsum("ij,ij->i", h_r.view(float), h_r.view(float))
            h_r_conj = np.conj(h_r)
            for shared, h in ((False, h_br), (True, h_br_n)):
                out[shared].setdefault(f"cascaded_gain_{r}", []).append(cascade(h_r_conj, h))
                out[shared].setdefault(f"norm_{r}", []).append(norm)
        ip = rng.standard_exponential((m, 2))
        for shared in (False, True):
            out[shared].setdefault("ip_user", []).append(params.omega_ipu * ip[:, 0])
            out[shared].setdefault("ip_eve", []).append(params.omega_ipe * ip[:, 1])
    return {shared: ChannelDraw(**{k: np.concatenate(v) for k, v in cols.items()})
            for shared, cols in out.items()}


ORACLE_TRIALS = 10**6
ORACLE_CELLS = (("system_external", "ipsic"), ("internal", "psic"))


@pytest.mark.parametrize("q", [1, 2, 20, 64])
def test_projected_draw_matches_elementwise_oracle(q):
    # eavesdropper at 40 m and 1 W at the BS keep both outage events
    # between 0.27 and 0.8 for every Q
    p = make_params(n_active=q, n_elements=2 * q, p_bs=1.0, d_re=40.0)
    oracle = _elementwise_draws(p, ORACLE_TRIALS, SEED + q)
    counts = {}
    for shared in (False, True):
        draw = sample_draw(p, ORACLE_TRIALS, SEED, shared_hbr=shared)
        ref = oracle[shared]
        for r in RECEIVERS:
            for field in (f"cascaded_gain_{r}", f"norm_{r}"):
                # 48 fixed-seed tests in all: 1e-4 each keeps the family under 0.5%
                pvalue = ks_2samp(getattr(draw, field), getattr(ref, field)).pvalue
                assert pvalue > 1e-4, (shared, field, pvalue)
        pairs = zip(_outage_counts(p, ORACLE_CELLS, draw), _outage_counts(p, ORACLE_CELLS, ref))
        for (scenario, _), pair in zip(ORACLE_CELLS, pairs):
            counts[shared, scenario] = pair

    def z(a, b):
        pooled = (a + b) / (2 * ORACLE_TRIALS)
        return (a - b) / np.sqrt(2 * ORACLE_TRIALS * pooled * (1.0 - pooled))

    for key, (engine, reference) in counts.items():
        assert abs(z(engine, reference)) < 4.0, (key, engine, reference)
    if q <= 2:
        # the check has power: sharing h_br moves the union event by > 10 sigma
        shared_ref = counts[True, "system_external"][1]
        assert abs(z(counts[False, "system_external"][0], shared_ref)) > 10.0


def test_q1_shared_draw_gives_one_gain_to_norm_ratio():
    # at Q = 1 the projection leaves no orthogonal rest, so every receiver's
    # gain/norm is omega_br * G with the one shared G
    p = make_params(n_active=1, n_elements=2)
    d = sample_draw(p, 5_000, SEED, shared_hbr=True)
    ratio = d.cascaded_gain_n / d.norm_n
    np.testing.assert_allclose(d.cascaded_gain_f / d.norm_f, ratio, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(d.cascaded_gain_e / d.norm_e, ratio, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shared", [False, True])
def test_unreachable_receivers_draw_exact_zeros(shared):
    p = config.realize_point(config.load_preset("zerorate"), None, "aris")
    assert np.isinf(p.d_rf) and np.isinf(p.d_re)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d = sample_draw(p, 5_000, SEED, shared_hbr=shared)
    for name in ("cascaded_gain_n", "cascaded_gain_f", "cascaded_gain_e", "norm_n", "norm_f",
                 "norm_e", "ip_user", "ip_eve"):
        assert np.all(np.isfinite(getattr(d, name))), name
    for name in ("cascaded_gain_f", "cascaded_gain_e", "norm_f", "norm_e"):
        assert not np.any(getattr(d, name)), name
    assert np.all(d.cascaded_gain_n > 0.0) and np.all(d.norm_n > 0.0)


def test_draw_first_moments():
    p = make_params()
    dc = derive(p)
    d = sample_draw(p, 400_000, SEED)
    q = p.n_active
    # coherent cascade power: q * omega_br * omega_r per link
    assert d.cascaded_gain_n.mean() == pytest.approx(q * dc.omega_br * dc.omega_rn, rel=0.01)
    assert d.cascaded_gain_f.mean() == pytest.approx(q * dc.omega_br * dc.omega_rf, rel=0.01)
    assert d.cascaded_gain_e.mean() == pytest.approx(q * dc.omega_br * dc.omega_re, rel=0.01)
    # on-group norm: q * omega_r
    assert d.norm_n.mean() == pytest.approx(q * dc.omega_rn, rel=0.01)
    assert d.norm_f.mean() == pytest.approx(q * dc.omega_rf, rel=0.01)
    # residual-interference powers: exponential with the configured means
    assert d.ip_user.mean() == pytest.approx(p.omega_ipu, rel=0.02)
    assert d.ip_eve.mean() == pytest.approx(p.omega_ipe, rel=0.02)


def test_shared_bs_ris_vector_keeps_marginals():
    p = make_params()
    dc = derive(p)
    d = sample_draw(p, 200_000, SEED, shared_hbr=True)
    q = p.n_active
    assert d.cascaded_gain_n.mean() == pytest.approx(q * dc.omega_br * dc.omega_rn, rel=0.05)
    assert d.cascaded_gain_e.mean() == pytest.approx(q * dc.omega_br * dc.omega_re, rel=0.05)
    ind = sample_draw(p, 1000, SEED)
    cor = sample_draw(p, 1000, SEED, shared_hbr=True)
    assert not np.array_equal(ind.cascaded_gain_f, cor.cascaded_gain_f)


def _closed_quantiles(form, p, probs):
    return [brentq(lambda x: form(x, p) - t, 1e-12, 1e6, xtol=1e-14, rtol=1e-12)
            for t in probs]


def test_empirical_cdfs_match_closed_forms():
    p = make_params()
    trials = 200_000
    probs = np.linspace(0.1, 0.9, 9)
    cases = [
        ("user_n", "psic", lambda x, pp: an.law(x, pp, "user_n", "psic")),
        ("user_n", "ipsic", lambda x, pp: an.law(x, pp, "user_n", "ipsic")),
        ("user_f", "psic", lambda x, pp: an.law(x, pp, "user_f", "psic")),
        ("internal_f_to_n", "psic", lambda x, pp: an.law(x, pp, "internal_f_to_n", "psic")),
    ]
    requests = []
    for which, sic, form in cases:
        xs = _closed_quantiles(form, p, probs)
        requests.append((which, sic, xs))
    empirical = empirical_sinr_cdfs(p, requests, trials, SEED)
    for (which, sic, _), emp in zip(cases, empirical):
        tol = 3.0 * np.sqrt(probs * (1.0 - probs) / trials) + 0.01
        assert np.all(np.abs(emp - probs) <= tol), (which, sic, emp)


def test_empirical_cdf_is_monotone_and_bounded():
    p = make_params()
    xs = np.logspace(-4, 2, 25)
    cdf = empirical_sinr_cdfs(p, [("user_n", "psic", xs)], 20_000, SEED)[0]
    assert np.all(cdf >= 0.0) and np.all(cdf <= 1.0)
    assert np.all(np.diff(cdf) >= 0.0)


# ---------------------------------------------------------------------------
# reproducibility


def test_same_seed_is_bit_identical():
    p = make_params()
    a = estimate_sop(p, "external_n", "ipsic", 30_000, SEED)
    b = estimate_sop(p, "external_n", "ipsic", 30_000, SEED)
    assert a.value == b.value
    assert a.stderr == b.stderr
    da = sample_draw(p, 1000, SEED)
    db = sample_draw(p, 1000, SEED)
    np.testing.assert_array_equal(da.cascaded_gain_n, db.cascaded_gain_n)
    np.testing.assert_array_equal(da.ip_eve, db.ip_eve)


def test_trial_count_prefix_property():
    # trial i is keyed by (seed, i) alone, so a longer run must start with
    # exactly the rows of a shorter run
    p = make_params()
    short = sample_draw(p, 5, SEED)
    long = sample_draw(p, BLOCK + 5, SEED)
    np.testing.assert_array_equal(short.cascaded_gain_n, long.cascaded_gain_n[:5])
    np.testing.assert_array_equal(short.norm_e, long.norm_e[:5])
    np.testing.assert_array_equal(short.ip_user, long.ip_user[:5])


def _straight_line_block(params, seed, block_index, shared_hbr):
    # one block in the canonical generation order, with the projection
    # identities written as plain expressions: the engine must give these bits
    q = params.n_active
    rng = _block_rng(seed, block_index)
    omega_br = model.mean_channel_gain(params.d_br, params.alpha_p, params.beta0)
    shared = rng.standard_gamma(q, BLOCK) if shared_hbr else None
    arrays = {}
    for r in RECEIVERS:
        omega_r = model.mean_channel_gain(getattr(params, f"d_r{r}"), params.alpha_p, params.beta0)
        g = rng.standard_gamma(q, BLOCK) if shared is None else shared
        e = rng.standard_exponential(BLOCK)
        g_perp = rng.standard_gamma(q - 1, BLOCK) if q > 1 else np.zeros(BLOCK)
        arrays[f"cascaded_gain_{r}"] = omega_br * omega_r * g * e
        arrays[f"norm_{r}"] = omega_r * (e + g_perp)
    ip = rng.standard_exponential((BLOCK, 2))
    return ChannelDraw(**arrays, ip_user=params.omega_ipu * ip[:, 0],
                       ip_eve=params.omega_ipe * ip[:, 1])


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("q", [1, 2, 20])
def test_draw_bits_match_straight_line_arithmetic(q, shared):
    # 40 000 trials cut the second block
    p = make_params(n_active=q, n_elements=2 * q)
    trials = 40_000
    blocks = [_straight_line_block(p, SEED, b, shared) for b in range(2)]
    draw = sample_draw(p, trials, SEED, shared_hbr=shared)
    for name in (f.name for f in fields(ChannelDraw)):
        want = np.concatenate([getattr(b, name) for b in blocks])[:trials]
        assert np.array_equal(getattr(draw, name), want), name


def test_grid_matches_individual_estimates():
    p_a = make_params()
    p_b = make_params(kappa=1.0, sigma2_t=0.0, p_bs=0.02)
    cases = [(p_a, "external_n", "psic"), (p_b, "internal", "ipsic"),
             (p_a, "system_external", "psic")]
    grid = estimate_sop_grid(cases, 40_000, SEED)
    for (pp, scenario, sic), res in zip(cases, grid):
        single = estimate_sop(pp, scenario, sic, 40_000, SEED)
        assert res.value == single.value, (scenario, sic)


def test_grid_groups_mixed_draw_laws():
    # geometry and n_active shape the draws: each law gets its own stream,
    # interleaved cases come back in input order
    p_a = make_params()
    p_b = make_params(d_re=40.0)
    p_c = make_params(n_active=10, n_elements=40, n_groups=4)
    cases = [(p_a, "external_n", "psic"), (p_b, "external_n", "psic"),
             (p_c, "external_n", "psic"), (p_a, "internal", "ipsic")]
    grid = estimate_sop_grid(cases, 40_000, SEED)
    assert [r.trials for r in grid] == [40_000] * len(cases)
    for (pp, scenario, sic), res in zip(cases, grid):
        single = estimate_sop(pp, scenario, sic, 40_000, SEED)
        assert res.value == single.value, (scenario, sic)
        assert res.stderr == single.stderr, (scenario, sic)
    assert grid[0].value != grid[1].value


def _lone_outage_count(p, scenario, sic, draw):
    # one cell scored on its own: both SINRs of every event, nothing shared
    outage = np.zeros(len(draw.ip_user), dtype=bool)
    for legit, eve, rate in model.SCENARIOS[scenario]:
        threshold = 2.0 ** getattr(p, rate) * (1.0 + model.sinr(eve, p, draw, sic)) - 1.0
        outage |= model.sinr(legit, p, draw, sic) < threshold
    return int(np.count_nonzero(outage))


def test_grid_scores_each_family_once_per_point_per_block(monkeypatch):
    # all 16 rows (4 scenarios x 2 SIC x 2 surfaces) at two powers: four
    # operating points on one draw law, cases interleaved across points and
    # built as equal but distinct SystemParams; 40 000 trials cut the second block
    trials = 40_000
    points = [(surface, p_bs) for surface in (make_params, make_passive) for p_bs in (0.1, 1.0)]
    cases = [(surface(p_bs=p_bs, d_re=40.0), scenario, sic)
             for scenario in model.SCENARIOS for sic in model.SIC_MODES
             for surface, p_bs in points]
    calls = []
    real = model._sinr
    monkeypatch.setattr(model, "_sinr", lambda *a: calls.append(a[0]) or real(*a))
    grid = estimate_sop_grid(cases, trials, SEED)
    monkeypatch.undo()
    # user_n and eve_n under each SIC mode, user_f, eve_f and internal_f_to_n
    assert len(calls) == 7 * len(points) * 2
    for (p, scenario, sic), res in zip(cases, grid):
        expected = _lone_outage_count(p, scenario, sic, sample_draw(p, trials, SEED))
        assert (res.value, res.trials) == (expected / trials, trials), (p, scenario, sic)
    assert len({res.value for res in grid}) > len(grid) // 2


def test_distinct_seeds_are_distinct_but_consistent():
    p = make_params()
    a = sample_draw(p, 256, SEED)
    b = sample_draw(p, 256, SEED + 1)
    assert not np.array_equal(a.cascaded_gain_n, b.cascaded_gain_n)
    ra = estimate_sop(p, "external_n", "psic", 100_000, SEED)
    rb = estimate_sop(p, "external_n", "psic", 100_000, SEED + 1)
    gap = abs(ra.value - rb.value)
    assert gap <= 6.0 * float(np.hypot(ra.stderr, rb.stderr))


# ---------------------------------------------------------------------------
# structural per-trial facts


def test_far_user_ceiling_never_exceeded():
    p = make_params()
    [vals] = sinr_samples(p, [("user_f", "psic")], 50_000, SEED)
    assert vals.max() < p.a_f / p.a_n


def test_trialwise_sic_ordering():
    p = make_params()
    ip, ps = sinr_samples(p, [("user_n", "ipsic"), ("user_n", "psic")], 20_000, SEED)
    assert np.all(ip <= ps)
    assert np.any(ip < ps)


def test_unreachable_eavesdropper_gives_exact_zero():
    # zero target rate and a zero-gain wiretap make the outage event
    # impossible trial by trial, so the estimate must be exactly 0.0
    p = make_params(r_n=0.0, r_f=0.0, d_re=float("inf"), varpi=0.0)
    res = estimate_sop(p, "external_n", "psic", 5_000, SEED)
    assert res.value == 0.0
    internal = make_params(r_n=0.0, r_f=0.0, d_rf=float("inf"), varpi=0.0)
    res = estimate_sop(internal, "internal", "psic", 5_000, SEED)
    assert res.value == 0.0


def test_unreachable_user_gives_exact_one():
    # a zero-gain legitimate link against a live eavesdropper fires the
    # outage event on every trial (note a_n = 0 would NOT do this: it
    # silences the eavesdropper's copy of the stream as well)
    p = make_params(d_rn=float("inf"), r_n=0.0)
    res = estimate_sop(p, "external_n", "psic", 5_000, SEED)
    assert res.value == 1.0


def test_throughput_accounting():
    # a Monte Carlo throughput row is (1 - SOP) * rate of its own estimate;
    # system_external secures r_n + r_f
    cfg, rows = throughput_rows(10_000, SEED)
    assert [row["scenario"] for row in rows] == list(THROUGHPUT_RATES)
    for row in rows:
        rate = THROUGHPUT_RATES[row["scenario"]]
        params = config.realize_point(cfg, row["value"], row["mode"])
        res = estimate_sop(params, row["scenario"], "psic", 10_000, SEED)
        assert row["metric"] == "throughput" and row["trials"] == 10_000
        assert row["estimate"] == pytest.approx((1.0 - res.value) * rate, rel=1e-12)


def test_system_event_is_union_of_external_events():
    # same seed means same trials, so the union bounds hold exactly
    p = make_params()
    cases = [(p, "external_n", "psic"), (p, "external_f", "psic"),
             (p, "system_external", "psic")]
    s_n, s_f, s_sys = [r.value for r in estimate_sop_grid(cases, 50_000, SEED)]
    assert s_sys >= max(s_n, s_f)
    assert s_sys <= s_n + s_f


def test_estimate_metadata():
    p = make_params()
    res = estimate_sop(p, "external_n", "ipsic", 10_000, SEED)
    assert res.trials == 10_000
    assert res.provenance == "monte-carlo"
    assert res.stderr == pytest.approx(
        np.sqrt(res.value * (1.0 - res.value) / 10_000), rel=1e-12
    )


# ---------------------------------------------------------------------------
# validation


def test_input_validation():
    p = make_params()
    with pytest.raises(ValueError):
        sample_draw(p, 0, SEED)
    with pytest.raises(ValueError):
        estimate_sop(p, "external_n", "psic", 0, SEED)
    with pytest.raises(ValueError):
        estimate_sop(p, "sidelink", "psic", 100, SEED)
    with pytest.raises(ValueError):
        estimate_sop(p, "external_n", "genie", 100, SEED)
    with pytest.raises(ValueError):
        sinr_samples(p, [("nobody", "psic")], 100, SEED)
    with pytest.raises(ValueError):
        empirical_sinr_cdfs(p, [("nobody", "psic", [1.0])], 100, SEED)


# every public entry point as (params, trials, seed) -> its result, on one cell or request
_ENTRY_POINTS = {
    "estimate_sop_grid": lambda p, t, s: estimate_sop_grid([(p, "external_n", "psic")], t, s),
    "estimate_sop": lambda p, t, s: estimate_sop(p, "external_n", "psic", t, s),
    "sample_draw": sample_draw,
    "empirical_sinr_cdfs": lambda p, t, s: empirical_sinr_cdfs(p, [("user_n", "psic", [1.0])], t, s),
    "sinr_samples": lambda p, t, s: sinr_samples(p, [("user_n", "psic")], t, s),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_trials_and_seed_checked_before_drawing(entry, monkeypatch):
    run, p = _ENTRY_POINTS[entry], make_params()
    drawn = []
    real = montecarlo._draw_block
    monkeypatch.setattr(montecarlo, "_draw_block", lambda *a: drawn.append(a[2]) or real(*a))
    # a bool, a float (even integral) or a string is no count; seeds are 64-bit
    for trials, seed, name in ((True, SEED, "trials"), (1000.0, SEED, "trials"),
                               (np.float64(10.0), SEED, "trials"), ("10", SEED, "trials"),
                               (0, SEED, "trials"), (100, 1.5, "seed"), (100, True, "seed"),
                               (100, np.bool_(True), "seed"), (100, -1, "seed"),
                               (100, 2**64, "seed")):
        with pytest.raises(ValueError, match=name):
            run(p, trials, seed)
    assert drawn == []
    # numpy integers are integers, and run as their values
    got = run(p, np.int64(100), np.uint64(SEED))
    assert drawn == [0]
    assert pickle.dumps(got) == pickle.dumps(run(p, 100, SEED))


def test_unknown_sic_rejected_for_families_without_sic():
    p = make_params()
    with pytest.raises(ValueError, match="sic"):
        empirical_sinr_cdfs(p, [("user_f", "genie", [1.0])], 10, SEED)
    with pytest.raises(ValueError, match="sic"):
        sinr_samples(p, [("eve_f", "genie")], 10, SEED)



def test_stream_functions_check_every_request_before_drawing(monkeypatch):
    p = make_params()
    drawn = []
    real = montecarlo._draw_block
    monkeypatch.setattr(montecarlo, "_draw_block", lambda *a: drawn.append(a[2]) or real(*a))
    for bad in (("nobody", "psic"), ("eve_f", "genie")):
        with pytest.raises(ValueError):
            sinr_samples(p, [("user_n", "psic"), bad], 100, SEED)
        with pytest.raises(ValueError):
            empirical_sinr_cdfs(p, [("user_n", "psic", [1.0]), (*bad, [1.0])], 100, SEED)
    assert drawn == []

    # one array per request, all scored on one draw of the stream's first trials
    requests = [("user_n", "ipsic"), ("eve_f", "psic"), ("user_n", "psic")]
    samples = sinr_samples(p, requests, BLOCK + 10, SEED)
    assert drawn == [0, 1]
    draw = sample_draw(p, BLOCK + 10, SEED)
    assert len(samples) == len(requests)
    for (which, sic), gamma in zip(requests, samples):
        np.testing.assert_array_equal(gamma, model.sinr(which, p, draw, sic))
