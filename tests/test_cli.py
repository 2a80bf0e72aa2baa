"""Checks for configuration parsing, presets and the command line tool.

Groups: decibel conversion and field validation in the config layer;
element-count and power-split completion; budget and sweep block rules;
preset integrity; operating-point realization for both surface modes
and every sweep variable; CSV byte-determinism across repeat runs; one
grid call per run over any number of draw laws; row agreement with
direct engine calls; closed-form cells and realized points shared within
one sweep, never across sweeps; one kernel call per realized point, each
batched cell equal to its bare call; points of one law (M and P apart) sharing
their batch and scoring; infeasible and unsupported row marking; the
validation report and its exit code; quadrature dump; JSON mirrors;
command line error handling; NaN, infinite and out-of-domain input
rejected at the config boundary.
"""

import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from ris_secrecy import analytic as an
from ris_secrecy import cli, model, montecarlo
from ris_secrecy.analytic import UnsupportedScenarioError
from ris_secrecy.budget import BudgetInfeasibleError, PowerBudget
from ris_secrecy.config import (
    ConfigError,
    SweepSpec,
    db_to_linear,
    dbm_to_watts,
    list_presets,
    load_config,
    load_preset,
    parse_config,
    realize_point,
)
from ris_secrecy.model import SopEstimate, SystemParams, scenario_rate
from ris_secrecy.montecarlo import DRAW_FIELDS, estimate_sop
from ris_secrecy.specfun import gauss_laguerre

from conftest import dbm

BASE_DOC = {
    "name": "unit",
    "notes": "hand-written test point",
    "params": {
        "d_br": 20.0, "d_rn": 10.0, "d_rf": 20.0, "d_re": 20.0,
        "alpha_p": 2.0, "beta0_db": -30.0,
        "n_elements": 40, "n_active": 20,
        "kappa": 10.0,
        "sigma2_dbm": -55.0, "sigma2_e_dbm": -55.0, "sigma2_t_dbm": -40.0,
        "a_f": 0.7, "r_f": 0.05, "r_n": 0.05,
        "varpi": 1.0, "omega_ipu_db": -80.0, "omega_ipe_db": -80.0,
    },
    "budget": {"p_tot_dbm": 10.0, "ris_fraction": 0.2,
               "p_ps_dbm": -40.0, "p_dc_dbm": -40.0, "mode": "aris"},
    "metric": "sop",
    "sweep": {
        "variable": "p_tot_dbm",
        "values": [10.0, 20.0],
        "scenarios": [["external_n", "psic", "aris"], ["internal", "ipsic", "pris"]],
        "engines": ["analytic", "montecarlo"],
        "trials": 3000,
        "seed": 424242,
    },
}


def doc(**edits):
    d = copy.deepcopy(BASE_DOC)
    for path, value in edits.items():
        node = d
        *parents, leaf = path.split(".")
        for key in parents:
            node = node[key]
        if value is ...:
            node.pop(leaf, None)
        else:
            node[leaf] = value
    return d


# ---------------------------------------------------------------------------
# config parsing


def test_parse_converts_decibels_once():
    cfg = parse_config(doc())
    assert cfg.params.sigma2 == pytest.approx(dbm(-55.0), rel=1e-15)
    assert cfg.params.sigma2_t == pytest.approx(1e-7, rel=1e-12)
    assert cfg.params.beta0 == pytest.approx(1e-3, rel=1e-12)
    assert cfg.params.omega_ipu == pytest.approx(1e-8, rel=1e-12)
    assert cfg.budget.p_tot == pytest.approx(0.01, rel=1e-12)
    assert cfg.budget.p_ris == pytest.approx(0.002, rel=1e-12)
    assert cfg.budget.p_ps == pytest.approx(1e-7, rel=1e-12)


def test_parse_rejects_duplicate_forms():
    with pytest.raises(ConfigError, match="only one"):
        parse_config(doc(**{"params.sigma2": 1e-9}))


# every field with a decibel spelling: (block, field, suffix, value in decibels)
DECIBEL_FIELDS = [
    ("params", "sigma2", "_dbm", -55.0), ("params", "sigma2_e", "_dbm", -55.0),
    ("params", "sigma2_t", "_dbm", -40.0), ("params", "beta0", "_db", -30.0),
    ("params", "omega_ipu", "_db", -80.0), ("params", "omega_ipe", "_db", -80.0),
    ("budget", "p_tot", "_dbm", 10.0), ("budget", "p_ris", "_dbm", 0.0),
    ("budget", "p_ps", "_dbm", -40.0), ("budget", "p_dc", "_dbm", -40.0),
]


@pytest.mark.parametrize("block, field, suffix, value", DECIBEL_FIELDS)
def test_plain_spelling_parses_like_the_decibel_one(block, field, suffix, value):
    # p_ris is given instead of the default ris_fraction split
    base = {"budget.ris_fraction": ...} if field == "p_ris" else {}
    linear = (dbm_to_watts if suffix == "_dbm" else db_to_linear)(value)
    suffixed = parse_config(doc(**base, **{f"{block}.{field}{suffix}": value}))
    plain = parse_config(doc(**base, **{f"{block}.{field}{suffix}": ...,
                                        f"{block}.{field}": linear}))
    assert getattr(getattr(plain, block), field) == linear
    assert plain == suffixed
    with pytest.raises(ConfigError, match=f"'{field}': give only one"):
        parse_config(doc(**base, **{f"{block}.{field}{suffix}": value,
                                    f"{block}.{field}": linear}))


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="params.bandwidth"):
        parse_config(doc(**{"params.bandwidth": 1.0}))
    with pytest.raises(ConfigError, match="budget.p_solar"):
        parse_config(doc(**{"budget.p_solar": 1.0}))
    with pytest.raises(ConfigError, match="sweep.repeats"):
        parse_config(doc(**{"sweep.repeats": 3}))


def test_parse_requires_fields():
    with pytest.raises(ConfigError, match="varpi"):
        parse_config(doc(**{"params.varpi": ...}))
    with pytest.raises(ConfigError, match="p_tot"):
        parse_config(doc(**{"budget.p_tot_dbm": ...}))
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_config(doc(**{"sweep.values": ...}))


def test_element_count_completion():
    cfg = parse_config(doc())
    assert cfg.params.n_groups == 2  # derived from M / Q
    cfg = parse_config(doc(**{"params.n_elements": ..., "params.n_groups": 4}))
    assert cfg.params.n_elements == 80
    with pytest.raises(ConfigError, match="divisible"):
        parse_config(doc(**{"params.n_elements": 41}))
    with pytest.raises(ConfigError):
        parse_config(doc(**{"params.n_groups": 3}))  # inconsistent triple
    with pytest.raises(ConfigError, match="integer"):
        parse_config(doc(**{"params.n_active": 20.5}))
    with pytest.raises(ConfigError, match="integer"):
        parse_config(doc(**{"params.n_active": math.inf}))


def test_element_split_is_one_rule_for_the_file_and_the_sweep():
    # M = P*Q: the file's completion and an n_elements sweep value share one text
    text = "n_elements={} is not an integer divisible by {}"
    with pytest.raises(ConfigError) as info:
        parse_config(doc(**{"params.n_elements": 41}))
    assert str(info.value) == "config field 'params.n_elements': " + text.format(41, "n_active=20")
    with pytest.raises(ConfigError) as info:
        parse_config(doc(**{"params.n_active": ..., "params.n_groups": 3}))
    assert str(info.value) == "config field 'params.n_elements': " + text.format(40, "n_groups=3")
    for bad in (50.0, 40.5):
        with pytest.raises(ConfigError) as info:
            parse_config(doc(**{"sweep.variable": "n_elements", "sweep.values": [bad]}))
        assert str(info.value) == "config field 'sweep.values': " + text.format(bad, "n_active=20")
    cfg = parse_config(doc(**{"sweep.variable": "n_elements", "sweep.values": [60.0],
                              "sweep.hold": "n_groups"}))
    assert realize_point(cfg, 60.0, "aris").n_active == 30


def test_power_split_completion():
    cfg = parse_config(doc())
    assert cfg.params.a_n == pytest.approx(0.3, rel=1e-15)
    cfg = parse_config(doc(**{"params.a_f": ..., "params.a_n": 0.25}))
    assert cfg.params.a_f == pytest.approx(0.75, rel=1e-15)


def test_budget_rules():
    cfg = parse_config(doc(**{"budget.ris_fraction": ...}))
    assert cfg.ris_fraction == 0.2  # default split
    with pytest.raises(ConfigError, match="either p_ris or ris_fraction"):
        parse_config(doc(**{"budget.p_ris_dbm": 0.0}))
    with pytest.raises(ConfigError, match="ris_fraction"):
        parse_config(doc(**{"budget.ris_fraction": 1.0}))
    with pytest.raises(ConfigError, match="'ris_fraction': must be a number"):
        parse_config(doc(**{"budget.ris_fraction": False}))
    with pytest.raises(ConfigError, match="mode"):
        parse_config(doc(**{"budget.mode": "hybrid"}))
    explicit = parse_config(doc(**{"budget.ris_fraction": ..., "budget.p_ris_dbm": 0.0}))
    assert explicit.budget.p_ris == pytest.approx(1e-3, rel=1e-12)
    assert explicit.ris_fraction is None


def test_metric_validation():
    assert parse_config(doc(metric="throughput")).metric == "throughput"
    with pytest.raises(ConfigError, match="metric"):
        parse_config(doc(metric="latency"))


def test_config_built_in_python_refuses_an_unknown_metric():
    # the same check as a config file's, so no sweep prints a throughput
    # under another metric's name
    with pytest.raises(ConfigError, match="'metric': must be 'sop' or 'throughput'"):
        replace(load_preset("fig2"), metric="SOP")
    assert replace(load_preset("fig2"), metric="throughput").metric == "throughput"


def test_sweep_validation():
    with pytest.raises(ConfigError, match="monotone"):
        parse_config(doc(**{"sweep.values": [0.0, 2.0, 1.0]}))
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(doc(**{"sweep.scenarios": [["sidelink", "psic", "aris"]]}))
    with pytest.raises(ConfigError, match="sic"):
        parse_config(doc(**{"sweep.scenarios": [["internal", "genie", "aris"]]}))
    with pytest.raises(ConfigError, match="mode"):
        parse_config(doc(**{"sweep.scenarios": [["internal", "psic", "mesh"]]}))
    with pytest.raises(ConfigError, match="engine"):
        parse_config(doc(**{"sweep.engines": ["quantum"]}))
    with pytest.raises(ConfigError, match="variable"):
        parse_config(doc(**{"sweep.variable": "bandwidth"}))
    with pytest.raises(ConfigError, match="hold"):
        parse_config(doc(**{"sweep.hold": "sideways"}))
    with pytest.raises(ConfigError, match="trials"):
        parse_config(doc(**{"sweep.trials": True}))
    # sweep values are listed; there is no start/stop/step form
    with pytest.raises(ConfigError, match="'sweep.range': unknown field"):
        parse_config(doc(**{"sweep.values": ...,
                            "sweep.range": {"start": 0.0, "stop": 16.0, "step": 8.0}}))
    with pytest.raises(ConfigError, match="0.5"):
        parse_config(doc(**{"sweep.variable": "alpha_p", "sweep.values": [0.4, 0.6]}))
    with pytest.raises(ConfigError, match="divisible"):
        parse_config(doc(**{"sweep.variable": "n_elements", "sweep.values": [20.0, 50.0]}))


def test_sweep_spec_built_in_python_passes_the_config_checks():
    # lists become tuples, so a spec from Python hashes like a parsed one
    rows = [["internal", "psic", "aris"]]
    spec = SweepSpec("kappa", [1.0, 2], rows)
    assert spec.values == (1.0, 2.0) and spec.scenarios == (("internal", "psic", "aris"),)
    parsed = parse_config(doc(sweep={"variable": "kappa", "values": [1.0, 2], "scenarios": rows}))
    assert parsed.sweep == spec and hash(parsed.sweep) == hash(spec)
    assert (spec.engines, spec.trials, spec.seed, spec.hold) == (("analytic",), 100000, 0, "n_active")
    for field, value in (("trials", True), ("seed", 1.0), ("engines", "analytic"),
                         ("values", [1.0, math.inf]), ("scenarios", [["internal", "psic"]])):
        with pytest.raises(ConfigError, match=f"sweep.{field}"):
            SweepSpec(**{"variable": "kappa", "values": [1.0, 2.0], "scenarios": rows, field: value})
    with pytest.raises(ConfigError, match="'sweep.variable': required field missing"):
        parse_config(doc(**{"sweep.variable": ...}))


def test_load_config_reports_json_errors(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": "x",', encoding="utf-8")
    with pytest.raises(ConfigError, match="line"):
        load_config(bad)


def test_presets_load_and_realize():
    names = list_presets()
    assert len(names) >= 9
    for name in names:
        cfg = load_preset(name)
        assert cfg.sweep.values, name
        for scenario, sic, mode in cfg.sweep.scenarios:
            params = realize_point(cfg, cfg.sweep.values[0], mode)
            assert params.p_bs > 0.0, (name, mode)
            if mode == "pris":
                assert params.kappa == 1.0 and params.sigma2_t == 0.0


def test_load_preset_unknown():
    with pytest.raises(ConfigError, match="unknown preset"):
        load_preset("fig99")


def test_realize_point_arithmetic():
    cfg = parse_config(doc())
    q, m = cfg.params.n_active, cfg.params.n_elements
    hw = cfg.budget.p_ps + cfg.budget.p_dc
    aris = realize_point(cfg, None, "aris")
    assert aris.p_bs == pytest.approx(0.01 - 0.002 - q * hw, rel=1e-12)
    pris = realize_point(cfg, None, "pris")
    assert pris.kappa == 1.0
    assert pris.sigma2_t == 0.0
    assert pris.p_bs == pytest.approx(0.01 - m * cfg.budget.p_ps, rel=1e-12)
    with pytest.raises(ConfigError, match="mode"):
        realize_point(cfg, None, "hybrid")


def test_realize_point_builds_each_point_once(monkeypatch):
    # one SystemParams and one PowerBudget per realized point, at the base point
    # and at a value of every sweep variable, in both surface modes
    built = Counter()
    for cls in (SystemParams, PowerBudget):
        monkeypatch.setattr(cls, "__post_init__", lambda self, _real=cls.__post_init__:
                            built.update([type(self).__name__]) or _real(self))
    for variable, value in (("p_tot_dbm", 20.0), ("kappa", 4.0), ("n_elements", 100.0),
                            ("alpha_p", 0.75), ("rate", 0.2), ("sigma2_t_dbm", -50.0)):
        cfg = parse_config(doc(**{"sweep.variable": variable, "sweep.values": [value]}))
        for v in (None, value):
            for mode in ("aris", "pris"):
                built.clear()
                realize_point(cfg, v, mode)
                assert built == Counter(SystemParams=1, PowerBudget=1), (variable, v, mode)


def test_realize_point_names_a_refused_sweep_value_first():
    # at p_bs = 1 W (the parsed placeholder) kappa = 1e149 keeps kappa**2 p_bs / sigma2
    # finite; the 800 W that 60 dBm leaves the base station does not, a budget error
    cfg = parse_config(doc(**{"params.kappa": 1e149, "sweep.values": [10.0, 60.0]}))
    assert realize_point(cfg, 10.0, "aris").kappa == 1e149
    assert realize_point(cfg, 60.0, "pris").kappa == 1.0
    with pytest.raises(ConfigError, match="budget.p_tot"):
        realize_point(cfg, 60.0, "aris")
    # values parse_config would refuse: a total power that overflows, and a kappa
    # out of the domain whose base-station power would fail too, are sweep errors
    for variable, value in (("p_tot_dbm", 4000.0), ("kappa", 1e151), ("kappa", 0.5)):
        bad = replace(cfg, sweep=replace(cfg.sweep, variable=variable, values=(value,)))
        with pytest.raises(ConfigError, match="sweep.values"):
            realize_point(bad, value, "aris")
        with pytest.raises(ConfigError, match="sweep.values"):
            realize_point(bad, value, "hybrid")


def test_realize_point_applies_sweep_variable():
    cfg = parse_config(doc())
    moved = realize_point(cfg, 20.0, "aris")
    # the amplifier share follows the total when given as a fraction
    want = 0.1 - 0.02 - cfg.params.n_active * (cfg.budget.p_ps + cfg.budget.p_dc)
    assert moved.p_bs == pytest.approx(want, rel=1e-12)

    cfg = parse_config(doc(**{"sweep.variable": "kappa", "sweep.values": [4.0]}))
    assert realize_point(cfg, 4.0, "aris").kappa == 4.0

    cfg = parse_config(doc(**{"sweep.variable": "n_elements", "sweep.values": [100.0]}))
    grown = realize_point(cfg, 100.0, "aris")
    assert (grown.n_elements, grown.n_groups, grown.n_active) == (100, 5, 20)

    cfg = parse_config(doc(**{"sweep.variable": "n_elements", "sweep.values": [80.0],
                              "sweep.hold": "n_groups"}))
    grown = realize_point(cfg, 80.0, "aris")
    assert (grown.n_elements, grown.n_groups, grown.n_active) == (80, 2, 40)

    cfg = parse_config(doc(**{"sweep.variable": "alpha_p", "sweep.values": [0.75]}))
    split = realize_point(cfg, 0.75, "aris")
    assert (split.a_f, split.a_n) == (0.75, 0.25)

    cfg = parse_config(doc(**{"sweep.variable": "rate", "sweep.values": [0.2]}))
    rated = realize_point(cfg, 0.2, "aris")
    assert rated.r_f == rated.r_n == 0.2

    cfg = parse_config(doc(**{"sweep.variable": "sigma2_t_dbm", "sweep.values": [-50.0]}))
    assert realize_point(cfg, -50.0, "aris").sigma2_t == pytest.approx(1e-8, rel=1e-12)


# ---------------------------------------------------------------------------
# command line


def write_doc(tmp_path, d, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(d), encoding="utf-8")
    return path


def run_to_file(tmp_path, argv, name):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def draw_laws(cfg) -> set:
    return {tuple(getattr(realize_point(cfg, v, mode), f) for f in DRAW_FIELDS)
            for v in cfg.sweep.values for _, _, mode in cfg.sweep.scenarios}


def test_sweep_csv_deterministic(tmp_path):
    # holding n_groups, two element-count points change n_active and so
    # give two draw laws; repeat runs must still give the same bytes
    d = doc(**{"sweep.variable": "n_elements", "sweep.values": [20.0, 40.0],
               "sweep.hold": "n_groups", "sweep.trials": 2000})
    assert len(draw_laws(parse_config(d))) >= 2
    path = write_doc(tmp_path, d)
    argv = ["sweep", "--config", str(path)]
    code1, bytes1 = run_to_file(tmp_path, argv, "a.csv")
    code2, bytes2 = run_to_file(tmp_path, argv, "b.csv")
    assert code1 == code2 == cli.EXIT_OK
    assert bytes1 == bytes2


def test_element_sweep_holding_active_is_one_draw_group(monkeypatch):
    # n_elements and n_groups do not shape the draws, so holding n_active
    # scores every value from one stream; each row still equals its own
    # estimate_sop call
    cfg = parse_config(doc(**{"sweep.variable": "n_elements",
                              "sweep.values": [20.0, 40.0, 60.0],
                              "sweep.engines": ["montecarlo"], "sweep.trials": 2000}))
    assert len(draw_laws(cfg)) == 1
    calls = []
    rows = run_counting_grid_calls(cfg, monkeypatch, calls)
    assert calls == [len(rows)] == [3 * 2]
    assert_rows_match_estimate_sop(cfg, rows)


def test_sweep_over_two_draw_laws_is_one_grid_call(monkeypatch):
    # holding n_groups moves n_active, which shapes the draws: the grid
    # call groups the cells by law itself
    cfg = parse_config(doc(**{"sweep.variable": "n_elements", "sweep.values": [20.0, 40.0],
                              "sweep.hold": "n_groups", "sweep.engines": ["montecarlo"],
                              "sweep.trials": 2000}))
    assert len(draw_laws(cfg)) == 2
    calls = []
    rows = run_counting_grid_calls(cfg, monkeypatch, calls)
    assert calls == [len(rows)] == [2 * 2]
    assert_rows_match_estimate_sop(cfg, rows)


def test_closed_form_sweep_makes_no_grid_call(monkeypatch):
    cfg = parse_config(doc(**{"sweep.engines": ["analytic", "asymptotic"]}))
    calls = []
    run_counting_grid_calls(cfg, monkeypatch, calls)
    assert calls == []


def run_counting_grid_calls(cfg, monkeypatch, calls):
    real = cli.estimate_sop_grid
    monkeypatch.setattr(cli, "estimate_sop_grid",
                        lambda cases, *a, **k: calls.append(len(cases)) or real(cases, *a, **k))
    return cli.run_sweep(cfg, workers=2)


def assert_rows_match_estimate_sop(cfg, rows):
    for row in rows:
        params = realize_point(cfg, row["value"], row["mode"])
        res = estimate_sop(params, row["scenario"], row["sic"],
                           cfg.sweep.trials, cfg.sweep.seed)
        assert row["estimate"] == res.value and row["stderr"] == res.stderr, row


def parse_csv(data: bytes):
    lines = data.decode("utf-8").splitlines()
    assert lines[0].startswith("# meta ")
    meta = json.loads(lines[0][len("# meta "):])
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    return meta, rows


def test_sweep_rows_match_direct_engine_calls(tmp_path):
    path = write_doc(tmp_path, doc())
    code, data = run_to_file(tmp_path, ["sweep", "--config", str(path)], "out.csv")
    assert code == cli.EXIT_OK
    meta, rows = parse_csv(data)
    assert meta["name"] == "unit"
    assert tuple(rows[0].keys()) == cli.CSV_COLUMNS
    assert len(rows) == 2 * 2 * 2  # values x scenarios x engines

    cfg = parse_config(doc())
    for row in rows:
        value = float(row["value"])
        params = realize_point(cfg, value, row["mode"])
        if row["engine"] == "analytic":
            want = an.sop(params, row["scenario"], row["sic"]).value
            assert float(row["estimate"]) == want, row
            assert row["trials"] == "" and row["stderr"] == ""
        else:
            res = estimate_sop(params, row["scenario"], row["sic"],
                               cfg.sweep.trials, cfg.sweep.seed)
            assert float(row["estimate"]) == res.value, row
            assert int(row["trials"]) == cfg.sweep.trials
            assert float(row["stderr"]) == res.stderr


def closed_form_cell(params, scenario, sic, engine):
    # sop takes every scenario; sop_asymptotic raises on a union of events
    return (an.sop if engine == "analytic" else an.sop_asymptotic)(params, scenario, sic)


def cell_by_cell_rows(cfg):
    # the rows run_sweep must give, from one bare closed-form call per cell
    want = []
    for value in cfg.sweep.values:
        for scenario, sic, mode in cfg.sweep.scenarios:
            for engine in cfg.sweep.engines:
                row = {"sweep_var": cfg.sweep.variable, "value": float(value),
                       "scenario": scenario, "sic": sic, "mode": mode, "engine": engine,
                       "metric": cfg.metric, "estimate": None, "stderr": None,
                       "trials": None, "seed": None, "flags": "infeasible"}
                want.append(row)
                try:
                    params = realize_point(cfg, value, mode)
                    est = closed_form_cell(params, scenario, sic, engine)
                except BudgetInfeasibleError:
                    continue
                except UnsupportedScenarioError:
                    row["flags"] = "unsupported"
                    continue
                estimate, err = cli._metric_fields(cfg, params, scenario, est)
                row.update(estimate=estimate, stderr=err, flags="|".join(est.flags))
    return want


@pytest.mark.parametrize("preset", list_presets())
def test_closed_form_sweep_equals_cell_by_cell_calls(preset):
    cfg = load_preset(preset)
    cfg = replace(cfg, sweep=replace(cfg.sweep, engines=("analytic", "asymptotic")))
    assert cli.run_sweep(cfg) == cell_by_cell_rows(cfg)


@pytest.mark.parametrize("q", [1, 2, 5, 20, 64])
def test_batched_point_equals_bare_calls_at_every_element_count(q):
    # all cells of a point share one kernel call; each still equals its own
    # sop/sop_asymptotic call exactly, for every scenario, SIC mode and surface mode
    rows = [[s, sic, mode] for s in model.SCENARIOS for sic in model.SIC_MODES for mode in ("aris", "pris")]
    cfg = parse_config(doc(**{"params.n_elements": 2 * q, "params.n_active": q,
                              "sweep.values": [10.0, 30.0], "sweep.scenarios": rows,
                              "sweep.engines": ["analytic", "asymptotic"]}))
    got = cli.run_sweep(cfg)
    assert sum(r["estimate"] is not None for r in got) > len(got) // 2
    assert got == cell_by_cell_rows(cfg)


def test_closed_form_sweep_makes_one_kernel_call_per_point(monkeypatch, tmp_path):
    # the closed-form cells of both engines at a realized point are planned into one
    # CascadeBatch, evaluated by a single kdist_cdf call
    calls, points, real, realize = [], [], an.kdist_cdf, cli.realize_point
    monkeypatch.setattr(an, "kdist_cdf", lambda q, z: calls.append(np.size(z)) or real(q, z))
    monkeypatch.setattr(cli, "realize_point", lambda *args: points.append(realize(*args)) or points[-1])
    code, _ = run_to_file(tmp_path, ["sweep", "--preset", "fig2", "--engines", "a,asy"], "fig2.csv")
    assert code == cli.EXIT_OK
    assert 0 < len(calls) <= len(points), (len(calls), len(points))


# an active-surface element sweep holding Q: its four points differ only in M and P,
# one law, over every scenario and SIC mode and all three engines; 40 000 trials cut the last block
ARIS_ELEMENT_SWEEP = {"sweep.variable": "n_elements", "sweep.values": [20.0, 40.0, 60.0, 100.0],
                      "sweep.scenarios": [[s, sic, "aris"] for s in model.SCENARIOS
                                          for sic in model.SIC_MODES],
                      "sweep.engines": ["analytic", "asymptotic", "montecarlo"], "sweep.trials": 40_000}


def test_points_of_one_law_share_their_batch_and_scoring(monkeypatch):
    kernel, scored, real_kernel, real_scored = [], [], an.kdist_cdf, montecarlo._outage_counts
    monkeypatch.setattr(an, "kdist_cdf", lambda *a: kernel.append(a) or real_kernel(*a))
    monkeypatch.setattr(montecarlo, "_outage_counts", lambda *a: scored.append(a) or real_scored(*a))
    rows = cli.run_sweep(parse_config(doc(**ARIS_ELEMENT_SWEEP)))
    assert len(rows) == 4 * 8 * 3 and sum(r["estimate"] is not None for r in rows) > len(rows) // 2
    # one scoring per block of the law's stream, whatever the block size
    assert (len(kernel), len(scored)) == (1, -(-ARIS_ELEMENT_SWEEP["sweep.trials"] // montecarlo.BLOCK))


def test_points_of_one_law_sweep_as_single_value_runs(tmp_path):
    # the shared batch and scoring change no byte: the CSV body is the four
    # single-value runs' bodies one after the other
    def body(values, name):
        d = doc(**{**ARIS_ELEMENT_SWEEP, "sweep.values": values})
        code, text = run_to_file(tmp_path, ["sweep", "--config", str(write_doc(tmp_path, d, name))], name)
        assert code == cli.EXIT_OK
        return text.split(b"\n", 2)[2]  # past the meta and header lines

    values = ARIS_ELEMENT_SWEEP["sweep.values"]
    assert body(values, "all.csv") == b"".join(body([v], f"{v}.csv") for v in values)


@pytest.mark.parametrize("held", [True, False])
def test_registry_extension_sweeps_like_direct_calls(monkeypatch, held):
    # a new composed scenario is one registry entry; the sweep calls sop on it like
    # on any other scenario, and sop unions its events' kernels
    events = (model.SCENARIOS["external_n"][0], model.SCENARIOS["internal"][0])
    monkeypatch.setitem(model.SCENARIOS, "system_internal", events)
    if not held:
        monkeypatch.delitem(model.SCENARIOS, "internal")
    cfg = parse_config(doc(**{
        "sweep.scenarios": [["system_internal", sic, "aris"] for sic in ("ipsic", "psic")],
        "sweep.engines": ["analytic", "montecarlo", "asymptotic"]}))
    called, real = [], cli.sop
    monkeypatch.setattr(cli, "sop", lambda params, scenario, sic, **kw:
                        called.append(scenario) or real(params, scenario, sic, **kw))
    rows = cli.run_sweep(cfg)
    assert len(rows) == len(cfg.sweep.values) * 2 * 3
    for row in rows:
        params = realize_point(cfg, row["value"], row["mode"])
        if row["engine"] == "analytic":
            want = an.sop(params, "system_internal", row["sic"])
            assert (row["estimate"], row["flags"]) == (want.value, "|".join(want.flags)), row
        elif row["engine"] == "montecarlo":
            want = estimate_sop(params, "system_internal", row["sic"], cfg.sweep.trials, cfg.sweep.seed)
            assert (row["estimate"], row["stderr"]) == (want.value, want.stderr), row
        else:
            assert (row["estimate"], row["flags"]) == (None, "unsupported"), row
    kernel = []
    monkeypatch.setattr(an, "kdist_cdf", lambda *args, _f=an.kdist_cdf: kernel.append(args) or _f(*args))
    laws = {tuple(getattr(realize_point(cfg, value, "aris"), name) for name in model.LAW_FIELDS)
            for value in cfg.sweep.values}
    assert set(called) == {"system_internal"} and cli.run_sweep(cfg) == rows and len(kernel) == len(laws)


def test_sweep_shares_points_and_closed_form_cells(monkeypatch):
    # both modes, with the system event next to one of its per-user events:
    # each per-user SOP and each (value, mode) point is computed once per run
    cfg = parse_config(doc(**{
        "sweep.values": [10.0, 20.0, 30.0],
        "sweep.scenarios": [[s, "ipsic", m] for m in ("aris", "pris")
                            for s in ("external_n", "system_external")],
        "sweep.engines": ["analytic", "asymptotic"]}))
    counts = Counter()
    for name in ("sop", "sop_asymptotic", "sop_system_external", "realize_point"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _real=real, _name=name, **k:
                            counts.update([_name]) or _real(*a, **k))
    points = len(cfg.sweep.values) * 2
    # the system event's asymptote is one sop_asymptotic call too, which raises
    want = {"sop": points * 2, "sop_asymptotic": points * 2, "realize_point": points}
    first = cli.run_sweep(cfg)
    assert counts == want
    counts.clear()
    assert cli.run_sweep(cfg) == first and counts == want  # nothing kept between runs
    # the system event has no asymptote: one unsupported row per point
    assert sum(r["estimate"] is None for r in first) == points


def test_sweep_throughput_metric():
    cfg = parse_config(doc(metric="throughput",
                           **{"sweep.engines": ["analytic"], "sweep.values": [10.0]}))
    rows = cli.run_sweep(cfg)
    for row in rows:
        params = realize_point(cfg, 10.0, row["mode"])
        sop_val = an.sop(params, row["scenario"], row["sic"]).value
        rate = scenario_rate(params, row["scenario"])
        assert row["estimate"] == pytest.approx((1.0 - sop_val) * rate, rel=1e-15)


def test_sweep_marks_unsupported_asymptotes():
    cfg = parse_config(doc(**{
        "sweep.engines": ["asymptotic"], "sweep.values": [10.0],
        "sweep.scenarios": [["internal", "ipsic", "aris"],
                            ["system_external", "psic", "aris"],
                            ["external_f", "psic", "aris"]]}))
    rows = cli.run_sweep(cfg)
    assert rows[0]["flags"] == "unsupported" and rows[0]["estimate"] is None
    assert rows[1]["flags"] == "unsupported" and rows[1]["estimate"] is None
    assert rows[2]["estimate"] is not None


def test_zerorate_asymptotes_are_finite_or_unsupported(tmp_path):
    # unreachable receivers at zero rate: each asymptote is the exact 0 of
    # the zero threshold, never inf * 0
    argv = ["sweep", "--preset", "zerorate", "--engines", "asy"]
    code, data = run_to_file(tmp_path, argv, "z.csv")
    assert code == cli.EXIT_OK
    _, rows = parse_csv(data)
    assert rows
    for row in rows:
        assert row["flags"] == "unsupported" or math.isfinite(float(row["estimate"])), row


def test_sweep_infeasible_everywhere(tmp_path):
    # 10 W per phase shifter dwarfs every swept total budget
    d = doc(**{"budget.p_ps_dbm": 40.0, "budget.p_dc_dbm": 40.0})
    path = write_doc(tmp_path, d)
    code, data = run_to_file(tmp_path, ["sweep", "--config", str(path)], "out.csv")
    assert code == cli.EXIT_INFEASIBLE
    _, rows = parse_csv(data)
    assert rows and all(r["flags"] == "infeasible" for r in rows)
    assert all(r["estimate"] == "" for r in rows)


def test_analytic_command_prints_table(tmp_path, capsys):
    path = write_doc(tmp_path, doc())
    code = cli.main(["analytic", "--config", str(path)])
    assert code == cli.EXIT_OK
    shown = capsys.readouterr().out
    assert "external_n" in shown and "analytic" in shown
    cfg = parse_config(doc())
    want = an.sop(realize_point(cfg, None, "aris"), "external_n", "psic").value
    assert f"{want:.6e}" in shown


def test_simulate_command_is_deterministic(tmp_path):
    path = write_doc(tmp_path, doc(**{"sweep.trials": 2000}))
    argv = ["simulate", "--config", str(path), "--seed", "11"]
    code1, bytes1 = run_to_file(tmp_path, argv, "a.csv")
    code2, bytes2 = run_to_file(tmp_path, argv, "b.csv")
    assert code1 == code2 == cli.EXIT_OK
    assert bytes1 == bytes2
    _, rows = parse_csv(bytes1)
    cfg = parse_config(doc())
    first = rows[0]
    params = realize_point(cfg, None, first["mode"])
    res = estimate_sop(params, first["scenario"], first["sic"], 2000, 11)
    assert float(first["estimate"]) == res.value


def test_engine_alias_override(tmp_path):
    path = write_doc(tmp_path, doc(**{"sweep.values": [10.0], "sweep.trials": 500}))
    code, data = run_to_file(
        tmp_path, ["sweep", "--config", str(path), "--engines", "a,asy"], "out.csv")
    assert code == cli.EXIT_OK
    _, rows = parse_csv(data)
    assert {r["engine"] for r in rows} == {"analytic", "asymptotic"}


def test_repeated_engine_runs_once(tmp_path):
    # a config file and --engines follow one rule: an engine runs once, where it first appears
    spec = SweepSpec("kappa", [2.0], [["internal", "psic", "aris"]],
                     engines=["analytic", "montecarlo", "analytic"])
    assert spec.engines == ("analytic", "montecarlo")
    d = json.loads(resources.files("ris_secrecy").joinpath("presets/zerorate.json").read_text())
    d["sweep"]["engines"] = ["analytic", "analytic"]
    path = write_doc(tmp_path, d)
    for extra in ([], ["--engines", "a,analytic"]):
        code, data = run_to_file(tmp_path, ["sweep", "--config", str(path), *extra], "out.csv")
        assert code == cli.EXIT_OK
        meta, rows = parse_csv(data)
        assert meta["sweep"]["engines"] == ["analytic"]
        assert [r["engine"] for r in rows] == ["analytic"] * len(d["sweep"]["scenarios"])


def test_validate_passes_at_exact_zero_rate(capsys):
    code = cli.main(["validate", "--preset", "zerorate",
                     "--trials", "4000", "--seed", "7"])
    shown = capsys.readouterr().out
    assert code == cli.EXIT_OK, shown
    assert "0 failures" in shown
    assert "PASS" in shown and "SKIP" in shown


def test_sop_tolerance_branches():
    # zero rate with a zero closed form: exact, whatever the Monte Carlo spread
    assert cli.sop_tolerance(0.0, 0.01, 0.003, "aris", "psic", 0.0) == 0.0
    # a zero rate alone is not exact
    assert cli.sop_tolerance(0.2, 0.2, 0.0, "aris", "psic", 0.0) == pytest.approx(0.03)
    # passive perfect SIC: max(3 sigma, 2 percent of the larger estimate)
    assert cli.sop_tolerance(0.5, 0.4, 0.001, "pris", "psic", 0.1) == pytest.approx(0.01)
    assert cli.sop_tolerance(0.5, 0.4, 0.01, "pris", "psic", 0.1) == pytest.approx(0.03)
    # every other branch: max(3 sigma, 15 percent of the larger estimate)
    for mode, sic in (("aris", "psic"), ("aris", "ipsic"), ("pris", "ipsic")):
        assert cli.sop_tolerance(0.4, 0.5, 0.001, mode, sic, 0.1) == pytest.approx(0.075)
        assert cli.sop_tolerance(0.01, 0.02, 0.002, mode, sic, 0.1) == pytest.approx(0.006)


def test_validate_detects_disagreement(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "sop",
        lambda params, scenario, sic, **kw: SopEstimate(value=0.77, provenance="analytic"),
    )
    code = cli.main(["validate", "--preset", "zerorate",
                     "--trials", "300", "--seed", "7",
                     "--json", str(tmp_path / "report.json")])
    assert code == cli.EXIT_VALIDATION
    shown = capsys.readouterr().out
    assert "FAIL" in shown
    report = json.loads((tmp_path / "report.json").read_text())
    assert any(c["status"] == "fail" for c in report["checks"])


@pytest.mark.parametrize("flag, value", [("--out", "v.csv"), ("--engines", "asy")])
def test_validate_rejects_table_flags(tmp_path, monkeypatch, capsys, flag, value):
    # validate always runs both engines and writes its report with --json only
    monkeypatch.chdir(tmp_path)
    code = cli.main(["validate", "--preset", "zerorate", flag, value])
    assert code == cli.EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_validate_draws_each_pilot_stream_once_per_mode(tmp_path, monkeypatch):
    # one mode and trials within one block: one realized point, one block drawn
    # and one grid call scoring every SOP cell and CDF probe, however many
    # families the rows check
    calls, realized, streams = [], [], []
    original, realize = montecarlo._draw_block, cli.realize_point
    monkeypatch.setattr(montecarlo, "_draw_block",
                        lambda *args: calls.append(args[1:]) or original(*args))
    monkeypatch.setattr(cli, "realize_point",
                        lambda *args: realized.append(args[1:]) or realize(*args))
    # each engine stream function cli imports, with the cases and trials it is given
    for name in ("estimate_sop_grid", "sinr_samples", "empirical_sinr_cdfs"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, _fn=getattr(cli, name):
                            streams.append((_name, args)) or _fn(*args))
    rows = [["external_n", "psic", "aris"], ["external_f", "psic", "aris"],
            ["internal", "ipsic", "aris"]]
    d = doc(**{"sweep.scenarios": rows, "sweep.trials": 3000})
    cfg = parse_config(d)
    checks = cli.validate_point(cfg, cfg.sweep.trials, cfg.sweep.seed)
    assert [c["check"] for c in checks] == ["sop", "cdf", "pdf"] * 3
    assert len(calls) == 1
    assert realized == [(None, "aris")]
    [(name, (cases, trials, seed))] = streams
    assert (name, trials, seed) == ("estimate_sop_grid", 3000, cfg.sweep.seed)
    # an outage cell or a CDF probe per check, in check order
    assert [(case[1], case[2], len(case)) for case in cases] == [
        (c["scenario"], c["sic"], 3 if c["check"] == "sop" else 4) for c in checks]

    # each SOP check holds the analytic and simulate commands' base-point rows
    path = write_doc(tmp_path, d)
    estimates = {}
    for command in ("analytic", "simulate"):
        out = tmp_path / f"{command}.json"
        assert cli.main([command, "--config", str(path), "--json", str(out)]) == cli.EXIT_OK
        for row in json.loads(out.read_text())["rows"]:
            estimates[row["scenario"], row["engine"]] = row["estimate"]
    for c in checks[::3]:
        assert c["analytic"] == estimates[c["scenario"], "analytic"]
        assert c["montecarlo"] == estimates[c["scenario"], "montecarlo"]


@pytest.mark.parametrize("trials, blocks", [(t, list(range(-(-t // montecarlo.BLOCK))))
                                             for t in (20_000, 70_000)])
def test_validate_draws_each_prefix_block_once_per_call(monkeypatch, trials, blocks):
    # fig2 has two modes on one draw law: one grid call scores both modes' SOP
    # cells and CDF probes, and draws each block of the law's stream once
    calls = []
    original = montecarlo._draw_block
    monkeypatch.setattr(montecarlo, "_draw_block", lambda *args: calls.append(args[2]) or original(*args))
    cfg = load_preset("fig2")
    cli.validate_point(cfg, trials, cfg.sweep.seed)
    assert sorted(calls) == blocks


@pytest.mark.parametrize("delta", [0.0, 0.03, -0.03])
def test_validate_cdf_checks_catch_a_three_percent_scale_error(monkeypatch, delta):
    # every closed form reads its cascade argument through DerivedConstants.scale,
    # and the Monte Carlo SINRs do not: scaled by 1 + delta, the closed-form
    # deciles leave the simulated law, and at fig2's own trials each of its six
    # CDF checks fails at 3 percent while none fails unscaled
    scale = model.DerivedConstants.scale
    monkeypatch.setattr(model.DerivedConstants, "scale",
                        lambda self, *args: (1.0 + delta) * scale(self, *args))
    cfg = load_preset("fig2")
    checks = cli.validate_point(cfg, cfg.sweep.trials, cfg.sweep.seed)
    assert [c["status"] for c in checks if c["check"] == "cdf"] == ["fail" if delta else "pass"] * 6


def test_validate_skips_infeasible_rows_with_the_budget_message(tmp_path):
    # 10 W per phase shifter dwarfs the base budget in both surface modes
    rows = [["external_n", "psic", "aris"], ["internal", "ipsic", "pris"],
            ["system_external", "psic", "aris"]]
    d = doc(**{"budget.p_ps_dbm": 40.0, "budget.p_dc_dbm": 40.0, "sweep.scenarios": rows})
    cfg = parse_config(d)
    checks = cli.validate_point(cfg, cfg.sweep.trials, cfg.sweep.seed)
    assert [(c["check"], c["scenario"], c["status"]) for c in checks] == [
        ("sop", "external_n", "skip"), ("sop", "internal", "skip"),
        ("sop", "system_external", "skip")]
    for c in checks[:2]:
        with pytest.raises(BudgetInfeasibleError) as info:
            realize_point(cfg, None, c["mode"])
        assert c["detail"] == f"infeasible: {info.value}"
    assert checks[2]["detail"] == ("composed quantity; per-user rows external_n (configured), "
                                   "external_f (not configured)")
    # every checked point infeasible: the command exits as analytic and sweep do
    path = write_doc(tmp_path, d)
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_INFEASIBLE


def test_validate_names_the_rows_covering_a_composed_row():
    # both per-user rows of the system event at psic/aris are configured, none at ipsic/aris
    rows = [["external_n", "psic", "aris"], ["external_f", "psic", "aris"],
            ["system_external", "psic", "aris"], ["system_external", "ipsic", "aris"]]
    cfg = parse_config(doc(**{"sweep.scenarios": rows, "sweep.trials": 3000}))
    checks = cli.validate_point(cfg, cfg.sweep.trials, cfg.sweep.seed)
    assert [(c["sic"], c["detail"]) for c in checks if c["scenario"] == "system_external"] == [
        ("psic", "composed quantity; per-user rows external_n (configured), external_f (configured)"),
        ("ipsic", "composed quantity; per-user rows external_n (not configured), "
                  "external_f (not configured)")]


def test_validate_that_checks_nothing_does_not_exit_ok(capsys):
    # fig5 tables only system_external rows, which validate skips as composed:
    # a run whose every check is a skip has verified nothing
    code = cli.main(["validate", "--preset", "fig5", "--trials", "4000"])
    shown = capsys.readouterr().out
    assert code == cli.EXIT_INFEASIBLE, shown
    assert shown.splitlines()[-1] == "2 checks, 0 failures"
    assert all(line.startswith("SKIP sop system_external") for line in shown.splitlines()[:-1])


def test_validate_joins_the_engines_by_key(monkeypatch):
    # each SOP check reads its row's two engine cells by key, whatever their order
    cfg = load_preset("fig2")
    want = cli.validate_point(cfg, cfg.sweep.trials, cfg.sweep.seed)
    run_cells = cli._run_cells
    monkeypatch.setattr(cli, "_run_cells", lambda *args: run_cells(*args)[::-1])
    assert cli.validate_point(cfg, cfg.sweep.trials, cfg.sweep.seed) == want


def test_validate_scores_no_composed_row(monkeypatch):
    # a row of several events is skipped before any engine sees it: neither the
    # union's Monte Carlo cell nor its missing per-user closed form is computed
    calls = []
    for name in ("estimate_sop_grid", "sop", "sop_asymptotic"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, _fn=getattr(cli, name), **kw:
                            calls.append((_name, args)) or _fn(*args, **kw))
    rows = [["external_n", "ipsic", "aris"], ["system_external", "ipsic", "aris"]]
    cfg = parse_config(doc(**{"sweep.scenarios": rows, "sweep.trials": 3000}))
    checks = cli.validate_point(cfg, cfg.sweep.trials, cfg.sweep.seed)
    assert [(c["check"], c["scenario"], c["status"] == "skip") for c in checks] == [
        ("sop", "external_n", False), ("cdf", "user_n", False), ("pdf", "eve_n", False),
        ("sop", "system_external", True)]
    [cases] = [args[0] for name, args in calls if name == "estimate_sop_grid"]
    # the outage cells; the rest are the CDF probes of user_n and eve_n
    assert [case[1] for case in cases if len(case) == 3] == ["external_n"]
    assert [case[1] for case in cases if len(case) == 4] == ["user_n", "eve_n"]
    assert [args[1] for name, args in calls if name != "estimate_sop_grid"] == ["external_n"]


def test_validate_of_composed_rows_only_draws_nothing(monkeypatch, capsys):
    # fig5 tables only system_external rows: validate realizes no point and draws nothing
    touched = []
    draw, realize = montecarlo._draw_block, cli.realize_point
    monkeypatch.setattr(montecarlo, "_draw_block", lambda *args: touched.append("draw") or draw(*args))
    monkeypatch.setattr(cli, "realize_point",
                        lambda *args: touched.append("realize") or realize(*args))
    cfg = load_preset("fig5")
    checks = cli.validate_point(cfg, 4000, cfg.sweep.seed)
    assert [(c["check"], c["scenario"], c["status"]) for c in checks] == [
        ("sop", "system_external", "skip")] * 2
    assert cli.main(["validate", "--preset", "fig5", "--trials", "4000"]) == cli.EXIT_INFEASIBLE
    assert touched == []


def _registry_pairs(side):
    return {(event[side], model.SINR_FAMILIES[event[side]].sic_for(sic))
            for events in model.SCENARIOS.values() for event in events for sic in model.SIC_MODES}


def test_validate_forms_are_the_registry_laws(monkeypatch):
    # keys: the legitimate and wiretap family of every scenario event, with
    # the SIC mode it reads; entries: law itself, the CDF
    assert set(cli._CDF_FORMS) == _registry_pairs(0)
    assert set(cli._PDF_FORMS) == _registry_pairs(1)
    assert all(form is an.law for forms in (cli._CDF_FORMS, cli._PDF_FORMS) for form in forms.values())

    # validate_point looks every entry up at call time, so a wrapper installed
    # in the tables (as the benchmark's traced pass installs one) sees each call;
    # it passes the entry's key and no keyword
    calls = Counter()
    for forms in (cli._CDF_FORMS, cli._PDF_FORMS):
        for key, form in list(forms.items()):
            monkeypatch.setitem(forms, key, lambda x, params, *args, _form=form, **kw:
                                calls.update([(*args, kw.get("density", False))])
                                or _form(x, params, *args, **kw))
    rows = [["external_n", "ipsic", "aris"], ["external_n", "psic", "aris"],
            ["external_f", "psic", "aris"], ["internal", "psic", "aris"]]
    cfg = parse_config(doc(**{"sweep.scenarios": rows, "sweep.trials": 3000}))
    checks = cli.validate_point(cfg, cfg.sweep.trials, cfg.sweep.seed)
    assert sum(c["check"] != "sop" and c["status"] != "skip" for c in checks) == 7
    assert calls == Counter([(*key, False) for key in [*cli._CDF_FORMS, *cli._PDF_FORMS]])


SCIPY_BLOCKER = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    # a RuntimeError, not an ImportError, so that no fallback can swallow it
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise RuntimeError(f"import of {name} attempted")

sys.meta_path.insert(0, NoScipy())
from ris_secrecy import analytic, cli
from ris_secrecy.config import load_preset, realize_point
out = sys.argv[1]
for argv in (["simulate", "--preset", "fig2", "--trials", "2000"],
             ["analytic", "--preset", "fig2"],
             ["sweep", "--preset", "fig2", "--engines", "a,asy,m", "--trials", "2000",
              "--out", out + "/sweep.csv"],
             ["validate", "--preset", "fig2", "--trials", "20000"],
             ["quadrature-dump", "--order", "256", "--out", out + "/table.json"]):
    assert cli.main(argv) == cli.EXIT_OK, argv
params = realize_point(load_preset("fig2"), None, "aris")
for sic in ("ipsic", "psic"):
    analytic.sop(params, "external_n", sic)
analytic.law([0.5, 2.0], params, "user_n", "ipsic")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _run_python(*args):
    """A fresh interpreter on this checkout's package, with its output captured."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


def test_no_command_imports_scipy(tmp_path):
    # scipy is a test-only oracle: a fresh process that refuses any scipy import
    # runs every command and the closed forms, and loads no scipy module
    proc = _run_python("-c", SCIPY_BLOCKER, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_large_accepted_kappa_warns_nothing(tmp_path):
    # fig2 (p_tot_dbm 0) at kappa 1e100, whose kappa^2 terms sit near the top
    # of the float range: no SOP and no analytic command warns
    d = json.loads(resources.files("ris_secrecy").joinpath("presets/fig2.json").read_text())
    d["params"]["kappa"] = 1e100
    cfg = parse_config(d)
    single = [s for s, events in model.SCENARIOS.items() if len(events) == 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in ("aris", "pris"):
            params = realize_point(cfg, None, mode)
            for scenario in single:
                for sic in model.SIC_MODES:
                    assert 0.0 <= an.sop(params, scenario, sic).value <= 1.0
    proc = _run_python("-m", "ris_secrecy.cli", "analytic", "--config", str(write_doc(tmp_path, d)))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_quadrature_dump_matches_table(tmp_path):
    out = tmp_path / "table.json"
    code = cli.main(["quadrature-dump", "--order", "4", "--out", str(out)])
    assert code == cli.EXIT_OK
    dumped = json.loads(out.read_text())
    table = gauss_laguerre(4)
    assert dumped["order"] == 4
    assert dumped["nodes"] == [float(x) for x in table.nodes]
    assert dumped["weights"] == [float(w) for w in table.weights]
    assert np.sum(dumped["weights"]) == pytest.approx(1.0, rel=1e-12)
    assert cli.main(["quadrature-dump", "--order", "257"]) == cli.EXIT_CONFIG


def test_json_mirror_matches_csv(tmp_path):
    path = write_doc(tmp_path, doc(**{"sweep.values": [10.0], "sweep.trials": 500}))
    out_csv = tmp_path / "rows.csv"
    out_json = tmp_path / "rows.json"
    code = cli.main(["sweep", "--config", str(path),
                     "--out", str(out_csv), "--json", str(out_json)])
    assert code == cli.EXIT_OK
    _, csv_rows = parse_csv(out_csv.read_bytes())
    mirror = json.loads(out_json.read_text())
    assert len(mirror["rows"]) == len(csv_rows)
    assert mirror["meta"]["name"] == "unit"
    for jrow, crow in zip(mirror["rows"], csv_rows):
        assert jrow["scenario"] == crow["scenario"]
        if jrow["estimate"] is not None:
            assert float(crow["estimate"]) == jrow["estimate"]


def test_cli_error_paths(tmp_path, capsys):
    assert cli.main(["sweep", "--preset", "fig99"]) == cli.EXIT_CONFIG
    assert cli.main(["sweep", "--config", str(tmp_path / "nope.json")]) == cli.EXIT_CONFIG
    assert cli.main(["sweep"]) == cli.EXIT_CONFIG  # config or preset required
    assert cli.main([]) == cli.EXIT_CONFIG  # subcommand required
    path = write_doc(tmp_path, doc())
    assert cli.main(["sweep", "--config", str(path),
                     "--engines", "warp"]) == cli.EXIT_CONFIG
    assert cli.main(["sweep", "--config", str(path),
                     "--preset", "fig2"]) == cli.EXIT_CONFIG  # mutually exclusive
    capsys.readouterr()  # drain usage noise
    # a directory or a file that is not UTF-8 is a configuration error naming the file
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"name": "caf\xe9"}')
    for source in (tmp_path, undecodable):
        assert cli.main(["analytic", "--config", str(source)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(source) in err
    # an empty engine list is given, not absent
    for command in ("sweep", "analytic"):
        assert cli.main([command, "--config", str(path), "--engines", ""]) == cli.EXIT_CONFIG
        assert "'engines'" in capsys.readouterr().err
    # an output path that cannot be written is a configuration error naming the option
    for option in ("--out", "--json"):
        assert cli.main(["analytic", "--config", str(path), option, str(tmp_path)]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{option}': {tmp_path}: ")
        assert err.count("\n") == 1


def test_empty_preset_name_is_a_config_error(capsys):
    # an empty --preset is an unknown preset, not an absent one
    assert cli.main(["analytic", "--preset", ""]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'preset': ") and err.count("\n") == 1


NAN = float("nan")
# every float field a scenario file carries, under the key BASE_DOC uses
FLOAT_KEYS = [f"params.{k}" for k, v in BASE_DOC["params"].items() if isinstance(v, float)]
FLOAT_KEYS += [f"budget.{k}" for k, v in BASE_DOC["budget"].items() if isinstance(v, float)]


def assert_config_error(tmp_path, capsys, d, field):
    path = write_doc(tmp_path, d)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err


@pytest.mark.parametrize("key", FLOAT_KEYS + ["params.a_n", "budget.p_ris_dbm"])
def test_nan_field_fails_at_the_boundary(tmp_path, capsys, key):
    edits = {key: NAN}
    if key == "params.a_n":
        edits["params.a_f"] = ...
    if key == "budget.p_ris_dbm":
        edits["budget.ris_fraction"] = ...
    field = key.split(".", 1)[1]
    with pytest.raises(ConfigError, match=field):
        parse_config(doc(**edits))
    assert_config_error(tmp_path, capsys, doc(**edits), field)


@pytest.mark.parametrize("key, value", [("p_tot", -1), ("p_tot", 0), ("p_ps", -1e-3)])
def test_budget_power_out_of_domain_fails_at_the_boundary(tmp_path, capsys, key, value):
    # plain linear powers skip the decibel conversion, so they can leave the
    # domain PowerBudget accepts
    d = doc(**{f"budget.{key}_dbm": ..., f"budget.{key}": value})
    with pytest.raises(ConfigError, match=key):
        parse_config(d)
    assert_config_error(tmp_path, capsys, d, key)


# id -> (edits, the field the error names): JSON Infinity, and decibel
# values whose linear value overflows a float
INFINITE_INPUTS = {
    "omega_ipu": ({"params.omega_ipu_db": math.inf}, "omega_ipu"),
    "omega_ipe": ({"params.omega_ipe_db": math.inf}, "omega_ipe"),
    "kappa": ({"params.kappa": math.inf}, "kappa"),
    "beta0": ({"params.beta0_db": math.inf}, "beta0"),
    "alpha_p": ({"params.alpha_p": math.inf}, "alpha_p"),
    "p_tot": ({"budget.p_tot_dbm": math.inf}, "p_tot"),
    "sigma2_4000db": ({"params.sigma2_dbm": 4000.0}, "sigma2"),
    "p_tot_4000db": ({"budget.p_tot_dbm": 4000.0}, "p_tot"),
    "sweep_p_tot_4000db": ({"sweep.values": [10.0, 4000.0]}, "sweep.values"),
    "sweep_sigma2_t_4000db": ({"sweep.variable": "sigma2_t_dbm", "sweep.values": [4000.0]},
                              "sweep.values"),
}


@pytest.mark.parametrize("key", INFINITE_INPUTS)
def test_infinite_input_fails_at_the_boundary(tmp_path, capsys, key):
    edits, field = INFINITE_INPUTS[key]
    with pytest.raises(ConfigError, match=field):
        parse_config(doc(**edits))
    assert_config_error(tmp_path, capsys, doc(**edits), field)


# id -> (edits, the field the error names): finite inputs from which the
# engines would form a float beyond range (kappa^2 p_bs / noise, 2^rate, a
# mean hop gain), at the base point, a sweep value or the realized p_bs
OVERFLOWING_INPUTS = {
    "kappa_1e155": ({"params.kappa": 1e155}, "kappa"),
    "r_n_1100": ({"params.r_n": 1100.0}, "r_n"),
    "d_br_1e-200": ({"params.d_br": 1e-200}, "d_br"),
    "kappa_1e150_p_tot_300dbm": ({"params.kappa": 1e150, "budget.p_tot_dbm": 300.0}, "kappa"),
    "realized_p_bs": ({"params.kappa": 1e140, "budget.p_tot_dbm": 300.0}, "budget.p_tot"),
    "sweep_rate_1100": ({"sweep.variable": "rate", "sweep.values": [0.1, 1100.0]}, "sweep.values"),
}


@pytest.mark.parametrize("command", ["analytic", "simulate"])
@pytest.mark.parametrize("key", OVERFLOWING_INPUTS)
def test_overflowing_input_fails_at_the_boundary(tmp_path, capsys, key, command):
    edits, field = OVERFLOWING_INPUTS[key]
    path = write_doc(tmp_path, doc(**edits))
    assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and field in err


@pytest.mark.parametrize("variable, good", [
    ("p_tot_dbm", 10.0), ("kappa", 4.0), ("n_elements", 40.0),
    ("alpha_p", 0.7), ("sigma2_t_dbm", -40.0), ("rate", 0.1),
])
def test_nan_sweep_value_fails_at_the_boundary(tmp_path, capsys, variable, good):
    for values in ([NAN], [good, NAN]):
        d = doc(**{"sweep.variable": variable, "sweep.values": values})
        with pytest.raises(ConfigError, match="sweep.values"):
            parse_config(d)
        assert_config_error(tmp_path, capsys, d, "sweep.values")


@pytest.mark.parametrize("variable, good, bad", [
    ("kappa", 4.0, 0.5), ("rate", 0.1, -0.1),
    ("n_elements", 40.0, -20.0), ("n_elements", 40.0, 0.0),
])
def test_out_of_domain_sweep_value_fails_at_the_boundary(tmp_path, capsys, variable, good, bad):
    # these values pass the sweep block's own checks but leave the domain
    # SystemParams accepts
    for values in ([bad], [good, bad]):
        d = doc(**{"sweep.variable": variable, "sweep.values": values})
        with pytest.raises(ConfigError, match="sweep.values"):
            parse_config(d)
        assert_config_error(tmp_path, capsys, d, "sweep.values")
