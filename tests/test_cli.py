"""Checks for configuration parsing, presets and the command line tool.

Groups: decibel conversion and field validation in the config layer;
element-count and power-split completion; budget and sweep block rules;
preset integrity; operating-point realization for both surface modes
and every sweep variable; CSV byte-determinism across repeat runs; one
grid call per run over any number of draw laws; row agreement with
direct engine calls; closed-form cells and realized points shared within
one sweep, never across sweeps; infeasible and unsupported row marking; the
validation report and its exit code; quadrature dump; JSON mirrors;
command line error handling; NaN and out-of-domain input rejected at the
config boundary.
"""

import copy
import csv
import io
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ris_secrecy import analytic as an
from ris_secrecy import cli, montecarlo
from ris_secrecy.analytic import SopEstimate, UnsupportedScenarioError
from ris_secrecy.budget import BudgetInfeasibleError
from ris_secrecy.config import (
    ConfigError,
    db_to_linear,
    dbm_to_watts,
    list_presets,
    load_config,
    load_preset,
    parse_config,
    realize_point,
)
from ris_secrecy.model import scenario_rate
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
    with pytest.raises(ConfigError, match="mode"):
        parse_config(doc(**{"budget.mode": "hybrid"}))
    explicit = parse_config(doc(**{"budget.ris_fraction": ..., "budget.p_ris_dbm": 0.0}))
    assert explicit.budget.p_ris == pytest.approx(1e-3, rel=1e-12)
    assert explicit.ris_fraction is None


def test_metric_validation():
    assert parse_config(doc(metric="throughput")).metric == "throughput"
    with pytest.raises(ConfigError, match="metric"):
        parse_config(doc(metric="latency"))


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
    if engine == "analytic" and scenario == "system_external":
        return an.sop_system_external(params, sic)
    if engine == "analytic":
        return an.sop(params, scenario, sic)
    if scenario == "system_external":
        raise UnsupportedScenarioError("no system asymptote")
    return an.sop_asymptotic(params, scenario, sic)


@pytest.mark.parametrize("preset", list_presets())
def test_closed_form_sweep_equals_cell_by_cell_calls(preset):
    cfg = load_preset(preset)
    cfg = replace(cfg, sweep=replace(cfg.sweep, engines=("analytic", "asymptotic")))
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
    assert cli.run_sweep(cfg) == want


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
    want = {"sop": points * 2, "sop_asymptotic": points, "realize_point": points}
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


def test_validate_passes_at_exact_zero_rate(capsys):
    code = cli.main(["validate", "--preset", "zerorate",
                     "--trials", "4000", "--seed", "7"])
    shown = capsys.readouterr().out
    assert code == cli.EXIT_OK, shown
    assert "0 failures" in shown
    assert "PASS" in shown and "SKIP" in shown


def test_validate_detects_disagreement(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "sop",
        lambda params, scenario, sic: SopEstimate(value=0.77, provenance="analytic"),
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


def test_validate_draws_each_pilot_stream_once_per_mode(monkeypatch):
    # one mode and trials within one block: one pilot draw, one SOP pass and
    # one empirical pass, however many families the rows check
    calls = []
    original = montecarlo._draw_block
    monkeypatch.setattr(montecarlo, "_draw_block",
                        lambda *args: calls.append(args[1:]) or original(*args))
    rows = [["external_n", "psic", "aris"], ["external_f", "psic", "aris"],
            ["internal", "ipsic", "aris"]]
    cfg = parse_config(doc(**{"sweep.scenarios": rows, "sweep.trials": 3000}))
    checks = cli.validate_point(cfg, cfg.sweep.trials, cfg.sweep.seed)
    assert [c["check"] for c in checks] == ["sop", "cdf", "pdf"] * 3
    assert len(calls) == 3


def test_simpson_matches_scipy():
    from scipy.integrate import simpson

    grid = np.linspace(0.3, 2.7, 513)
    for y in (np.exp(-grid), grid**3, np.log1p(grid) / grid):
        assert cli._simpson(y, grid[1] - grid[0]) == pytest.approx(simpson(y, x=grid), rel=1e-13)


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


NAN = float("nan")
# every float field a scenario file carries, under the key BASE_DOC uses
FLOAT_KEYS = [f"params.{k}" for k, v in BASE_DOC["params"].items() if isinstance(v, float)]
FLOAT_KEYS += [f"budget.{k}" for k, v in BASE_DOC["budget"].items() if isinstance(v, float)]


def assert_config_error(tmp_path, capsys, d, field):
    path = write_doc(tmp_path, d)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]) \
        == cli.EXIT_CONFIG
    assert field in capsys.readouterr().err


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


@pytest.mark.parametrize("key", ["omega_ipu", "omega_ipe"])
def test_infinite_residual_gain_fails_at_the_boundary(tmp_path, capsys, key):
    d = doc(**{f"params.{key}_db": math.inf})
    with pytest.raises(ConfigError, match=key):
        parse_config(d)
    assert_config_error(tmp_path, capsys, d, key)


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
