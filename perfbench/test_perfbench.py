"""Self-tests for the benchmark's own helpers.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from spans import BLOCK  # noqa: E402


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_generator_is_deterministic_and_parses(workload):
    from ris_secrecy.config import parse_config

    make = gen.GENERATORS[workload]
    first = json.dumps(make(7), sort_keys=True)
    assert json.dumps(make(7), sort_keys=True) == first
    assert json.dumps(make(8), sort_keys=True) != first
    for doc in json.loads(first):
        parse_config(doc)


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_generated_sizes_do_not_depend_on_the_seed(workload):
    def shape(doc):
        sweep = doc["sweep"]
        return (doc["params"]["n_active"] if workload != "analytic_sweep" else None,
                sweep["variable"], len(sweep["values"]), len(sweep["scenarios"]),
                tuple(sweep["engines"]), sweep["trials"])

    shapes = {tuple(shape(d) for d in gen.GENERATORS[workload](s)) for s in range(20)}
    assert len(shapes) == 1


def test_analytic_q_is_stratified_over_1_to_64():
    for seed in range(20):
        qs = [d["params"]["n_active"] for d in gen.analytic_sweep_docs(seed)]
        assert qs == sorted(qs) and 1 <= qs[0] <= 4 and 61 <= qs[-1] <= 64


def _span(name, start, end, parent=-1, pass_id="p", counts=None, error=None):
    return [name, start, end, parent, pass_id, counts, error]


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span("cli.run_sweep", 0.0, 10.0),
        _span("montecarlo.estimate_sop_grid", 1.0, 6.0, parent=0),
        _span("model.sinr_user_n", 2.0, 3.0, parent=1),
        _span("model.sinr_eve_n", 4.0, 4.5, parent=1),
        _span("analytic.sop", 7.0, 9.0, parent=0),
        _span("model.derive", 7.5, 8.0, parent=4),
        # a child reaching past its parent only counts inside the parent
        _span("specfun.kdist_cdf", 8.5, 9.5, parent=4),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.5, 1.0, 0.5, 1.0, 0.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [_span("a", 0.0, 4.0), _span("b", 1.0, 3.0, parent=0), _span("c", 2.0, 3.5, parent=0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.5)


def test_tracer_records_nesting_counts_errors_and_restores():
    import types

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return [x] * x

    mod = types.SimpleNamespace(leaf=leaf)
    forms = {"k": leaf}

    def outer(x):
        return mod.leaf(x) + forms["k"](x)

    tracer = spans.Tracer()
    tracer.pass_id = "t"
    with tracer.patched([(mod, "leaf", "model.leaf", spans.count_result_size),
                         (forms, "k", "model.form", None)]):
        tracer.wrap(outer, "cli.outer")(3)
        with pytest.raises(ValueError):
            mod.leaf(-1)
    assert mod.leaf is leaf and forms["k"] is leaf
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["cli.outer", "model.leaf", "model.form", "model.leaf"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 0, -1]
    assert tracer.spans[1][spans.COUNTS] == {"elements": 3}
    assert tracer.spans[3][spans.ERROR] == "ValueError"


class _P:
    def __init__(self, **kw):
        base = dict(n_active=20, n_elements=40, n_groups=2, d_br=20.0, d_rn=10.0, d_rf=20.0,
                    d_re=20.0, alpha_p=2.0, beta0=1e-3, omega_ipu=1e-8, omega_ipe=1e-8)
        base.update(kw)
        self.__dict__.update(base)


def test_blocks_and_redraw_ratio_formulas():
    p = _P()
    one = spans.count_grid(([(p, "external_n", "psic")], 80_000, 5), {}, None)
    assert one["blocks"] == 3 and spans.blocks_for(BLOCK) == 1 and spans.blocks_for(BLOCK + 1) == 2
    # the same stream drawn again (another cell family) is a redraw
    again = spans.count_stream((p, "user_n", 20_000, 5), {}, None)
    other_seed = spans.count_stream((p, "user_n", 20_000, 6), {}, None)
    shared = spans.count_stream((p, "user_n", 20_000, 5), {"shared_hbr": True}, None)
    stats = spans.draw_stats([one, again, other_seed, shared])
    assert stats["blocks_drawn"] == 6
    assert stats["trials_requested"] == 140_000
    assert stats["trials_drawn"] == 6 * BLOCK
    assert stats["trial_use_ratio"] == pytest.approx(140_000 / (6 * BLOCK))
    assert stats["redraw_ratio"] == pytest.approx(6 / 5)
    assert spans.draw_stats([])["redraw_ratio"] == 0.0


def test_fig4_shape_groups_share_one_draw_law():
    from ris_secrecy.cli import _shape_key
    from ris_secrecy.config import load_preset, realize_point

    cfg = load_preset("fig4")
    groups = {}
    for value in cfg.sweep.values:
        for _, _, mode in cfg.sweep.scenarios:
            p = realize_point(cfg, value, mode)
            groups.setdefault(_shape_key(p), p)
    calls = [spans.count_grid(([(p, "system_external", "psic")], cfg.sweep.trials,
                               cfg.sweep.seed), {}, None) for p in groups.values()]
    stats = spans.draw_stats(calls)
    per_group = spans.blocks_for(cfg.sweep.trials)
    assert len(groups) == len(cfg.sweep.values) == 5
    assert stats["blocks_drawn"] == 5 * per_group
    # n_active is held, so every group draws the same (law, seed, block) stream
    assert stats["redraw_ratio"] == pytest.approx(5.0)


def test_layer_metrics_aggregate_one_pass():
    p = _P()
    grid = spans.count_grid(([(p, "external_n", "psic")], BLOCK, 1), {}, None)
    tree = [
        _span("cli.run_sweep", 0.0, 10.0),
        _span("config.realize_point", 0.0, 0.5, parent=0, error="BudgetInfeasibleError"),
        _span("config.realize_point", 0.5, 1.0, parent=0),
        _span("montecarlo.estimate_sop_grid", 1.0, 6.0, parent=0, counts=grid),
        _span("model.sinr_user_n", 2.0, 3.0, parent=3, counts={"elements": 7}),
        _span("analytic.sop", 7.0, 9.0, parent=0, counts={"flags": ["saturated"]}),
        _span("analytic.sop", 0.0, 1.0, pass_id="other"),
    ]
    m = spans.layer_metrics(tree, "p")
    assert m["montecarlo.blocks_drawn"] == 1 and m["cli.shape_groups"] == 1
    assert m["montecarlo.self_s"] == pytest.approx(4.0)
    assert m["montecarlo.draw_us_per_trial"] == pytest.approx(4.0 / BLOCK * 1e6)
    assert m["model.sinr.calls"] == 1 and m["model.sinr.elements"] == 7
    assert m["analytic.cells"] == 1 and m["analytic.flags.saturated"] == 1
    assert m["analytic.cell_ms_p50"] == pytest.approx(2000.0)
    assert m["config.realize_point.calls"] == 2 and m["budget.infeasible_cells"] == 1
    assert m["cli.run_sweep.self_s"] == pytest.approx(10.0 - 1.0 - 5.0 - 2.0)


def _row(engine, estimate, stderr=None, trials=None, flags=""):
    return {"sweep_var": "p_tot_dbm", "value": 0.0, "scenario": "external_n", "sic": "psic",
            "mode": "aris", "engine": engine, "metric": "sop", "estimate": estimate,
            "stderr": stderr, "trials": trials, "seed": 1 if trials else None, "flags": flags}


def test_reference_tolerances():
    n = 10_000
    se = (0.3 * 0.7 / n) ** 0.5
    ref_rows = [_row("analytic", 0.25), _row("montecarlo", 0.3, se, n), _row("analytic", None,
                                                                              flags="infeasible")]
    ref = check.make_record("mc_sweep", [ref_rows])
    near = [_row("analytic", 0.25 + 5e-10), _row("montecarlo", 0.3 + 6 * se, se, n),
            _row("analytic", None, flags="infeasible")]
    assert check.reference_failures("mc_sweep", [near], ref, [n]) == 0
    far = [_row("analytic", 0.25 + 2e-9), _row("montecarlo", 0.3 + 8 * se, se, n),
           _row("analytic", None, flags="infeasible")]
    assert check.reference_failures("mc_sweep", [far], ref, [n]) == 2
    renamed = [dict(r, scenario="internal") for r in ref_rows]
    assert check.reference_failures("mc_sweep", [renamed], ref, [n]) == 3


def test_row_invariants():
    n = 400
    assert check.row_ok(_row("montecarlo", 0.5, 0.025, n))
    assert not check.row_ok(_row("montecarlo", 0.5, 0.03, n))
    assert not check.row_ok(_row("analytic", float("nan")))
    assert not check.row_ok(_row("analytic", 1.5))
    assert check.row_ok(_row("asymptotic", 1.5, flags="asymptote-regime-invalid"))
    assert not check.row_ok(_row("analytic", 0.1, flags="infeasible"))


def test_gate_counts_raised_and_changed_passes():
    import types

    import run

    cfg = types.SimpleNamespace(sweep=types.SimpleNamespace(
        trials=10, values=(1.0, 2.0), scenarios=(("internal", "psic", "aris"),),
        engines=("analytic",)))
    gate = run.Gate("analytic_sweep", seed=10**9, cfgs=[cfg])
    rows = [[_row("analytic", 0.25), _row("analytic", 0.5)]]
    assert gate.run(lambda: rows)[0] == rows
    assert gate.run(lambda: [[_row("analytic", 0.25), _row("analytic", 0.5 + 1e-15)]])[0]

    def boom():
        raise RuntimeError("escaped")

    assert gate.run(boom)[0] is None
    assert (gate.attempted, gate.failed) == (6, 4)
