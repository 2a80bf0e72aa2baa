"""Command line front end: closed-form curves, simulation, sweeps, validation.

Subcommands
    analytic         closed-form metrics at the config's base operating point
    simulate         Monte Carlo metrics at the base operating point
    sweep            full curve table over the configured sweep
    validate         closed-form vs Monte Carlo agreement report (exit 3 on failure)
    quadrature-dump  Gauss-Laguerre nodes and weights as JSON (order 1..256)

Curve tables use a fixed CSV schema

    sweep_var, value, scenario, sic, mode, engine, metric,
    estimate, stderr, trials, seed, flags

preceded by one '# meta' comment line holding the fully resolved
configuration as JSON.  Output carries no timestamps and the Monte Carlo
draws are keyed by (seed, trial index), so repeated runs produce
byte-identical bytes.

Infeasible operating points (hardware draw exceeding the budget) become
rows flagged 'infeasible' with an empty estimate rather than aborting the
sweep.  Exit codes: 0 success, 1 configuration error, 2 every requested
point infeasible, 3 validation failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np

from . import __version__, model
from .analytic import (
    UnsupportedScenarioError,
    cdf_user_f,
    cdf_user_n_ipsic,
    cdf_user_n_psic,
    pdf_eve_f,
    pdf_eve_n_ipsic,
    pdf_eve_n_psic,
    pdf_internal_f_to_n,
    sop,
    sop_asymptotic,
    sop_system_external,  # unused here; perfbench/spans.py wraps it by this name
    sop_union,
)
from .budget import BudgetInfeasibleError
from .config import ConfigError, ScenarioConfig, load_config, load_preset, list_presets, realize_point
from .model import scenario_rate
# sinr_samples is unused here; perfbench/spans.py wraps it by this name
from .montecarlo import empirical_sinr_cdfs, estimate_sop_grid, sample_draw, sinr_samples
from .specfun import gauss_laguerre

__all__ = ["main", "run_sweep", "validate_point"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3

CSV_COLUMNS = (
    "sweep_var", "value", "scenario", "sic", "mode", "engine", "metric",
    "estimate", "stderr", "trials", "seed", "flags",
)

_ENGINE_ALIASES = {
    "a": "analytic",
    "analytic": "analytic",
    "m": "montecarlo",
    "mc": "montecarlo",
    "montecarlo": "montecarlo",
    "asy": "asymptotic",
    "asymptotic": "asymptotic",
}


class _CliArgumentError(Exception):
    """argparse rejected the command line; mapped to the config exit code."""


class _Parser(argparse.ArgumentParser):
    # default argparse exits with status 2, which this tool reserves for
    # infeasible sweeps; surface usage problems as configuration errors
    def error(self, message):
        raise _CliArgumentError(message)


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_engines(text: str) -> tuple[str, ...]:
    engines = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in _ENGINE_ALIASES:
            raise ConfigError("engines", f"unknown engine {token!r}")
        name = _ENGINE_ALIASES[token]
        if name not in engines:
            engines.append(name)
    if not engines:
        raise ConfigError("engines", "no engine selected")
    return tuple(engines)


def _load(args) -> ScenarioConfig:
    if getattr(args, "preset", None):
        cfg = load_preset(args.preset)
    else:
        cfg = load_config(args.config)
    overrides = {}
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = args.trials
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "engines", None):
        overrides["engines"] = _parse_engines(args.engines)
    if overrides:
        cfg = dataclasses.replace(cfg, sweep=dataclasses.replace(cfg.sweep, **overrides))
    return cfg


def _meta_line(cfg: ScenarioConfig, point: str) -> str:
    meta = {
        "budget": dataclasses.asdict(cfg.budget),
        "metric": cfg.metric,
        "name": cfg.name,
        "params": dataclasses.asdict(cfg.params),
        "point": point,
        "ris_fraction": cfg.ris_fraction,
        "sweep": dataclasses.asdict(cfg.sweep),
        "version": __version__,
    }
    return "# meta " + json.dumps(meta, sort_keys=True)


def _rows_to_csv(cfg: ScenarioConfig, rows: list[dict], point: str) -> str:
    buf = io.StringIO()
    buf.write(_meta_line(cfg, point) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


def _write_text(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_json(path, cfg: ScenarioConfig, rows: list[dict], point: str):
    doc = {
        "meta": json.loads(_meta_line(cfg, point)[len("# meta ") :]),
        "rows": rows,
    }
    _write_text(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _closed_form_estimate(memo: dict, params, scenario, sic, engine):
    """One closed-form cell, evaluated once per memo; the system event is the
    union of the memoized external_n and external_f cells."""
    key = (params, scenario, sic, engine)
    if key not in memo:
        if scenario != "system_external":
            memo[key] = (sop_asymptotic if engine == "asymptotic" else sop)(params, scenario, sic)
        elif engine == "asymptotic":
            raise UnsupportedScenarioError("no closed-form asymptote for the system event")
        else:
            memo[key] = sop_union(*(_closed_form_estimate(memo, params, s, sic, engine)
                                    for s in ("external_n", "external_f")))
    return memo[key]


def _metric_fields(cfg, params, scenario, est):
    """Map an SOP estimate onto the configured metric column and its stderr."""
    if cfg.metric == "sop":
        return est.value, est.stderr
    rate = scenario_rate(params, scenario)
    thr = (1.0 - est.value) * rate
    return thr, (None if est.stderr is None else rate * est.stderr)


def run_sweep(cfg: ScenarioConfig, workers: int = 1) -> list[dict]:
    """Evaluate the configured sweep; returns rows in deterministic order.

    Row order is value-major, then scenario order, then engine order, all
    exactly as configured.  All Monte Carlo cells, of any draw law, go to one
    estimate_sop_grid call, which groups them by law internally, so
    estimates match individual estimate_sop calls bit for bit.  `workers` is
    accepted for compatibility and ignored: every run is serial.
    """
    return _run_cells(cfg, cfg.sweep.values, cfg.sweep.variable)


def _run_cells(cfg: ScenarioConfig, values, sweep_var: str) -> list[dict]:
    """Rows for every (value, scenario row, engine) cell; value None is the base point.
    Each (value, mode) point is realized, and each closed-form cell evaluated, once."""
    sweep = cfg.sweep
    cells = []
    for value in values:
        points = {}
        for scenario, sic, mode in sweep.scenarios:
            if mode not in points:
                try:
                    points[mode] = realize_point(cfg, value, mode)
                except BudgetInfeasibleError:
                    points[mode] = None
            params = points[mode]
            for engine in sweep.engines:
                row = {
                    "sweep_var": sweep_var, "value": None if value is None else float(value),
                    "scenario": scenario, "sic": sic, "mode": mode,
                    "engine": engine, "metric": cfg.metric,
                    "estimate": None, "stderr": None, "trials": None, "seed": None,
                    "flags": "" if params is not None else "infeasible",
                }
                cells.append((row, params))

    mc_cells = [i for i, (row, params) in enumerate(cells)
                if row["engine"] == "montecarlo" and params is not None]
    cases = [(cells[i][1], cells[i][0]["scenario"], cells[i][0]["sic"]) for i in mc_cells]
    # no grid call without Monte Carlo cells: the traced benchmark counts grid calls
    mc = dict(zip(mc_cells, estimate_sop_grid(cases, sweep.trials, sweep.seed))) if cases else {}

    memo = {}
    for i, (row, params) in enumerate(cells):
        if params is None:
            continue
        try:
            est = mc.get(i) or _closed_form_estimate(memo, params, row["scenario"], row["sic"],
                                                     row["engine"])
        except UnsupportedScenarioError:
            row["flags"] = "unsupported"
            continue
        value, err = _metric_fields(cfg, params, row["scenario"], est)
        row.update(estimate=value, stderr=err, trials=est.trials, flags="|".join(est.flags),
                   seed=None if est.trials is None else sweep.seed)
    return [row for row, _ in cells]


def _all_infeasible(rows: list[dict]) -> bool:
    return bool(rows) and all(r["flags"] == "infeasible" for r in rows)


def _print_table(rows: list[dict]):
    header = [c for c in CSV_COLUMNS if c not in ("sweep_var",)]
    widths = {c: max(len(c), 12) for c in header}
    line = "  ".join(c.ljust(widths[c]) for c in header)
    sys.stdout.write(line.rstrip() + "\n")
    for row in rows:
        cells = []
        for c in header:
            v = row[c]
            if isinstance(v, float):
                text = f"{v:.6e}"
            else:
                text = "" if v is None else str(v)
            cells.append(text.ljust(widths[c]))
        sys.stdout.write("  ".join(cells).rstrip() + "\n")


def _cmd_point(args, engines_default) -> int:
    cfg = _load(args)
    engines = cfg.sweep.engines if getattr(args, "engines", None) else engines_default
    cfg = dataclasses.replace(cfg, sweep=dataclasses.replace(cfg.sweep, engines=engines))
    # bypass the sweep variable entirely: realize the base point as-is
    rows = _run_cells(cfg, (None,), "")

    if args.out:
        _write_text(args.out, _rows_to_csv(cfg, rows, point="base"))
    if args.json:
        _write_json(args.json, cfg, rows, point="base")
    if not args.out and not args.json:
        _print_table(rows)
    return EXIT_INFEASIBLE if _all_infeasible(rows) else EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    rows = run_sweep(cfg)
    text = _rows_to_csv(cfg, rows, point="sweep")
    if args.json:
        _write_json(args.json, cfg, rows, point="sweep")
    if args.out or not args.json:
        _write_text(args.out, text)
    return EXIT_INFEASIBLE if _all_infeasible(rows) else EXIT_OK


# closed forms keyed by (SINR family, sic); x-first call convention
_CDF_FORMS = {
    ("user_n", "ipsic"): cdf_user_n_ipsic,
    ("user_n", "psic"): cdf_user_n_psic,
    ("user_f", "psic"): cdf_user_f,
}

_PDF_FORMS = {
    ("eve_n", "ipsic"): pdf_eve_n_ipsic,
    ("eve_n", "psic"): pdf_eve_n_psic,
    ("eve_f", "psic"): pdf_eve_f,
    ("internal_f_to_n", "psic"): pdf_internal_f_to_n,
}


def _family_sic(family: str, sic: str) -> str:
    # families the SIC mode does not enter are checked once, under psic
    return sic if model.SINR_FAMILIES[family].takes_sic else "psic"


def validate_point(cfg: ScenarioConfig, trials: int, seed: int) -> list[dict]:
    """Closed-form vs Monte Carlo agreement checks at the base operating point.

    Per scenario row: the SOP itself, the legitimate-side SINR CDF on a
    pilot-quantile grid, and the wiretap-side density mass over a pilot
    interval.  Tolerances combine the binomial error with the documented
    mean-field slack: 3 sigma + 2 percent for the passive perfect-SIC
    branch (no mean-field step survives there), max(3 sigma, 15 percent)
    otherwise; CDFs get 3 sigma + 0.005 absolute, densities 3 sigma + 2.5
    percent of the interval mass.  Wiretap checks whose receiver has zero
    mean gain are reported as skipped.  All SOP rows share one draw stream,
    and the CDF and density checks of each surface mode share another; the
    pilots of each mode are scored on one draw of that stream's first trials.
    """
    checks, sop_rows, pending, pilots = [], [], {}, {}
    seen = set()
    for scenario, sic, mode in cfg.sweep.scenarios:
        events = model.SCENARIOS[scenario]
        if len(events) > 1:
            checks.append({"check": "sop", "scenario": scenario, "sic": sic,
                           "mode": mode, "status": "skip",
                           "detail": "composed quantity; per-user rows cover it"})
            continue
        try:
            params = realize_point(cfg, None, mode)
        except BudgetInfeasibleError as exc:
            checks.append({"check": "sop", "scenario": scenario, "sic": sic,
                           "mode": mode, "status": "skip",
                           "detail": f"infeasible: {exc}"})
            continue
        sop_rows.append((len(checks), params, scenario, sic, mode))
        checks.append(None)
        if mode not in pilots:
            pilots[mode] = sample_draw(params, min(trials, 1 << 16), seed)

        legit, eve, _ = events[0]
        for kind, family, plan, finish in (("cdf", legit, _cdf_plan, _cdf_result),
                                           ("pdf", eve, _pdf_plan, _pdf_result)):
            family_sic = _family_sic(family, sic)
            if (family, family_sic, mode) in seen:
                continue
            seen.add((family, family_sic, mode))
            base = {"check": kind, "scenario": family, "sic": family_sic, "mode": mode}
            gamma = model.sinr(family, params, pilots[mode], family_sic)
            points, why = plan(params, family, gamma)
            if points is None:
                checks.append({**base, "status": "skip", "detail": why})
                continue
            pending.setdefault(mode, (params, []))[1].append((len(checks), points, finish))
            checks.append(base)
    pilots = gamma = None  # release the pilot draws before the scoring passes

    results = estimate_sop_grid([row[1:4] for row in sop_rows], trials, seed)
    for (i, params, scenario, sic, mode), mres in zip(sop_rows, results):
        a = sop(params, scenario, sic)
        m = mres.value
        if scenario_rate(params, scenario) == 0.0 and a.value == 0.0:
            tol, gap = 0.0, abs(a.value - m)
        elif mode == "pris" and sic == "psic":
            tol = 3.0 * mres.stderr + 0.02 * max(a.value, m)
            gap = abs(a.value - m)
        else:
            tol = max(3.0 * mres.stderr, 0.15 * max(a.value, m))
            gap = abs(a.value - m)
        checks[i] = {
            "check": "sop", "scenario": scenario, "sic": sic, "mode": mode,
            "status": "pass" if gap <= tol else "fail",
            "analytic": a.value, "montecarlo": m, "gap": gap, "tolerance": tol,
            "detail": f"analytic={a.value:.6g} mc={m:.6g} tol={tol:.3g}",
        }
    for params, rows in pending.values():
        requests = [(checks[i]["scenario"], checks[i]["sic"], points) for i, points, _ in rows]
        emps = empirical_sinr_cdfs(params, requests, trials, seed)
        for (i, points, finish), emp in zip(rows, emps):
            checks[i] = finish(checks[i], params, points, emp, trials)
    return checks


def _cdf_plan(params, family, gamma):
    """Pilot-quantile thresholds of a CDF check, or None and the reason to skip it."""
    if not np.all(np.isfinite(gamma)) or float(np.max(gamma)) <= 0.0:
        return None, "degenerate SINR (zero mean gain)"
    thresholds = np.quantile(gamma, np.linspace(0.1, 0.9, 9))
    if np.min(thresholds) <= 0.0:
        return None, "pilot quantiles hit zero"
    return thresholds, ""


def _cdf_result(base, params, thresholds, emp, trials) -> dict:
    form = _CDF_FORMS[(base["scenario"], base["sic"])]
    closed = np.asarray(form(thresholds, params), dtype=float)
    tol = 3.0 * np.sqrt(np.maximum(closed * (1.0 - closed), 1e-12) / trials) + 0.005
    gap = np.abs(emp - closed)
    worst = int(np.argmax(gap - tol))
    ok = bool(np.all(gap <= tol))
    return {
        **base,
        "status": "pass" if ok else "fail",
        "gap": float(gap[worst]), "tolerance": float(tol[worst]),
        "detail": f"max|F_mc-F|={float(np.max(gap)):.4g} "
                  f"at x={float(thresholds[worst]):.4g} tol={float(tol[worst]):.3g}",
    }


def _simpson(y, h: float) -> float:
    """Composite Simpson rule over samples y of odd length on a uniform grid of step h."""
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def _pdf_plan(params, family, gamma):
    """Pilot interquartile interval of a density check, or None and the reason to skip it."""
    # an infinitely distant wiretap receiver has zero mean gain
    dist = getattr(params, model.SINR_FAMILIES[family].distance)
    if not math.isfinite(dist):
        return None, "zero mean gain at the wiretap"
    lo, hi = (float(q) for q in np.quantile(gamma, [0.25, 0.75]))
    if not 0.0 < lo < hi:
        return None, "degenerate pilot interval"
    return np.array([lo, hi]), ""


def _pdf_result(base, params, interval, emp, trials) -> dict:
    lo, hi = (float(x) for x in interval)
    grid = np.linspace(lo, hi, 513)
    pdf = np.asarray(_PDF_FORMS[(base["scenario"], base["sic"])](grid, params), dtype=float)
    mass = _simpson(pdf, grid[1] - grid[0])
    emp_mass = float(emp[1] - emp[0])
    tol = 3.0 * math.sqrt(max(emp_mass * (1.0 - emp_mass), 1e-12) / trials) + 0.025 * max(emp_mass, mass)
    gap = abs(mass - emp_mass)
    return {
        **base,
        "status": "pass" if gap <= tol else "fail",
        "gap": gap, "tolerance": tol,
        "detail": f"integral={mass:.6g} mc={emp_mass:.6g} on [{lo:.3g},{hi:.3g}] tol={tol:.3g}",
    }


def _cmd_validate(args) -> int:
    cfg = _load(args)
    checks = validate_point(cfg, cfg.sweep.trials, cfg.sweep.seed)
    failures = 0
    for c in checks:
        status = c["status"].upper()
        if c["status"] == "fail":
            failures += 1
        sys.stdout.write(
            f"{status:4s} {c['check']:3s} {c['scenario']:15s} {c['sic']:5s} "
            f"{c['mode']:4s} {c.get('detail', '')}\n"
        )
    sys.stdout.write(f"{len(checks)} checks, {failures} failures\n")
    if args.json:
        _write_text(args.json, json.dumps({"checks": checks}, sort_keys=True, indent=1) + "\n")
    return EXIT_VALIDATION if failures else EXIT_OK


def _cmd_quadrature_dump(args) -> int:
    try:
        table = gauss_laguerre(args.order)
    except ValueError as exc:
        raise ConfigError("order", str(exc)) from exc
    doc = {
        "order": args.order,
        "nodes": [float(x) for x in table.nodes],
        "weights": [float(w) for w in table.weights],
    }
    _write_text(args.out, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return EXIT_OK


def _add_common(sub, *, trials=True, table=True):
    # table: the command writes a curve table over selectable engines
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="path to a scenario JSON file")
    group.add_argument("--preset", help=f"shipped preset name, one of {list_presets()}")
    if trials:
        sub.add_argument("--trials", type=int, help="Monte Carlo trials (overrides config)")
        sub.add_argument("--seed", type=int, help="Monte Carlo seed (overrides config)")
    if table:
        sub.add_argument("--engines", help="comma list: a|analytic, m|montecarlo, asy|asymptotic")
        sub.add_argument("--out", help="write CSV here instead of a table ('-' = stdout)")
    sub.add_argument("--json", help="also write a JSON mirror here")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ris-secrecy",
                     description="Secrecy outage toolkit for amplifying-surface NOMA downlinks")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("analytic", help="closed forms at the base operating point")
    _add_common(sub, trials=False)
    sub.set_defaults(func=lambda args: _cmd_point(args, ("analytic",)))

    sub = subs.add_parser("simulate", help="Monte Carlo at the base operating point")
    _add_common(sub)
    sub.set_defaults(func=lambda args: _cmd_point(args, ("montecarlo",)))

    sub = subs.add_parser("sweep", help="curve table over the configured sweep")
    _add_common(sub)
    sub.set_defaults(func=_cmd_sweep)

    sub = subs.add_parser("validate", help="closed-form vs Monte Carlo agreement report")
    _add_common(sub, table=False)
    sub.set_defaults(func=_cmd_validate)

    sub = subs.add_parser("quadrature-dump", help="Gauss-Laguerre nodes and weights")
    sub.add_argument("--order", type=int, default=64,
                     help="quadrature order, 1..256 (default 64)")
    sub.add_argument("--out", help="write JSON here (default stdout)")
    sub.set_defaults(func=_cmd_quadrature_dump)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliArgumentError, ConfigError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
