"""Command line front end: closed-form curves, simulation, sweeps, validation.

Subcommands
    analytic         closed-form metrics at the config's base operating point
    simulate         Monte Carlo metrics at the base operating point
    sweep            full curve table over the configured sweep
    validate         closed-form vs Monte Carlo agreement report (exit 3 on failure,
                     2 when every check is a skip); composed rows are skipped unscored
    quadrature-dump  Gauss-Laguerre nodes and weights as JSON (order 1..256)

Curve tables use a fixed CSV schema

    sweep_var, value, scenario, sic, mode, engine, metric,
    estimate, stderr, trials, seed, flags

preceded by one '# meta' comment line holding the fully resolved
configuration as JSON.  Output carries no timestamps and the Monte Carlo
draws are keyed by (seed, trial index), so repeated runs produce
byte-identical bytes.

Every scoring command runs one executor, which returns one immutable Cell per
(value, scenario, sic, mode, engine): rows are rendered from cells at the edge,
and validate reads the closed-form cells by that key.  Infeasible operating
points (hardware draw exceeding the budget) become rows flagged 'infeasible'
with an empty estimate rather than aborting the sweep.  Exit codes: 0 success,
1 configuration error, 2 every requested point infeasible or, for validate, no
check made, 3 validation failures.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import __version__, model
from .analytic import (
    CascadeBatch,
    UnsupportedScenarioError,
    law,
    law_points,
    sop,
    sop_asymptotic,
    sop_system_external,  # unused here; perfbench/spans.py wraps it by this name
)
from .budget import BudgetInfeasibleError
from .config import ConfigError, ScenarioConfig, load_config, load_preset, list_presets, realize_point
from .model import SopEstimate, SystemParams, scenario_rate
# empirical_sinr_cdfs and sinr_samples are unused here; perfbench/spans.py wraps them by these names
from .montecarlo import empirical_sinr_cdfs, estimate_sop_grid, sinr_samples
from .specfun import gauss_laguerre

__all__ = ["main", "run_sweep", "sop_tolerance", "validate_point"]

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


def _parse_engines(text: str) -> tuple[str, ...]:
    tokens = [token.strip().lower() for token in text.split(",") if token.strip()]
    for token in tokens:
        if token not in _ENGINE_ALIASES:
            raise ConfigError("engines", f"unknown engine {token!r}")
    if not tokens:
        raise ConfigError("engines", "no engine selected")
    return tuple(_ENGINE_ALIASES[token] for token in tokens)


def _load(args, engines=()) -> ScenarioConfig:
    """The named config with the command line's overrides; `engines` stand in
    for the config's unless --engines is given."""
    if getattr(args, "preset", None) is not None:
        cfg = load_preset(args.preset)
    else:
        cfg = load_config(args.config)
    overrides = {k: getattr(args, k) for k in ("trials", "seed")
                 if getattr(args, k, None) is not None}
    if getattr(args, "engines", None) is not None:
        overrides["engines"] = _parse_engines(args.engines)
    elif engines:
        overrides["engines"] = engines
    if overrides:
        cfg = dataclasses.replace(cfg, sweep=dataclasses.replace(cfg.sweep, **overrides))
    return cfg


def _meta(cfg: ScenarioConfig, point: str) -> dict:
    return {
        "budget": dataclasses.asdict(cfg.budget),
        "metric": cfg.metric,
        "name": cfg.name,
        "params": dataclasses.asdict(cfg.params),
        "point": point,
        "ris_fraction": cfg.ris_fraction,
        "sweep": dataclasses.asdict(cfg.sweep),
        "version": __version__,
    }


def _rows_to_csv(cfg: ScenarioConfig, rows: list[dict], point: str) -> str:
    buf = io.StringIO()
    buf.write("# meta " + json.dumps(_meta(cfg, point), sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([row[c] for c in CSV_COLUMNS])  # None as empty, floats by repr
    return buf.getvalue()


def _write_text(option: str, path, text: str):
    """Write to the file the command-line option names, or stdout for None or '-'."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(option, f"{path}: {exc.strerror or exc}") from exc


def _write_json(option: str, path, doc: dict):
    _write_text(option, path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _metric_fields(cfg, params, scenario, est):
    """Map an SOP estimate onto the configured metric column and its stderr."""
    if cfg.metric == "sop":
        return est.value, est.stderr
    rate = scenario_rate(params, scenario)
    thr = (1.0 - est.value) * rate
    return thr, (None if est.stderr is None else rate * est.stderr)


class Cell(NamedTuple):
    """One (value, scenario, sic, mode, engine) cell of a run; value None is the base
    point.  point is the realized SystemParams or the BudgetInfeasibleError realizing it
    raised; estimate is the SopEstimate, None where the point is infeasible or the
    engine has no value (an asymptote the closed forms lack)."""

    value: float | None
    scenario: str
    sic: str
    mode: str
    engine: str
    point: SystemParams | BudgetInfeasibleError
    estimate: SopEstimate | None


def _row(cfg: ScenarioConfig, sweep_var: str, cell: Cell) -> dict:
    """A cell as a CSV, JSON or table row: its estimate as the configured metric,
    flagged 'infeasible' or 'unsupported' where it has none."""
    est = cell.estimate
    row = {"sweep_var": sweep_var, "value": cell.value, "scenario": cell.scenario, "sic": cell.sic,
           "mode": cell.mode, "engine": cell.engine, "metric": cfg.metric,
           "estimate": None, "stderr": None, "trials": None, "seed": None,
           "flags": "infeasible" if isinstance(cell.point, BudgetInfeasibleError) else "unsupported"}
    if est is not None:
        value, err = _metric_fields(cfg, cell.point, cell.scenario, est)
        row.update(estimate=value, stderr=err, trials=est.trials, flags="|".join(est.flags),
                   seed=None if est.trials is None else cfg.sweep.seed)
    return row


def run_sweep(cfg: ScenarioConfig, workers: int = 1) -> list[dict]:
    """The configured sweep's rows, one per cell of _run_cells and in its order.
    `workers` is accepted for compatibility and ignored: every run is serial."""
    return [_row(cfg, cfg.sweep.variable, cell) for cell in _run_cells(cfg, _realize(cfg, cfg.sweep.values))]


def _realize(cfg: ScenarioConfig, values) -> list[tuple]:
    """One row (value, scenario, sic, mode, point, batch) per value and scenario row of
    the config, value-major; value None is the base point.  Each (value, mode) point is
    realized once; batch is the CascadeBatch of its law (model.LAW_FIELDS, all but M and
    P), None where the point is infeasible or no engine is closed-form (its table unread)."""
    closed_form, rows, batches = set(cfg.sweep.engines) != {"montecarlo"}, [], {}
    for value in values:
        points = {}  # mode -> (point, batch)
        for scenario, sic, mode in cfg.sweep.scenarios:
            if mode not in points:
                try:
                    point = realize_point(cfg, value, mode)
                except BudgetInfeasibleError as exc:
                    # kept without its traceback, whose frame (this one) would hold it in a cycle
                    points[mode] = exc.with_traceback(None), None
                else:
                    law = tuple(getattr(point, name) for name in model.LAW_FIELDS)
                    if closed_form and law not in batches:
                        batches[law] = CascadeBatch(point)
                    points[mode] = point, batches.get(law)
            rows.append((None if value is None else float(value), scenario, sic, mode, *points[mode]))
    return rows


def _run_cells(cfg: ScenarioConfig, rows: list[tuple]) -> list[Cell]:
    """One Cell per row of _realize and engine of the config, in row and engine order.
    All Monte Carlo cells go to one estimate_sop_grid call, which groups them by draw
    law, so estimates match estimate_sop calls bit for bit.  Every closed-form cell is
    planned into its row's batch before any is read: one kdist_cdf call per law serves
    them and whatever a caller planned into the batch since _realize."""
    sweep = cfg.sweep
    feasible = [row for row in rows if not isinstance(row[4], BudgetInfeasibleError)]
    cases = [(point, scenario, sic) for _, scenario, sic, _, point, _ in feasible]
    # no grid call without Monte Carlo cells: the traced benchmark counts grid calls
    mc = iter(estimate_sop_grid(cases, sweep.trials, sweep.seed)
              if cases and "montecarlo" in sweep.engines else ())
    closed = dict.fromkeys((batch, scenario, sic, engine) for _, scenario, sic, _, _, batch in feasible
                           for engine in sweep.engines if engine != "montecarlo")
    for batch, scenario, sic, engine in closed:
        batch.plan(scenario, sic, engine)
    for batch, scenario, sic, engine in closed:
        with contextlib.suppress(UnsupportedScenarioError):
            closed[batch, scenario, sic, engine] = (sop_asymptotic if engine == "asymptotic" else sop)(
                batch.dc.params, scenario, sic, batch=batch)
    return [Cell(value, scenario, sic, mode, engine, point,
                 None if isinstance(point, BudgetInfeasibleError) else
                 next(mc) if engine == "montecarlo" else closed[batch, scenario, sic, engine])
            for value, scenario, sic, mode, point, batch in rows for engine in sweep.engines]


def _print_table(rows: list[dict]):
    header = CSV_COLUMNS[1:]  # every column but sweep_var
    width = max(12, *map(len, header))
    for cells in [header] + [[f"{v:.6e}" if isinstance(v, float) else "" if v is None else str(v)
                              for v in map(row.get, header)] for row in rows]:
        sys.stdout.write("  ".join(text.ljust(width) for text in cells).rstrip() + "\n")


def _cmd_table(args, engines=()) -> int:
    """sweep tables the configured sweep; analytic and simulate pass their default
    engines and table the base point as-is, bypassing the sweep variable.  Without
    --out or --json, sweep writes CSV to stdout and the point commands a table."""
    cfg = _load(args, engines)
    point = "base" if engines else "sweep"
    rows = ([_row(cfg, "", cell) for cell in _run_cells(cfg, _realize(cfg, (None,)))] if engines
            else run_sweep(cfg))
    if args.json:
        _write_json("--json", args.json, {"meta": _meta(cfg, point), "rows": rows})
    if args.out or not (engines or args.json):
        _write_text("--out", args.out, _rows_to_csv(cfg, rows, point))
    elif not args.json:
        _print_table(rows)
    return EXIT_INFEASIBLE if rows and all(r["flags"] == "infeasible" for r in rows) else EXIT_OK


def _forms(side: int) -> dict:
    """law keyed by (SINR family, the SIC mode it reads) for the legitimate (side 0)
    or wiretap (side 1) family of every scenario event."""
    keys = {(event[side], model.SINR_FAMILIES[event[side]].sic_for(sic))
            for events in model.SCENARIOS.values() for event in events for sic in model.SIC_MODES}
    return dict.fromkeys(sorted(keys), law)


# the legitimate and wiretap CDFs; validate reads neither (its check points share
# their point's kernel call), and the names stay only because perfbench/spans.py wraps them
_CDF_FORMS = _forms(0)
_PDF_FORMS = _forms(1)


def sop_tolerance(analytic: float, mc: float, stderr: float, mode: str, sic: str,
                  rate: float) -> float:
    """Largest closed-form vs Monte Carlo SOP gap accepted at one cell: 0 at zero
    rate with a zero closed form, else max(3 sigma, rel * max(analytic, mc)), rel
    2 percent for passive pSIC (no amplifier noise or residual interference, so
    only the wiretap's mean-field SINR separates the engines), else 15 percent."""
    if rate == 0.0 and analytic == 0.0:
        return 0.0
    rel = 0.02 if (mode, sic) == ("pris", "psic") else 0.15
    return max(3.0 * stderr, rel * max(analytic, mc))


def validate_point(cfg: ScenarioConfig, trials: int, seed: int) -> list[dict]:
    """Closed-form vs Monte Carlo agreement checks at the base operating point.

    Per scenario row: the SOP itself, the legitimate SINR's CDF at its nine
    closed-form deciles (analytic.law_points), and the wiretap SINR's mass
    F(hi) - F(lo) between its closed-form quartiles, once per (mode, family, SIC
    read).  SOP tolerances are sop_tolerance's; CDFs get 3 sigma + 0.005 absolute,
    masses 3 sigma + 2.5 percent of the mass, sigma the binomial error.  Checks of
    a zero-mean-gain receiver are skipped, and so are rows of several events, which
    are not scored (a config of only such rows realizes no point and draws nothing);
    their detail names their events' per-user rows and whether each is configured.
    Each check's closed-form CDF is a probe planned into its point's CascadeBatch
    before _run_cells reads the SOP cells (joined to their checks by key), so one
    kdist_cdf call per realized point serves both.  One estimate_sop_grid call scores
    the SOP cells and every CDF probe, so each (draw law, seed, block) is drawn once.
    """
    singles = tuple(row for row in cfg.sweep.scenarios if len(model.SCENARIOS[row[0]]) == 1)
    users = {events[0]: name for name, events in model.SCENARIOS.items() if len(events) == 1}
    # an empty scenario list is no config: one of only composed rows realizes nothing
    closed_cfg = dataclasses.replace(cfg, sweep=dataclasses.replace(
        cfg.sweep, scenarios=singles, engines=("analytic",))) if singles else cfg
    rows = _realize(closed_cfg, (None,)) if singles else []
    # jobs: (check index, the point or the probe points, the probe's batch and slot or None)
    checks, cases, jobs, realized, probed = [], [], [], iter(rows), set()
    for scenario, sic, mode in cfg.sweep.scenarios:
        base = {"check": "sop", "scenario": scenario, "sic": sic, "mode": mode}
        events = model.SCENARIOS[scenario]
        if len(events) > 1:
            # the per-user rows of its events, at its SIC and surface modes, would cover it
            detail = "composed quantity; per-user rows " + ", ".join(
                f"{name} ({'' if (name, sic, mode) in singles else 'not '}configured)"
                for name in (users.get(event, "/".join(event[:2])) for event in events))
            checks.append({**base, "status": "skip", "detail": detail})
            continue
        *_, point, batch = next(realized)
        if isinstance(point, BudgetInfeasibleError):
            checks.append({**base, "status": "skip", "detail": f"infeasible: {point}"})
            continue
        jobs.append((len(checks), point, None, None))
        cases.append((point, scenario, sic))
        checks.append(base)
        # one check per mode and (family, SIC read), of the kind of the first row to read it;
        # psic for families the SIC mode does not enter
        for kind, family in zip(("cdf", "pdf"), events[0]):
            key = (family, model.SINR_FAMILIES[family].sic_for(sic))
            if (mode, *key) in probed:
                continue
            probed.add((mode, *key))
            check = {"check": kind, "scenario": family, "sic": key[1], "mode": mode}
            points = law_points(point, *key, _PROBS[kind])
            # an unreachable receiver or a zero power share (zero mean gain) puts every point at 0
            if not (np.isfinite(points).all() and 0.0 < points[0] < points[-1]):
                why = "degenerate SINR (zero mean gain)" if kind == "cdf" else "zero mean gain at the wiretap"
                checks.append({**check, "status": "skip", "detail": why})
                continue
            jobs.append((len(checks), points, batch, batch.probe(*key, points)))
            cases.append((point, *key, points))
            checks.append(check)

    cells = {(c.scenario, c.sic, c.mode): c.estimate for c in _run_cells(closed_cfg, rows)}
    for (i, at, batch, slot), result in zip(jobs, estimate_sop_grid(cases, trials, seed)):
        check = checks[i]
        if slot is not None:
            checks[i] = _distribution_check(check, at, batch.cdf(slot), result, trials)
            continue
        a, m = cells[check["scenario"], check["sic"], check["mode"]].value, result.value
        tol = sop_tolerance(a, m, result.stderr, check["mode"], check["sic"],
                            scenario_rate(at, check["scenario"]))
        checks[i] = _verdict(check, abs(a - m), tol, f"analytic={a:.6g} mc={m:.6g} tol={tol:.3g}",
                             analytic=a, montecarlo=m)
    return checks


# the probabilities at whose closed-form quantiles each kind of distribution check scores
_PROBS = {"cdf": np.linspace(0.1, 0.9, 9), "pdf": np.array([0.25, 0.75])}


def _verdict(check: dict, gap: float, tol: float, detail: str, **values) -> dict:
    """A scored check: pass when the gap at its reported point is within tolerance."""
    return {**check, "status": "pass" if gap <= tol else "fail", **values,
            "gap": gap, "tolerance": tol, "detail": detail}


def _distribution_check(check: dict, points, closed, emp, trials: int) -> dict:
    """A CDF check at its worst decile (largest gap less tolerance), or a wiretap check
    of the closed-form mass F(hi) - F(lo) between its quartiles against the empirical
    mass; closed holds the closed-form CDF at the points."""
    if check["check"] == "cdf":
        tols = 3.0 * np.sqrt(np.maximum(closed * (1.0 - closed), 1e-12) / trials) + 0.005
        gaps = np.abs(emp - closed)
        worst = int(np.argmax(gaps - tols))
        gap, tol = float(gaps[worst]), float(tols[worst])
        return _verdict(check, gap, tol, f"max|F_mc-F|={float(np.max(gaps)):.4g} "
                                         f"at x={float(points[worst]):.4g} tol={tol:.3g}")
    (lo, hi), (f_lo, f_hi) = points, closed
    mass, emp_mass = float(f_hi - f_lo), float(emp[1] - emp[0])
    tol = 3.0 * math.sqrt(max(emp_mass * (1.0 - emp_mass), 1e-12) / trials) + 0.025 * max(emp_mass, mass)
    return _verdict(check, abs(mass - emp_mass), tol,
                    f"mass={mass:.6g} mc={emp_mass:.6g} on [{lo:.3g},{hi:.3g}] tol={tol:.3g}")


def _cmd_validate(args) -> int:
    cfg = _load(args)
    checks = validate_point(cfg, cfg.sweep.trials, cfg.sweep.seed)
    failures = sum(c["status"] == "fail" for c in checks)
    for c in checks:
        sys.stdout.write(
            f"{c['status'].upper():4s} {c['check']:3s} {c['scenario']:15s} {c['sic']:5s} "
            f"{c['mode']:4s} {c.get('detail', '')}\n"
        )
    sys.stdout.write(f"{len(checks)} checks, {failures} failures\n")
    if args.json:
        _write_json("--json", args.json, {"checks": checks})
    # only skips (infeasible points, composed rows): nothing was checked
    if all(c["status"] == "skip" for c in checks):
        return EXIT_INFEASIBLE
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
    _write_json("--out", args.out, doc)
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
    sub.set_defaults(func=lambda args: _cmd_table(args, ("analytic",)))

    sub = subs.add_parser("simulate", help="Monte Carlo at the base operating point")
    _add_common(sub)
    sub.set_defaults(func=lambda args: _cmd_table(args, ("montecarlo",)))

    sub = subs.add_parser("sweep", help="curve table over the configured sweep")
    _add_common(sub)
    sub.set_defaults(func=_cmd_table)

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
    except (_CliArgumentError, ConfigError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
