"""Span recorder for the traced pass, and the per-layer metrics built from it.

The recorder wraps the package's public functions at the module attribute
(or dict entry) the caller looks them up by, so it sees every call into a
layer without any change to the package.  Spans hold (name, start, end,
parent, pass id) plus, for some layers, counts computed from the call's
arguments or result; they stay in memory until the run writes them out.

A span is named after the layer it enters: ``montecarlo.estimate_sop_grid``
is the Monte Carlo layer even though ``cli`` is the caller.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

BLOCK = 1 << 15
# fields of SystemParams that montecarlo._draw_block reads; together with
# shared_hbr they fix the law of a (seed, block) draw
DRAW_LAW_FIELDS = ("n_active", "d_br", "d_rn", "d_rf", "d_re", "alpha_p", "beta0",
                   "omega_ipu", "omega_ipe")
FLAGS = ("clamp-drift", "saturated", "asymptote-regime-invalid")
CELL_SPANS = ("analytic.sop", "analytic.sop_asymptotic", "analytic.sop_system_external")
NAME, START, END, PARENT, PASS, COUNTS, ERROR = range(7)


class Tracer:
    """In-memory span list; one flat list, parents by index (-1 for a root)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = None

    def wrap(self, fn, name: str, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                rec[COUNTS] = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for (container, key, span name, counter) targets.

        A container is a module (attribute key) or a dict (item key); the
        originals are restored on exit even if the body raises.
        """
        saved = []
        try:
            for container, key, name, count in targets:
                original = _get(container, key)
                saved.append((container, key, original))
                _set(container, key, self.wrap(original, name, count))
            yield self
        finally:
            for container, key, original in reversed(saved):
                _set(container, key, original)

    def to_json(self) -> list[dict]:
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "pass": s[PASS], "counts": s[COUNTS], "error": s[ERROR]}
            for s in self.spans
        ]


def _get(container, key):
    return container[key] if isinstance(container, dict) else getattr(container, key)


def _set(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


# ---------------------------------------------------------------------------
# counts computed from call arguments / results


def law_key(params, shared_hbr: bool = False) -> tuple:
    return tuple(getattr(params, f) for f in DRAW_LAW_FIELDS) + (bool(shared_hbr),)


def blocks_for(trials: int) -> int:
    return math.ceil(trials / BLOCK)


def _draw_counts(params, trials, seed, kwargs) -> dict:
    return {"law": law_key(params, kwargs.get("shared_hbr", False)), "seed": int(seed),
            "trials": int(trials), "blocks": blocks_for(trials)}


def count_grid(args, kwargs, result):
    cases, trials, seed = args[:3]
    if not cases:
        return {"law": None, "seed": int(seed), "trials": 0, "blocks": 0}
    return _draw_counts(cases[0][0], trials, seed, kwargs)


def count_stream(args, kwargs, result):
    # sinr_samples(params, which, trials, seed) and
    # empirical_sinr_cdfs(params, requests, trials, seed) share this layout
    params, _, trials, seed = args[:4]
    return _draw_counts(params, trials, seed, kwargs)


def count_result_size(args, kwargs, result):
    return {"elements": int(np.size(result))}


def count_arg_size(args, kwargs, result):
    return {"elements": int(np.size(args[1]))}


def count_flags(args, kwargs, result):
    return {"flags": list(result.flags)}


def targets(cli, model, analytic, specfun) -> list[tuple]:
    """Every call site the traced pass records, keyed by the name callers use."""
    out = [
        (cli, "estimate_sop_grid", "montecarlo.estimate_sop_grid", count_grid),
        (cli, "sinr_samples", "montecarlo.sinr_samples", count_stream),
        (cli, "empirical_sinr_cdfs", "montecarlo.empirical_sinr_cdfs", count_stream),
        (cli, "realize_point", "config.realize_point", None),
        (cli, "sop", "analytic.sop", count_flags),
        (cli, "sop_asymptotic", "analytic.sop_asymptotic", count_flags),
        (cli, "sop_system_external", "analytic.sop_system_external", count_flags),
        (analytic, "derive", "model.derive", None),
        (analytic, "gauss_laguerre", "specfun.gauss_laguerre", None),
        (specfun, "log_bessel_k", "specfun.log_bessel_k", None),
    ]
    for forms in (cli._CDF_FORMS, cli._PDF_FORMS):
        for key, fn in forms.items():
            out.append((forms, key, f"analytic.{fn.__name__}", None))
    for name in ("sinr_user_n", "sinr_user_f", "sinr_eve_n", "sinr_eve_f", "sinr_internal_f_to_n"):
        out.append((model, name, f"model.{name}", count_result_size))
    for name in ("kdist_cdf", "kdist_sf", "kdist_pdf"):
        out.append((analytic, name, f"specfun.{name}", count_arg_size))
    return out


# ---------------------------------------------------------------------------
# self time and per-layer aggregation


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of its interval its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[END] - s[START]) - covered)
    return out


def draw_stats(count_dicts) -> dict:
    """Blocks drawn, trials requested/drawn and the redraw ratio of a pass."""
    blocks = trials = 0
    distinct = set()
    for c in count_dicts:
        blocks += c["blocks"]
        trials += c["trials"]
        distinct.update((c["law"], c["seed"], b) for b in range(c["blocks"]))
    drawn = blocks * BLOCK
    return {
        "blocks_drawn": blocks,
        "trials_requested": trials,
        "trials_drawn": drawn,
        "trial_use_ratio": trials / drawn if drawn else 0.0,
        "redraw_ratio": blocks / len(distinct) if distinct else 0.0,
    }


def draws_by_entry(spans, pass_id) -> list[dict]:
    """draw_stats of the Monte Carlo calls made under each root span of a pass."""
    roots = {i: [] for i, s in enumerate(spans) if s[PASS] == pass_id and s[PARENT] == -1}
    for s in spans:
        if s[NAME].startswith("montecarlo.") and s[PARENT] in roots:
            roots[s[PARENT]].append(s[COUNTS])
    return [draw_stats(counts) for i, counts in roots.items() if spans[i][NAME].startswith("cli.")]


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(spans, pass_id) -> dict:
    """Per-layer totals over the spans of one pass."""
    own = self_times(spans)
    picked = [(s, own[i]) for i, s in enumerate(spans) if s[PASS] == pass_id]

    def self_s(pred) -> float:
        return sum(t for s, t in picked if pred(s[NAME]))

    def of(pred):
        return [s for s, _ in picked if pred(s[NAME])]

    sinr = of(lambda n: n.startswith("model.sinr_"))
    kdist = of(lambda n: n.startswith("specfun.kdist_"))
    cells = of(lambda n: n in CELL_SPANS)
    realize = of(lambda n: n == "config.realize_point")
    draws = draw_stats(s[COUNTS] for s in of(lambda n: n.startswith("montecarlo.")))
    mc_self = self_s(lambda n: n.startswith("montecarlo."))
    sweeps = {i for i, s in enumerate(spans) if s[NAME] == "cli.run_sweep"}
    cell_ms = [(s[END] - s[START]) * 1e3 for s in cells if s[ERROR] is None]
    flags = [f for s in cells if s[COUNTS] for f in s[COUNTS]["flags"]]

    out = {f"montecarlo.{k}": v for k, v in draws.items()}
    out.update({
        "montecarlo.self_s": mc_self,
        "montecarlo.draw_us_per_trial":
            mc_self / draws["trials_drawn"] * 1e6 if draws["trials_drawn"] else 0.0,
        "model.sinr.calls": len(sinr),
        "model.sinr.elements": sum(s[COUNTS]["elements"] for s in sinr if s[COUNTS]),
        "model.sinr.self_s": self_s(lambda n: n.startswith("model.sinr_")),
        "model.derive.self_s": self_s(lambda n: n == "model.derive"),
        "specfun.kdist.calls": len(kdist),
        "specfun.kdist.elements": sum(s[COUNTS]["elements"] for s in kdist if s[COUNTS]),
        "specfun.kdist.self_s": self_s(lambda n: n.startswith("specfun.kdist_")),
        "specfun.log_bessel_k.self_s": self_s(lambda n: n == "specfun.log_bessel_k"),
        "specfun.gauss_laguerre.self_s": self_s(lambda n: n == "specfun.gauss_laguerre"),
        "analytic.cells": len(cells),
        "analytic.self_s": self_s(lambda n: n.startswith("analytic.")),
        "analytic.cell_ms_p50": _percentile(cell_ms, 50),
        "analytic.cell_ms_p99": _percentile(cell_ms, 99),
        "config.parse.self_s": self_s(lambda n: n == "config.parse"),
        "config.realize_point.calls": len(realize),
        "config.realize_point.self_s": self_s(lambda n: n == "config.realize_point"),
        "budget.infeasible_cells":
            sum(1 for s in realize if s[ERROR] == "BudgetInfeasibleError"),
        "cli.run_sweep.self_s": self_s(lambda n: n == "cli.run_sweep"),
        "cli.validate_point.self_s": self_s(lambda n: n == "cli.validate_point"),
        "cli.shape_groups": sum(1 for s, _ in picked
                                if s[NAME] == "montecarlo.estimate_sop_grid" and s[PARENT] in sweeps),
    })
    for flag in FLAGS:
        out[f"analytic.flags.{flag}"] = flags.count(flag)
    return out
