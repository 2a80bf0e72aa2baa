"""Scenario configuration: JSON files, shipped presets, sweep resolution.

A config file is a single JSON object with four blocks::

    {
      "name":  "fig2",
      "notes": "free-form documentation of every assumed value",
      "params": { ... SystemParams fields, minus p_bs ... },
      "budget": { "p_tot_dbm": 10, "ris_fraction": 0.2, "p_ps": 0, "p_dc": 0 },
      "metric": "sop" | "throughput",
      "sweep": {
        "variable":  "p_tot_dbm",
        "values":    [0, 8, 16, 24, 32],
        "scenarios": [["external_n", "ipsic", "aris"], ...],
        "engines":   ["analytic", "montecarlo", "asymptotic"],
        "trials":    200000,
        "seed":      20260813
      }
    }

The schema of the two numeric blocks is data: ``_PARAM_FIELDS`` and
``_BUDGET_FIELDS`` map each field to its decibel suffix, ``""`` for a
linear-only field, ``"_db"`` for a dB ratio and ``"_dbm"`` for a dBm power.
A field is given once: under its plain name, taken as already linear, or
under its suffixed name, converted to linear watts/ratios here, exactly
once; the rest of the package never sees decibels.  One block parser,
``_block``, applies that table and rejects unknown keys.  The budget's own
rules (positive total, nonnegative terms, surface mode) are PowerBudget's,
and the per-variable sweep rules are ``_with_sweep_value``'s.

Naming note: ``params.alpha_p`` is the path-loss exponent.  The *sweep
variable* ``alpha_p`` is the power-offset factor instead: it sets the NOMA
split a_f = value, a_n = 1 - value.  The two usages never mix - the sweep
never touches the exponent.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from importlib import resources

from .budget import PowerBudget, solve_bs_power
from .model import SCENARIOS, SIC_MODES, SURFACE_MODES, SystemParams

__all__ = [
    "ConfigError",
    "ENGINES",
    "SWEEP_VARIABLES",
    "ScenarioConfig",
    "SweepSpec",
    "db_to_linear",
    "dbm_to_watts",
    "list_presets",
    "load_config",
    "load_preset",
    "parse_config",
    "realize_point",
]

SWEEP_VARIABLES = ("p_tot_dbm", "kappa", "n_elements", "alpha_p", "sigma2_t_dbm", "rate")
ENGINES = ("analytic", "asymptotic", "montecarlo")

# field -> decibel suffix of its second spelling ("" when it has none)
_PARAM_FIELDS = {
    "d_br": "", "d_rn": "", "d_rf": "", "d_re": "", "alpha_p": "", "beta0": "_db",
    "n_elements": "", "n_groups": "", "n_active": "", "kappa": "",
    "sigma2": "_dbm", "sigma2_e": "_dbm", "sigma2_t": "_dbm",
    "a_f": "", "a_n": "", "r_f": "", "r_n": "", "varpi": "",
    "omega_ipu": "_db", "omega_ipe": "_db",
}
_BUDGET_FIELDS = {"p_tot": "_dbm", "p_ris": "_dbm", "p_ps": "_dbm", "p_dc": "_dbm"}


class ConfigError(ValueError):
    """Malformed configuration; carries the offending field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


def db_to_linear(value_db: float) -> float:
    """dB ratio to linear ratio."""
    return 10.0 ** (value_db / 10.0)


def dbm_to_watts(value_dbm: float) -> float:
    """dBm power to watts."""
    return 10.0 ** (value_dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class SweepSpec:
    """One-variable parameter sweep over a list of scenario/engine rows.

    variable:  one of SWEEP_VARIABLES ('rate' sets both target rates,
               'alpha_p' sets the power split a_f = value)
    values:    strictly monotone, nonempty
    scenarios: (scenario, sic, mode) triples; mode 'pris' pins kappa = 1
               and sigma2_t = 0 for that row
    engines:   subset of ENGINES
    hold:      for n_elements sweeps, which side of M = P*Q stays fixed
               ('n_active' or 'n_groups')
    """

    variable: str
    values: tuple[float, ...]
    scenarios: tuple[tuple[str, str, str], ...]
    engines: tuple[str, ...]
    trials: int
    seed: int
    hold: str = "n_active"

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError("sweep.variable", f"must be one of {SWEEP_VARIABLES}")
        if len(self.values) == 0:
            raise ConfigError("sweep.values", "must be nonempty")
        diffs = [b - a for a, b in zip(self.values, self.values[1:])]
        if any(d <= 0 for d in diffs) and any(d >= 0 for d in diffs):
            raise ConfigError("sweep.values", "must be strictly monotone")
        if not self.scenarios:
            raise ConfigError("sweep.scenarios", "must be nonempty")
        for scenario, sic, mode in self.scenarios:
            if scenario not in SCENARIOS:
                raise ConfigError("sweep.scenarios", f"unknown scenario {scenario!r}")
            if sic not in SIC_MODES:
                raise ConfigError("sweep.scenarios", f"unknown sic {sic!r}")
            if mode not in SURFACE_MODES:
                raise ConfigError("sweep.scenarios", f"unknown mode {mode!r}")
        if not self.engines:
            raise ConfigError("sweep.engines", "must be nonempty")
        for engine in self.engines:
            if engine not in ENGINES:
                raise ConfigError("sweep.engines", f"unknown engine {engine!r}")
        if self.trials < 1:
            raise ConfigError("sweep.trials", "must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("sweep.seed", "must be a 64-bit value")
        if self.hold not in ("n_active", "n_groups"):
            raise ConfigError("sweep.hold", "must be 'n_active' or 'n_groups'")


@dataclass(frozen=True)
class ScenarioConfig:
    """A resolved configuration: base operating point plus its sweep."""

    name: str
    notes: str
    params: SystemParams  # p_bs is a placeholder; realize_point sets it
    budget: PowerBudget
    ris_fraction: float | None
    metric: str
    sweep: SweepSpec


_TO_LINEAR = {"": float, "_db": db_to_linear, "_dbm": dbm_to_watts}


def _block(doc: dict, name: str, fields: dict, extra_keys=()) -> dict:
    """One block of the document: its fields in linear units, its extra keys as given.

    Each field may appear under its plain name or with its suffix from
    `fields`, not both, and must be a number other than NaN.
    """
    block = doc.get(name)
    if not isinstance(block, dict):
        raise ConfigError(name, "must be an object")
    known = {*fields, *(f + suffix for f, suffix in fields.items()), *extra_keys}
    for key in block:
        if key not in known:
            raise ConfigError(f"{name}.{key}", "unknown field")
    out = {key: block[key] for key in extra_keys if key in block}
    for field, suffix in fields.items():
        names = [field] + ([field + suffix] if suffix else [])
        given = [n for n in names if n in block]
        if len(given) > 1:
            raise ConfigError(field, f"give only one of {names}")
        if not given:
            continue
        raw = block[given[0]]
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise ConfigError(given[0], "must be a number")
        if math.isnan(raw):
            raise ConfigError(given[0], "must not be NaN")
        out[field] = _TO_LINEAR[given[0][len(field):]](float(raw))
    return out


def _finite(field: str, raw) -> float:
    if not isinstance(raw, (int, float)) or isinstance(raw, bool) or not math.isfinite(raw):
        raise ConfigError(field, "finite numbers only")
    return float(raw)


def parse_config(doc: dict, *, name: str = "<inline>") -> ScenarioConfig:
    """Validate and resolve a parsed JSON document into a ScenarioConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "document must be a JSON object")

    values = _block(doc, "params", _PARAM_FIELDS)
    for f in ("n_elements", "n_active", "n_groups"):
        if f in values:
            if not values[f].is_integer():
                raise ConfigError(f"params.{f}", "must be an integer")
            values[f] = int(values[f])
    # accept any two of M = P*Q and derive the third
    m, p, q = (values.get(k) for k in ("n_elements", "n_groups", "n_active"))
    if m is None and p is not None and q is not None:
        values["n_elements"] = p * q
    elif p is None and m is not None and q is not None:
        if q == 0 or m % q:
            raise ConfigError("params.n_elements", f"{m} is not divisible by n_active={q}")
        values["n_groups"] = m // q
    elif q is None and m is not None and p is not None:
        if p == 0 or m % p:
            raise ConfigError("params.n_elements", f"{m} is not divisible by n_groups={p}")
        values["n_active"] = m // p

    if "a_f" in values and "a_n" not in values:
        values["a_n"] = 1.0 - values["a_f"]
    elif "a_n" in values and "a_f" not in values:
        values["a_f"] = 1.0 - values["a_n"]

    required = {f.name for f in dataclasses.fields(SystemParams)} - {"p_bs"}
    missing = sorted(required - set(values))
    if missing:
        raise ConfigError(f"params.{missing[0]}", "required field missing")

    b = _block(doc, "budget", _BUDGET_FIELDS, ("mode", "ris_fraction"))
    if "p_tot" not in b:
        raise ConfigError("budget.p_tot", "required field missing")
    p_ris, ris_fraction = b.get("p_ris"), b.get("ris_fraction")
    if p_ris is not None and ris_fraction is not None:
        raise ConfigError("budget.ris_fraction", "give either p_ris or ris_fraction")
    if p_ris is None and ris_fraction is None:
        ris_fraction = 0.2  # default split of the total budget to the amplifiers
    if ris_fraction is not None:
        if not isinstance(ris_fraction, (int, float)) or not 0.0 <= ris_fraction < 1.0:
            raise ConfigError("budget.ris_fraction", "must lie in [0, 1)")
        ris_fraction = float(ris_fraction)
        p_ris = ris_fraction * b["p_tot"]
    try:
        budget = PowerBudget(p_tot=b["p_tot"], p_ris=p_ris, p_ps=b.get("p_ps") or 0.0,
                             p_dc=b.get("p_dc") or 0.0, mode=b.get("mode", "aris"))
    except ValueError as exc:
        raise ConfigError("budget", str(exc)) from exc

    metric = doc.get("metric", "sop")
    if metric not in ("sop", "throughput"):
        raise ConfigError("metric", "must be 'sop' or 'throughput'")

    s = _block(doc, "sweep", {}, [f.name for f in dataclasses.fields(SweepSpec)])
    if "values" not in s:
        raise ConfigError("sweep.values", "required field missing")
    if not isinstance(s["values"], list):
        raise ConfigError("sweep.values", "must be a list")
    sweep_values = tuple(_finite("sweep.values", v) for v in s["values"])

    scenarios = s.get("scenarios")
    if not isinstance(scenarios, list):
        raise ConfigError("sweep.scenarios", "must be a list of [scenario, sic, mode]")
    parsed_rows = []
    for row in scenarios:
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise ConfigError("sweep.scenarios", "each row must be [scenario, sic, mode]")
        parsed_rows.append((str(row[0]), str(row[1]), str(row[2])))
    engines = s.get("engines", ["analytic"])
    if not isinstance(engines, list):
        raise ConfigError("sweep.engines", "must be a list")
    trials = s.get("trials", 100000)
    seed = s.get("seed", 0)
    if not isinstance(trials, int) or isinstance(trials, bool):
        raise ConfigError("sweep.trials", "must be an integer")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("sweep.seed", "must be an integer")
    sweep = SweepSpec(
        variable=str(s.get("variable", "")),
        values=sweep_values,
        scenarios=tuple(parsed_rows),
        engines=tuple(str(e) for e in engines),
        trials=trials,
        seed=seed,
        hold=str(s.get("hold", "n_active")),
    )

    try:
        params = SystemParams(p_bs=1.0, **values)
    except ValueError as exc:
        raise ConfigError("params", str(exc)) from exc

    cfg = ScenarioConfig(
        name=str(doc.get("name", name)),
        notes=str(doc.get("notes", "")),
        params=params,
        budget=budget,
        ris_fraction=ris_fraction,
        metric=metric,
        sweep=sweep,
    )
    # reject a value the sweep rules or the parameter domain refuse (kappa < 1,
    # a negative rate, no elements) here, not mid-run
    for v in sweep.values:
        _with_sweep_value(cfg, v)
    return cfg


def load_config(path) -> ScenarioConfig:
    """Parse a JSON config file; raises ConfigError with field diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("<json>", f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    return parse_config(doc, name=str(path))


def list_presets() -> list[str]:
    """Names of the shipped figure-parameterization presets."""
    out = []
    for entry in resources.files(__package__).joinpath("presets").iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[: -len(".json")])
    return sorted(out)


def load_preset(name: str) -> ScenarioConfig:
    """Load a shipped preset by name (see list_presets)."""
    ref = resources.files(__package__).joinpath("presets").joinpath(name + ".json")
    if not ref.is_file():
        raise ConfigError("preset", f"unknown preset {name!r}; available: {list_presets()}")
    doc = json.loads(ref.read_text(encoding="utf-8"))
    return parse_config(doc, name=name)


def _with_sweep_value(cfg: ScenarioConfig, value: float) -> tuple[SystemParams, PowerBudget]:
    """Apply one sweep value; returns (params without p_bs fixed, budget).

    The sweep rules live here: an n_elements value must be an integer that
    keeps M = P*Q divisible by the held side, and an alpha_p value must lie
    in (0.5, 1).  A value breaking them or leaving the parameter domain
    raises ConfigError('sweep.values').
    """
    params, budget = cfg.params, cfg.budget
    var, hold = cfg.sweep.variable, cfg.sweep.hold
    changes, budget_changes = {}, {}
    if var == "p_tot_dbm":
        p_tot = dbm_to_watts(value)
        p_ris = cfg.ris_fraction * p_tot if cfg.ris_fraction is not None else budget.p_ris
        budget_changes = {"p_tot": p_tot, "p_ris": p_ris}
    elif var == "kappa":
        changes = {"kappa": float(value)}
    elif var == "n_elements":
        m, held = int(value), getattr(params, hold)
        if value != m or m % held:
            raise ConfigError(
                "sweep.values", f"{value} does not keep n_elements divisible by {hold}={held}"
            )
        other = {"n_active": "n_groups", "n_groups": "n_active"}[hold]
        changes = {"n_elements": m, other: m // held}
    elif var == "alpha_p":
        if not 0.5 < value < 1.0:
            raise ConfigError(
                "sweep.values",
                "power offset must lie in (0.5, 1) so the far user keeps the larger share",
            )
        changes = {"a_f": float(value), "a_n": 1.0 - float(value)}
    elif var == "sigma2_t_dbm":
        changes = {"sigma2_t": dbm_to_watts(value)}
    elif var == "rate":  # SweepSpec admits no other variable
        changes = {"r_f": float(value), "r_n": float(value)}
    try:
        return dataclasses.replace(params, **changes), dataclasses.replace(budget, **budget_changes)
    except ValueError as exc:
        raise ConfigError("sweep.values", f"{value!r}: {exc}") from exc


def realize_point(cfg: ScenarioConfig, value: float | None, mode: str) -> SystemParams:
    """Concrete SystemParams for one sweep value and ARIS/PRIS mode.

    Solves the BS power from the budget (raising BudgetInfeasibleError when
    the hardware terms exceed the total) and pins the passive degenerate
    values kappa = 1, sigma2_t = 0 for PRIS rows.
    """
    if value is None:
        params, budget = cfg.params, cfg.budget
    else:
        params, budget = _with_sweep_value(cfg, value)
    if mode not in SURFACE_MODES:
        raise ConfigError("mode", f"must be one of {SURFACE_MODES}")
    budget = dataclasses.replace(budget, mode=mode, p_ris=budget.p_ris if mode == "aris" else 0.0)
    if mode == "pris":
        params = dataclasses.replace(params, kappa=1.0, sigma2_t=0.0)
    p_bs = solve_bs_power(budget, n_elements=params.n_elements, n_active=params.n_active)
    return dataclasses.replace(params, p_bs=p_bs)
