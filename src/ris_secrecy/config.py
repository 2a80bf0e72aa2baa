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
rules (positive finite total, nonnegative terms, surface mode) are
PowerBudget's, the sweep block's rules and defaults are SweepSpec's, and the
per-value sweep rules are ``_with_sweep_value``'s.

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
_BUDGET_FIELDS = {"p_tot": "_dbm", "p_ris": "_dbm", "p_ps": "_dbm", "p_dc": "_dbm",
                  "ris_fraction": ""}


class ConfigError(ValueError):
    """Malformed configuration; carries the offending field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


def db_to_linear(value_db: float) -> float:
    """dB ratio to linear ratio; +inf where the ratio overflows a float."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        return math.inf


def dbm_to_watts(value_dbm: float) -> float:
    """dBm power to watts."""
    return db_to_linear(value_dbm) / 1000.0


def _is_number(raw) -> bool:
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


@dataclass(frozen=True)
class SweepSpec:
    """One-variable parameter sweep over a list of scenario/engine rows.

    variable:  one of SWEEP_VARIABLES ('rate' sets both target rates,
               'alpha_p' sets the power split a_f = value)
    values:    finite numbers, strictly monotone, nonempty
    scenarios: nonempty [scenario, sic, mode] rows; mode 'pris' pins kappa = 1
               and sigma2_t = 0 for that row
    engines:   nonempty list of ENGINES; a repeated engine runs once, where
               it first appears
    trials, seed: Monte Carlo trials per cell (>= 1) and 64-bit seed, integers
    hold:      for n_elements sweeps, which side of M = P*Q stays fixed
               ('n_active' or 'n_groups')

    A config file's sweep block, a command-line override and a spec built
    in Python pass the same checks; lists are stored as tuples.
    """

    variable: str
    values: tuple[float, ...]
    scenarios: tuple[tuple[str, str, str], ...]
    engines: tuple[str, ...] = ("analytic",)
    trials: int = 100000
    seed: int = 0
    hold: str = "n_active"

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError("sweep.variable", f"must be one of {SWEEP_VARIABLES}")
        values = self.values
        if not isinstance(values, (list, tuple)) or not values or not all(
                _is_number(v) and math.isfinite(v) for v in values):
            raise ConfigError("sweep.values", "must be a nonempty list of finite numbers")
        values = tuple(float(v) for v in values)
        diffs = [b - a for a, b in zip(values, values[1:])]
        if any(d <= 0 for d in diffs) and any(d >= 0 for d in diffs):
            raise ConfigError("sweep.values", "must be strictly monotone")
        rows = self.scenarios
        if not isinstance(rows, (list, tuple)) or not rows or not all(
                isinstance(row, (list, tuple)) and len(row) == 3 for row in rows):
            raise ConfigError("sweep.scenarios", "must be a nonempty list of [scenario, sic, mode]")
        rows = tuple(tuple(str(x) for x in row) for row in rows)
        for row in rows:
            for what, x, known in zip(("scenario", "sic", "mode"), row,
                                      (SCENARIOS, SIC_MODES, SURFACE_MODES)):
                if x not in known:
                    raise ConfigError("sweep.scenarios", f"unknown {what} {x!r}")
        engines = self.engines
        if not isinstance(engines, (list, tuple)) or not engines:
            raise ConfigError("sweep.engines", "must be a nonempty list")
        engines = tuple(dict.fromkeys(str(e) for e in engines))
        for engine in engines:
            if engine not in ENGINES:
                raise ConfigError("sweep.engines", f"unknown engine {engine!r}")
        for name in ("trials", "seed"):
            if not isinstance(getattr(self, name), int) or isinstance(getattr(self, name), bool):
                raise ConfigError(f"sweep.{name}", "must be an integer")
        if self.trials < 1:
            raise ConfigError("sweep.trials", "must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("sweep.seed", "must be a 64-bit value")
        if self.hold not in ("n_active", "n_groups"):
            raise ConfigError("sweep.hold", "must be 'n_active' or 'n_groups'")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "scenarios", rows)
        object.__setattr__(self, "engines", engines)


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
        if not _is_number(raw):
            raise ConfigError(given[0], "must be a number")
        if math.isnan(raw):
            raise ConfigError(given[0], "must not be NaN")
        out[field] = _TO_LINEAR[given[0][len(field):]](float(raw))
    return out


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
    elif m is not None and (p is None) != (q is None):
        hold = "n_active" if p is None else "n_groups"
        values.update(_elements_split("params.n_elements", m, hold, values[hold]))

    if "a_f" in values and "a_n" not in values:
        values["a_n"] = 1.0 - values["a_f"]
    elif "a_n" in values and "a_f" not in values:
        values["a_f"] = 1.0 - values["a_n"]

    required = {f.name for f in dataclasses.fields(SystemParams)} - {"p_bs"}
    missing = sorted(required - set(values))
    if missing:
        raise ConfigError(f"params.{missing[0]}", "required field missing")

    b = _block(doc, "budget", _BUDGET_FIELDS, ("mode",))
    if "p_tot" not in b:
        raise ConfigError("budget.p_tot", "required field missing")
    p_ris, ris_fraction = b.get("p_ris"), b.get("ris_fraction")
    if p_ris is not None and ris_fraction is not None:
        raise ConfigError("budget.ris_fraction", "give either p_ris or ris_fraction")
    if p_ris is None and ris_fraction is None:
        ris_fraction = 0.2  # default split of the total budget to the amplifiers
    if ris_fraction is not None:
        if not 0.0 <= ris_fraction < 1.0:
            raise ConfigError("budget.ris_fraction", "must lie in [0, 1)")
        p_ris = ris_fraction * b["p_tot"]
    try:
        budget = PowerBudget(p_tot=b["p_tot"], p_ris=p_ris, p_ps=b.get("p_ps") or 0.0,
                             p_dc=b.get("p_dc") or 0.0, mode=b.get("mode", "aris"))
    except ValueError as exc:
        raise ConfigError("budget", str(exc)) from exc

    metric = doc.get("metric", "sop")
    if metric not in ("sop", "throughput"):
        raise ConfigError("metric", "must be 'sop' or 'throughput'")

    sweep_fields = dataclasses.fields(SweepSpec)
    s = _block(doc, "sweep", {}, [f.name for f in sweep_fields])
    missing = [f.name for f in sweep_fields if f.default is dataclasses.MISSING and f.name not in s]
    if missing:
        raise ConfigError(f"sweep.{missing[0]}", "required field missing")
    sweep = SweepSpec(**s)

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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("<file>", f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    return parse_config(doc, name=str(path))


def list_presets() -> list[str]:
    """Names of the shipped figure-parameterization presets."""
    entries = resources.files(__package__).joinpath("presets").iterdir()
    return sorted(e.name[: -len(".json")] for e in entries if e.name.endswith(".json"))


def load_preset(name: str) -> ScenarioConfig:
    """Load a shipped preset by name (see list_presets)."""
    ref = resources.files(__package__).joinpath("presets").joinpath(name + ".json")
    if not ref.is_file():
        raise ConfigError("preset", f"unknown preset {name!r}; available: {list_presets()}")
    doc = json.loads(ref.read_text(encoding="utf-8"))
    return parse_config(doc, name=name)


def _elements_split(field: str, m, hold: str, held: int) -> dict:
    """n_elements = m and the other side of M = P*Q, given that side `hold` is `held`;
    ConfigError(field) unless m is an integer that `held` divides."""
    if not float(m).is_integer() or held == 0 or int(m) % held:
        raise ConfigError(field, f"n_elements={m!r} is not an integer divisible by {hold}={held}")
    return {"n_elements": int(m), "n_groups" if hold == "n_active" else "n_active": int(m) // held}


def _sweep_changes(cfg: ScenarioConfig, value: float) -> tuple[dict, dict]:
    """The SystemParams and PowerBudget field changes of one sweep value.  The sweep
    rules live here: an n_elements value must be an integer that the held side of
    M = P*Q divides (_elements_split), and an alpha_p value must lie in (0.5, 1)."""
    var, hold, x = cfg.sweep.variable, cfg.sweep.hold, float(value)
    if var == "p_tot_dbm":
        p_tot = dbm_to_watts(value)
        return {}, {"p_tot": p_tot, "p_ris": cfg.budget.p_ris if cfg.ris_fraction is None
                    else cfg.ris_fraction * p_tot}
    if var == "n_elements":
        return _elements_split("sweep.values", value, hold, getattr(cfg.params, hold)), {}
    if var == "alpha_p" and not 0.5 < value < 1.0:
        raise ConfigError("sweep.values",
                          "power offset must lie in (0.5, 1) so the far user keeps the larger share")
    # SweepSpec admits no other variable
    return {"kappa": {"kappa": x}, "alpha_p": {"a_f": x, "a_n": 1.0 - x}, "rate": {"r_f": x, "r_n": x},
            "sigma2_t_dbm": {"sigma2_t": dbm_to_watts(value)}}[var], {}


def _with_sweep_value(cfg: ScenarioConfig, value: float) -> tuple[SystemParams, PowerBudget]:
    """Apply one sweep value; returns (params without p_bs fixed, budget).  A value
    breaking the sweep rules (_sweep_changes) or leaving the parameter domain
    raises ConfigError('sweep.values')."""
    changes, budget_changes = _sweep_changes(cfg, value)
    try:
        return dataclasses.replace(cfg.params, **changes), dataclasses.replace(cfg.budget, **budget_changes)
    except ValueError as exc:
        raise ConfigError("sweep.values", f"{value!r}: {exc}") from exc


def realize_point(cfg: ScenarioConfig, value: float | None, mode: str) -> SystemParams:
    """Concrete SystemParams for one sweep value and ARIS/PRIS mode.

    Solves the BS power from the budget (raising BudgetInfeasibleError when
    the hardware terms exceed the total) and pins the passive degenerate
    values kappa = 1, sigma2_t = 0 for PRIS rows.  The point is built once; on a
    failure a value _with_sweep_value refuses raises its ConfigError('sweep.values')
    first, and a base-station power out of the domain ConfigError('budget.p_tot').
    """
    changes, budget_changes = ({}, {}) if value is None else _sweep_changes(cfg, value)
    p_bs = None
    try:
        if mode not in SURFACE_MODES:
            raise ConfigError("mode", f"must be one of {SURFACE_MODES}")
        if mode == "pris":
            changes.update(kappa=1.0, sigma2_t=0.0)
        p_bs = solve_bs_power(dataclasses.replace(cfg.budget, **budget_changes, mode=mode),
                              n_elements=changes.get("n_elements", cfg.params.n_elements),
                              n_active=changes.get("n_active", cfg.params.n_active))
        return dataclasses.replace(cfg.params, **changes, p_bs=p_bs)
    except ValueError as exc:
        if value is not None:
            _with_sweep_value(cfg, value)
        if p_bs is None:
            raise
        raise ConfigError("budget.p_tot", f"base-station power {p_bs:.6g} W: {exc}") from exc
