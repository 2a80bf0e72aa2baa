"""Seeded input generator for the benchmark workloads.

Every document is plain JSON in the scenario-file format that
``ris_secrecy.config.parse_config`` accepts; the program sees nothing else.
The seed picks the physical values (distances, powers, rates, gains, sweep
grids, SIC/mode choices, Monte Carlo seeds).  The quantities that set the
cost of a pass - element counts per slot, trial counts, number of configs,
sweep lengths and rows - are fixed by the workload, or drawn within fixed
strata, so passes on different seeds do the same amount of work.

Only ``random.Random.random`` is used: its stream is stable across Python
versions, which keeps the recorded references valid.
"""

from __future__ import annotations

import random

SWEEP_VARIABLES = ("p_tot_dbm", "kappa", "n_elements", "alpha_p", "sigma2_t_dbm", "rate")
# every (scenario, sic, mode) row a sweep may carry: 4 scenarios x 2 SIC x 2 modes
ALL_ROWS = tuple(
    [s, sic, mode]
    for s in ("external_n", "external_f", "internal", "system_external")
    for sic in ("ipsic", "psic")
    for mode in ("aris", "pris")
)
# trial counts are not multiples of the 2**15-trial Monte Carlo block, so the
# partial-block waste shows in montecarlo.trial_use_ratio
MC_SWEEP_A_Q = 20
MC_SWEEP_A_TRIALS = 80_000  # 3 blocks, 2.44 used
MC_SWEEP_B_Q = 10
MC_SWEEP_B_TRIALS = 50_000  # 2 blocks, 1.53 used
MC_SWEEP_B_ROWS = (
    ["system_external", "ipsic", "aris"],
    ["system_external", "psic", "pris"],
    ["external_n", "ipsic", "pris"],
    ["internal", "psic", "aris"],
)
ANALYTIC_CONFIGS = 18  # three per sweep variable
ANALYTIC_VALUES = 5
INFEASIBLE_P_TOT_DBM = -60.0  # below every generated hardware draw
VALIDATE_Q = (2, 3, 4)  # one config per entry
VALIDATE_TRIALS = 20_000  # below one block: shows the partial-block waste


class _Draw:
    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def uniform(self, lo: float, hi: float, digits: int = 4) -> float:
        return round(lo + (hi - lo) * self._rng.random(), digits)

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + min(int(self._rng.random() * (hi - lo + 1)), hi - lo)

    def choice(self, items):
        return items[self.integer(0, len(items) - 1)]

    def mc_seed(self) -> int:
        return self.integer(1, 2**62)


def _params(d: _Draw, q: int, p: int) -> dict:
    return {
        "d_br": d.uniform(15.0, 25.0),
        "d_rn": d.uniform(8.0, 12.0),
        "d_rf": d.uniform(15.0, 25.0),
        "d_re": d.uniform(25.0, 40.0),
        "alpha_p": d.uniform(2.0, 2.2),
        "beta0_db": -30.0,
        "n_active": q,
        "n_groups": p,
        "kappa": d.uniform(5.0, 15.0),
        "sigma2_dbm": d.uniform(-58.0, -52.0),
        "sigma2_e_dbm": d.uniform(-58.0, -52.0),
        "sigma2_t_dbm": d.uniform(-43.0, -37.0),
        "a_f": d.uniform(0.65, 0.85),
        "r_f": d.uniform(0.02, 0.5),
        "r_n": d.uniform(0.02, 0.5),
        "varpi": d.uniform(0.0, 1.0),
        "omega_ipu_db": d.uniform(-90.0, -70.0),
        "omega_ipe_db": d.uniform(-90.0, -70.0),
    }


def _budget(d: _Draw, p_tot_dbm: float) -> dict:
    # hardware draw stays below -10 dBm (448 phase shifters at -40 dBm at most),
    # far under every p_tot used here apart from INFEASIBLE_P_TOT_DBM
    return {
        "p_tot_dbm": p_tot_dbm,
        "ris_fraction": d.uniform(0.1, 0.3),
        "p_ps_dbm": d.uniform(-50.0, -40.0),
        "p_dc_dbm": d.uniform(-50.0, -40.0),
        "mode": d.choice(("aris", "pris")),
    }


def _grid(d: _Draw, lo: float, hi: float, step_lo: float, step_hi: float, n: int) -> list[float]:
    start, step = d.uniform(lo, hi), d.uniform(step_lo, step_hi)
    return [round(start + i * step, 4) for i in range(n)]


def _sweep_values(d: _Draw, variable: str, q: int, n: int) -> list[float]:
    if variable == "p_tot_dbm":
        return [INFEASIBLE_P_TOT_DBM] + _grid(d, 15.0, 25.0, 5.0, 8.0, n - 1)
    if variable == "kappa":
        return _grid(d, 1.0, 4.0, 2.0, 8.0, n)
    if variable == "n_elements":
        first = d.integer(1, 3)
        return [float(q * (first + i)) for i in range(n)]
    if variable == "alpha_p":
        return _grid(d, 0.55, 0.65, 0.05, 0.06, n)
    if variable == "sigma2_t_dbm":
        return _grid(d, -60.0, -50.0, 3.0, 6.0, n)
    if variable == "rate":
        return _grid(d, 0.0, 0.2, 0.1, 0.4, n)
    raise ValueError(f"unknown sweep variable {variable!r}")


def _doc(name, params, budget, metric, sweep) -> dict:
    return {"name": name, "notes": "generated benchmark input", "params": params,
            "budget": budget, "metric": metric, "sweep": sweep}


def mc_sweep_docs(seed: int) -> list[dict]:
    """Sweep (a): p_tot_dbm over all 16 rows at Q = 20, one draw shape.
    Sweep (b): n_elements holding n_active, so several identical-law shape groups."""
    d = _Draw(seed)
    a = _doc(
        f"mc_sweep_a_{seed}", _params(d, MC_SWEEP_A_Q, 2), _budget(d, 0.0), "sop",
        {"variable": "p_tot_dbm", "values": _grid(d, 20.0, 26.0, 5.0, 7.0, 5),
         "scenarios": [list(r) for r in ALL_ROWS], "engines": ["montecarlo"],
         "trials": MC_SWEEP_A_TRIALS, "seed": d.mc_seed()},
    )
    b = _doc(
        f"mc_sweep_b_{seed}", _params(d, MC_SWEEP_B_Q, 1), _budget(d, d.uniform(30.0, 45.0)), "sop",
        {"variable": "n_elements", "hold": "n_active",
         "values": [float(MC_SWEEP_B_Q * k) for k in (1, 2, 3, 4)],
         "scenarios": [list(r) for r in MC_SWEEP_B_ROWS], "engines": ["montecarlo"],
         "trials": MC_SWEEP_B_TRIALS, "seed": d.mc_seed()},
    )
    return [a, b]


def analytic_sweep_docs(seed: int) -> list[dict]:
    """Random valid base points, Q stratified over 1..64, each swept over one
    sweep variable in turn across all 16 rows with both closed-form engines."""
    d = _Draw(seed)
    docs = []
    width = 64 / ANALYTIC_CONFIGS
    for i in range(ANALYTIC_CONFIGS):
        q = min(64, 1 + int((i + d.uniform(0.0, 1.0, 6)) * width))
        variable = SWEEP_VARIABLES[i % len(SWEEP_VARIABLES)]
        docs.append(_doc(
            f"analytic_{seed}_{i}", _params(d, q, d.integer(1, 4)),
            _budget(d, d.uniform(25.0, 45.0)), d.choice(("sop", "throughput")),
            {"variable": variable, "hold": "n_active",
             "values": _sweep_values(d, variable, q, ANALYTIC_VALUES),
             "scenarios": [list(r) for r in ALL_ROWS],
             "engines": ["analytic", "asymptotic"], "trials": 1, "seed": 0},
        ))
    return docs


def validate_docs(seed: int) -> list[dict]:
    """Base points for the engine cross-check; four rows each, one of them the
    system row that the validator skips.  The internal row takes the other SIC
    mode than external_n, so every config makes the same 10 checks (3 CDF, 3 PDF)."""
    d = _Draw(seed)
    docs = []
    for i, q in enumerate(VALIDATE_Q):
        mode, sic = d.choice(("aris", "pris")), d.choice(("ipsic", "psic"))
        other = {"ipsic": "psic", "psic": "ipsic"}[sic]
        rows = [["external_n", sic, mode], ["external_f", "psic", mode],
                ["internal", other, mode], ["system_external", sic, mode]]
        p_tot_dbm = d.uniform(30.0, 45.0)
        docs.append(_doc(
            f"validate_{seed}_{i}", _params(d, q, d.integer(1, 4)), _budget(d, p_tot_dbm), "sop",
            {"variable": "p_tot_dbm", "values": [p_tot_dbm], "scenarios": rows,
             "engines": ["analytic", "montecarlo"], "trials": VALIDATE_TRIALS,
             "seed": d.mc_seed()},
        ))
    return docs


def tiny_docs(workload: str) -> list[dict]:
    """Smallest inputs that reach each entry point a workload uses (warm-up)."""
    d = _Draw(0)
    if workload == "mc_sweep":
        # two shape groups, so a two-worker pool actually starts
        return [_doc("tiny_mc", _params(d, 1, 1), _budget(d, 10.0), "sop",
                     {"variable": "n_elements", "hold": "n_active", "values": [1.0, 2.0],
                      "scenarios": [["system_external", "ipsic", "aris"]],
                      "engines": ["montecarlo"], "trials": 16, "seed": 1})]
    if workload == "analytic_sweep":
        return [_doc("tiny_analytic", _params(d, 1, 1), _budget(d, 10.0), "sop",
                     {"variable": "p_tot_dbm", "values": [10.0],
                      "scenarios": [list(r) for r in ALL_ROWS],
                      "engines": ["analytic", "asymptotic"], "trials": 1, "seed": 0})]
    if workload == "validate":
        return [_doc("tiny_validate", _params(d, 1, 1), _budget(d, 10.0), "sop",
                     {"variable": "p_tot_dbm", "values": [10.0],
                      "scenarios": [["external_n", "ipsic", "aris"], ["external_f", "psic", "aris"],
                                    ["internal", "psic", "aris"]],
                      "engines": ["analytic", "montecarlo"], "trials": 64, "seed": 1})]
    raise ValueError(f"unknown workload {workload!r}")


GENERATORS = {
    "mc_sweep": mc_sweep_docs,
    "analytic_sweep": analytic_sweep_docs,
    "validate": validate_docs,
}
