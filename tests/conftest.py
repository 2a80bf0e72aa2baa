"""Shared helpers: unit conversions and the canonical operating point.

The baseline below is the deployment every module's documentation assumes:
20 m BS-surface hop, near user at 10 m, far user and eavesdropper at 20 m,
exponent-2 path loss with -30 dB reference gain, 40 elements in 2 groups of
20, amplification 10 with -40 dBm per-element thermal noise, -55 dBm
receiver noise, 0.7/0.3 power split, 0.05 BPCU target rates and -80 dB
residual-interference channels.
"""

from __future__ import annotations

from dataclasses import replace

from ris_secrecy import SystemParams, cli, config


def dbm(value: float) -> float:
    return 10.0 ** (value / 10.0) / 1000.0


def db(value: float) -> float:
    return 10.0 ** (value / 10.0)


BASELINE = dict(
    d_br=20.0,
    d_rn=10.0,
    d_rf=20.0,
    d_re=20.0,
    alpha_p=2.0,
    beta0=db(-30.0),
    n_elements=40,
    n_groups=2,
    n_active=20,
    kappa=10.0,
    sigma2=dbm(-55.0),
    sigma2_e=dbm(-55.0),
    sigma2_t=dbm(-40.0),
    a_f=0.7,
    a_n=0.3,
    r_f=0.05,
    r_n=0.05,
    varpi=1.0,
    omega_ipu=db(-80.0),
    omega_ipe=db(-80.0),
    p_bs=dbm(10.0),
)


def make_params(**overrides) -> SystemParams:
    """Active-surface operating point; override any field by name."""
    return SystemParams(**{**BASELINE, **overrides})


def make_passive(**overrides) -> SystemParams:
    """Passive counterpart: unity gain, no per-element thermal noise."""
    return make_params(kappa=1.0, sigma2_t=0.0, **overrides)


# scenario -> the rate it secures at r_n = 0.05, r_f = 0.07; system_external secures both
THROUGHPUT_RATES = {"external_n": 0.05, "external_f": 0.07, "internal": 0.05,
                    "system_external": 0.05 + 0.07}


def throughput_rows(trials: int, seed: int):
    """Monte Carlo `metric: throughput` sweep rows for every scenario (pSIC,
    active surface) at fig2's 16 dBm point, where each SOP lies inside (0, 1),
    with r_n = 0.05 and r_f = 0.07.  Returns (cfg, rows).
    """
    cfg = config.load_preset("fig2")
    cfg = replace(cfg, metric="throughput", params=replace(cfg.params, r_n=0.05, r_f=0.07),
                  sweep=replace(cfg.sweep, values=(16.0,), engines=("montecarlo",),
                                scenarios=tuple((s, "psic", "aris") for s in THROUGHPUT_RATES),
                                trials=trials, seed=seed))
    return cfg, cli.run_sweep(cfg)
