"""Closed-form secrecy outage versus an independent Monte Carlo estimate.

Builds one active-surface NOMA downlink by hand, then evaluates the secrecy
outage probability twice for each scenario: once through the analytic engine
(Bessel/quadrature closed forms) and once by drawing channels from scratch.
The two engines share no code beyond the system description, so agreement
is a real check, not a tautology.

The closed forms are moment-matched: the cascaded surface channel is treated
as K-distributed and the amplified thermal term enters through its mean.
Expect sub-percent agreement at low-to-mid budgets, loosening to a few
percent as the budget grows and the amplifier noise starts to dominate; the
`validate` CLI subcommand encodes the accepted bands.

Run:  python3 demos/closed_form_vs_simulation.py     (a few seconds)
"""

import numpy as np

from ris_secrecy import SystemParams, db_to_linear, dbm_to_watts, estimate_sop_grid, sop

TRIALS = 200_000
SEED = 20260813


def system(p_bs_dbm: float) -> SystemParams:
    # urban micro-cell geometry, surface of 40 elements with one group of
    # 20 switched on, amplification factor 10
    return SystemParams(
        d_br=20.0, d_rn=10.0, d_rf=20.0, d_re=20.0,
        alpha_p=2.0, beta0=db_to_linear(-30.0),
        n_elements=40, n_groups=2, n_active=20, kappa=10.0,
        sigma2=dbm_to_watts(-55.0), sigma2_e=dbm_to_watts(-55.0),
        sigma2_t=dbm_to_watts(-40.0),
        a_f=0.7, a_n=0.3, r_f=0.05, r_n=0.05,
        varpi=1.0, omega_ipu=db_to_linear(-80.0), omega_ipe=db_to_linear(-80.0),
        p_bs=dbm_to_watts(p_bs_dbm),
    )


combos = [
    ("external_n", "ipsic", "near user, external tap, imperfect SIC"),
    ("external_n", "psic", "near user, external tap, perfect SIC"),
    ("external_f", "psic", "far user, external tap"),
]
powers_dbm = [-5.0, 5.0, 10.0, 15.0]

cells = [(system(p), sc, sic) for p in powers_dbm for sc, sic, _ in combos]
print(f"Monte Carlo: {TRIALS:,} trials per cell, seed {SEED}, one shared channel stream")
results = estimate_sop_grid(cells, TRIALS, SEED)

print()
print(f"{'scenario':<42} {'P_bs':>7} {'closed form':>12} {'simulated':>12} "
      f"{'stderr':>9} {'rel gap':>8}")
print("-" * 96)
for (params, sc, sic), mc in zip(cells, results):
    closed = sop(params, sc, sic).value
    top = max(closed, mc.value)
    rel = abs(closed - mc.value) / top if top > 0 else 0.0
    label = next(d for s, c, d in combos if (s, c) == (sc, sic))
    p_dbm = 10.0 * np.log10(params.p_bs * 1e3)
    print(f"{label:<42} {p_dbm:>3.0f} dBm {closed:>12.6f} {mc.value:>12.6f} "
          f"{mc.stderr:>9.2e} {rel:>8.2%}")
print("-" * 96)
print("low budgets saturate both engines at exactly 1, mid budgets agree to Monte")
print("Carlo noise, and the drift at 15 dBm is the moment matching at work; run")
print("`ris-secrecy validate` to score a whole grid against the accepted bands")
