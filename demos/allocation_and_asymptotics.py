"""Power allocation, high-budget slopes, and the rate-throughput tradeoff.

Three short studies on the same active-surface downlink:

1. NOMA power split.  Sweeping the far user's share of the transmit power
   (`fig5` preset) shows the fairness tension: with residual SIC error the
   system-level outage dips at a split of 0.8 and climbs again, while
   perfect SIC keeps rewarding a larger far-user share.
2. Diversity order.  Holding the eavesdropper's receive SNR fixed and
   scaling the legitimate budget, the perfect-SIC outage curve decays with
   unit slope per decade while the imperfect-SIC curve hits a residual
   interference floor: slope one versus slope zero, read off numerically.
3. Secrecy throughput.  (1 - SOP) * R trades the outage risk of a faster
   code against its payoff; the table locates the sweet spot in the target
   rate for the near user.

Run:  python3 demos/allocation_and_asymptotics.py
"""

import dataclasses

import numpy as np

from ris_secrecy import (
    diversity_order,
    load_preset,
    realize_point,
    scenario_rate,
    secrecy_throughput,
    sop,
    sop_curve_fixed_eavesdropper,
)

print("1. splitting the budget between the NOMA users (30 dBm total)")
cfg = load_preset("fig5")
shares = list(cfg.sweep.values)
print(f"{'far-user share':>14} {'system SOP, ipSIC':>18} {'system SOP, pSIC':>17}")
for share in shares:
    params = realize_point(cfg, share, "aris")
    ip = sop(params, "system_external", "ipsic").value
    ps = sop(params, "system_external", "psic").value
    marker = "  <- ipSIC optimum" if share == 0.8 else ""
    print(f"{share:>14.2f} {ip:>18.4f} {ps:>17.4f}{marker}")
print("residual interference scales with the near user's power, so past 0.8 the")
print("imperfect-SIC curve gives back what the split gained; perfect SIC does not")

print()
print("2. slope per decade with the eavesdropper's receive SNR held fixed")
base = realize_point(load_preset("fig2"), 0.0, "aris")
base = dataclasses.replace(base, omega_ipu=1e-7, omega_ipe=1e-7)
rhos = base.p_bs * 10.0 ** np.arange(0, 5)
curves = {sic: sop_curve_fixed_eavesdropper(base, "external_n", sic, rhos)
          for sic in ("psic", "ipsic")}
print(f"{'P_bs over base':>14} {'SOP, pSIC':>12} {'SOP, ipSIC':>12}")
for k, rho in enumerate(rhos):
    print(f"{10 * k:>11} dB {curves['psic'][k]:>12.3e} {curves['ipsic'][k]:>12.3e}")
for sic in ("psic", "ipsic"):
    d = diversity_order(zip(rhos, curves[sic]))
    print(f"diversity order, {sic}: {d:.3f}")
print("unit slope means every extra decade of budget buys a decade of secrecy;")
print("the imperfect-SIC floor is the residual interference term refusing to fade")

print()
print("3. target rate versus secrecy throughput (near user, imperfect SIC)")
point = realize_point(load_preset("fig5"), 0.8, "aris")
print(f"{'rate R_n':>9} {'SOP':>9} {'(1-SOP)*R':>10}")
best = (0.0, 0.0)
for rate in (0.05, 0.1, 0.2, 0.4, 0.8, 1.2, 1.6, 2.4):
    params = dataclasses.replace(point, r_n=rate)
    s = sop(params, "external_n", "ipsic").value
    t = secrecy_throughput(s, scenario_rate(params, "external_n"))
    best = max(best, (t, rate))
    print(f"{rate:>9.2f} {s:>9.4f} {t:>10.4f}")
print(f"throughput peaks near R_n = {best[1]:.2f}: faster codes fail more often,")
print("slower ones waste the channel")
