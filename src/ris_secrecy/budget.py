"""Total power budget accounting for active and passive RIS deployments.

An active surface spends budget on the base station, the amplifier supply
and per-active-element phase-shifter + DC bias draw; a passive surface
spends only on the base station and per-element phase shifters.  Fair
active-vs-passive comparisons hold the total budget fixed and let the base
station keep whatever the surface does not consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import SURFACE_MODES

__all__ = ["BudgetInfeasibleError", "PowerBudget", "solve_bs_power"]


class BudgetInfeasibleError(ValueError):
    """Hardware terms exceed the total budget; carries the shortfall in watts."""

    def __init__(self, shortfall: float, message: str):
        super().__init__(message)
        self.shortfall = shortfall


@dataclass(frozen=True)
class PowerBudget:
    """Budget decomposition, all in finite watts.

    p_tot:  total budget
    p_ris:  amplifier supply power (active mode only)
    p_ps:   per-element phase-shifter power
    p_dc:   per-active-element DC bias power (active mode only)
    mode:   'aris' or 'pris'
    """

    p_tot: float
    p_ris: float
    p_ps: float
    p_dc: float
    mode: str

    def __post_init__(self):
        if self.mode not in SURFACE_MODES:
            raise ValueError(f"mode must be one of {SURFACE_MODES}")
        for name in ("p_tot", "p_ris", "p_ps", "p_dc"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.p_tot <= 0.0:
            raise ValueError("p_tot must be positive")
        for name in ("p_ris", "p_ps", "p_dc"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


def solve_bs_power(
    budget: PowerBudget,
    n_elements: int,
    n_active: int,
) -> float:
    """Base-station power left after the surface's hardware terms.

    aris: p_bs = p_tot - p_ris - n_active * (p_ps + p_dc)
    pris: p_bs = p_tot - n_elements * p_ps

    Raises BudgetInfeasibleError when nothing (or less) is left, reporting
    the shortfall.  Amplification and supply power are independent knobs in
    this model.
    """
    if budget.mode == "aris":
        hardware = budget.p_ris + n_active * (budget.p_ps + budget.p_dc)
    else:
        hardware = n_elements * budget.p_ps
    p_bs = budget.p_tot - hardware
    if p_bs <= 0.0:
        shortfall = hardware - budget.p_tot
        raise BudgetInfeasibleError(
            shortfall,
            f"{budget.mode} hardware power {hardware:.6g} W leaves no transmit power "
            f"from budget {budget.p_tot:.6g} W (shortfall {shortfall:.6g} W)",
        )
    return p_bs
