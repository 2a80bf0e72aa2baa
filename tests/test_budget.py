"""Checks for the power-budget split between base station and surface.

Groups: hand-worked active and passive splits; infeasibility detection
with the reported shortfall; a seeded randomized sweep against
independent arithmetic; and constructor validation.
"""

import numpy as np
import pytest

from ris_secrecy.budget import BudgetInfeasibleError, PowerBudget, solve_bs_power


def test_active_split_hand_value():
    budget = PowerBudget(p_tot=1e-4, p_ris=2e-5, p_ps=1e-7, p_dc=1e-7, mode="aris")
    got = solve_bs_power(budget, n_elements=40, n_active=20)
    assert got == pytest.approx(1e-4 - 2e-5 - 20 * 2e-7, rel=1e-15)


def test_passive_split_hand_value():
    budget = PowerBudget(p_tot=1e-4, p_ris=0.0, p_ps=1e-7, p_dc=0.0, mode="pris")
    got = solve_bs_power(budget, n_elements=40, n_active=20)
    assert got == pytest.approx(1e-4 - 40 * 1e-7, rel=1e-15)
    # passive mode charges every element, not just the on group, and
    # ignores p_ris / p_dc entirely
    loaded = PowerBudget(p_tot=1e-4, p_ris=5.0, p_ps=1e-7, p_dc=5.0, mode="pris")
    assert solve_bs_power(loaded, n_elements=40, n_active=20) == got


def test_infeasible_budget_reports_shortfall():
    budget = PowerBudget(p_tot=1e-5, p_ris=1e-5, p_ps=1e-7, p_dc=1e-7, mode="aris")
    with pytest.raises(BudgetInfeasibleError) as info:
        solve_bs_power(budget, n_elements=40, n_active=20)
    assert info.value.shortfall == pytest.approx(20 * 2e-7, rel=1e-12)
    # exactly exhausting the budget is also infeasible: no transmit power
    flat = PowerBudget(p_tot=1e-5, p_ris=1e-5, p_ps=0.0, p_dc=0.0, mode="aris")
    with pytest.raises(BudgetInfeasibleError):
        solve_bs_power(flat, n_elements=40, n_active=20)


def test_randomized_budgets_match_arithmetic():
    rng = np.random.default_rng(20260813)
    for _ in range(200):
        p_tot = 10.0 ** rng.uniform(-5, 1)
        p_ris = p_tot * rng.uniform(0.0, 0.5)
        p_ps = p_tot * rng.uniform(0.0, 1e-3)
        p_dc = p_tot * rng.uniform(0.0, 1e-3)
        q = int(rng.integers(1, 64))
        p = int(rng.integers(1, 8))
        m = p * q
        for mode in ("aris", "pris"):
            budget = PowerBudget(p_tot=p_tot, p_ris=p_ris, p_ps=p_ps, p_dc=p_dc, mode=mode)
            if mode == "aris":
                want = p_tot - p_ris - q * (p_ps + p_dc)
            else:
                want = p_tot - m * p_ps
            if want <= 0.0:
                with pytest.raises(BudgetInfeasibleError):
                    solve_bs_power(budget, n_elements=m, n_active=q)
            else:
                got = solve_bs_power(budget, n_elements=m, n_active=q)
                assert got == pytest.approx(want, rel=1e-15)


def test_budget_validation():
    with pytest.raises(ValueError):
        PowerBudget(p_tot=1e-4, p_ris=0.0, p_ps=0.0, p_dc=0.0, mode="hybrid")
    with pytest.raises(ValueError):
        PowerBudget(p_tot=0.0, p_ris=0.0, p_ps=0.0, p_dc=0.0, mode="aris")
    with pytest.raises(ValueError):
        PowerBudget(p_tot=1e-4, p_ris=-1e-6, p_ps=0.0, p_dc=0.0, mode="aris")


@pytest.mark.parametrize("name", ["p_tot", "p_ris", "p_ps", "p_dc"])
def test_budget_rejects_infinite_power(name):
    fields = dict(p_tot=1e-4, p_ris=0.0, p_ps=0.0, p_dc=0.0, mode="aris")
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        PowerBudget(**{**fields, name: float("inf")})


@pytest.mark.parametrize("name", ["p_tot", "p_ris", "p_ps", "p_dc"])
def test_budget_rejects_nan(name):
    fields = dict(p_tot=1e-4, p_ris=0.0, p_ps=0.0, p_dc=0.0, mode="aris")
    with pytest.raises(ValueError, match=name):
        PowerBudget(**{**fields, name: float("nan")})
