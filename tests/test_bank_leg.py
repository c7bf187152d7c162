"""One rate rule for every bank leg: ``taylor.bank_growth`` finances the
deposit of every basket and ledger, raises ``ZeroRateError`` at r = 0 and
takes a negative rate like any other."""

import math

import numpy as np
import pytest

from levyhedge.errors import ZeroRateError
from levyhedge.jump_baskets import (
    PathState,
    ScenarioOutcome,
    phi_hedge_basket,
    pja_basket_general,
    pji_basket,
)
from levyhedge.minvar import mvp_bank_stock, mvp_general, mvp_with_varswap
from levyhedge.models import CompoundPoisson, LevyModel, NormalJumps, moment_vector
from levyhedge.pricing import DerivativeLadder
from levyhedge.swaps import RealizedHistory, SwapBasket, SwapSpec, moment_swap_basket
from levyhedge.taylor import HedgeScenario, assemble_ledger, bank_growth, bank_term

S, DT = 100.0, 0.05
MOMENTS = moment_vector(
    LevyModel(jump_spec=CompoundPoisson(20.0, NormalJumps(-0.01, 0.05))), 8
)
STATE = PathState(t=0.3, y={2: 0.01, 3: -0.002, 4: 0.0005})


def scen(r):
    return HedgeScenario(s_t=S, delta_s=1.0, delta_t=DT, r=r)


def swap(order):
    return SwapSpec(order=order, delta_s=DT, n=4, strike=0.03**order / DT,
                    unit_price=0.03**order)


def history(order):
    return RealizedHistory(sums={order: 2 * 0.02**order})


LADDER = DerivativeLadder(d2=(0.6, 0.01, 1e-4), d1=-5.0)

BANK_LEGS = {
    "pja_basket_general": lambda r: pja_basket_general(0.7, scen(r), 3, STATE, MOMENTS, 0.03),
    "pji_basket": lambda r: pji_basket(0.7, scen(r), 3, MOMENTS),
    "phi_hedge_basket": lambda r: phi_hedge_basket(0.7, scen(r), 3, MOMENTS, STATE),
    "moment_swap_basket": lambda r: moment_swap_basket(0.7, scen(r), swap(3), history(3)),
    "mvp_bank_stock": lambda r: mvp_bank_stock({2: 0.01, 3: 1e-4}, S, MOMENTS, DT, r),
    "mvp_with_varswap": lambda r: mvp_with_varswap({3: 1e-4}, S, MOMENTS, DT, r, swap(2),
                                                   history(2)),
    "mvp_general": lambda r: mvp_general({2: 0.01, 3: 1e-4}, S, MOMENTS, DT, r),
    "bank_term": lambda r: bank_term((-5.0,), scen(r)),
    "assemble_ledger": lambda r: assemble_ledger(
        LADDER, scen(r), 3,
        lambda i, c_i: moment_swap_basket(c_i, scen(r), swap(i), history(i))),
}


def test_bank_growth_is_the_accrual_factor():
    for r in (0.05, -0.01, 1e-12):
        assert bank_growth(r, DT) == math.exp(r * DT) - 1.0
    assert bank_growth(-0.01, DT) < 0
    with pytest.raises(ZeroRateError):
        bank_growth(0.0, DT)


@pytest.mark.parametrize("name", BANK_LEGS)
def test_zero_rate_raises(name):
    with pytest.raises(ZeroRateError):
        BANK_LEGS[name](0.0)


@pytest.mark.parametrize("name", BANK_LEGS)
def test_negative_rate_builds(name):
    assert BANK_LEGS[name](-0.01) is not None


def one_jump(x, drift_b=0.0):
    """A single jump x inside the period; dS = S (e^{b dt}(1 + x) - 1)."""
    ds = S * (math.exp(drift_b * DT) * (1.0 + x) - 1.0)
    return ScenarioOutcome(delta_s=ds, jump_times=np.array([0.3 + DT / 2]),
                           jump_sizes=np.array([x]))


def largest_leg(basket, outcome):
    growth = bank_growth(basket.r, basket.delta_t)
    if isinstance(basket, SwapBasket):
        return max(abs(basket.bank_cash * growth), abs(basket.swap_units * basket.spec.unit_price))
    return max(abs(basket.bank_cash * growth), abs(basket.stock_units * outcome.delta_s))


@pytest.mark.parametrize("r", [-0.01, 0.05])
@pytest.mark.parametrize("x", [0.0, 0.04, -0.07])
def test_negative_rate_marks_the_taylor_term(r, x):
    """C_i dS^i to 1e-10 of the largest leg, at a negative rate as at a
    positive one."""
    c, i = 0.7, 3
    pja = pja_basket_general(c, scen(r), i, STATE, MOMENTS, 0.03)
    pji = pji_basket(c, scen(r), i, MOMENTS, PathState(t=0.3))
    swp = moment_swap_basket(c, scen(r), swap(i), history(i))
    for basket, outcome in ((pja, one_jump(x, 0.03)), (pji, one_jump(x)), (swp, one_jump(x))):
        mark = (basket.change_of_value(outcome.delta_s) if basket is swp
                else basket.change_of_value(outcome))
        target = c * outcome.delta_s**i
        tol = 1e-10 * max(largest_leg(basket, outcome), abs(target))
        assert abs(mark - target) <= tol, (type(basket).__name__, r, x, mark, target)
