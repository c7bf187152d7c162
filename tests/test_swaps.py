import math

import numpy as np
import pytest

from levyhedge.errors import AlignmentError, ZeroRateError
from levyhedge.swaps import (
    RealizedHistory,
    SwapSpec,
    moment_swap_basket,
    variance_swap_basket,
)
from levyhedge.taylor import HedgeScenario


def realized_moment(
    history: RealizedHistory, new_return: float, k: int, delta_s: float, n: int
) -> float:
    """Annualised realized k-th moment once ``new_return`` completes the
    sampling schedule: (new_return^k + past power sum) / (ds (n - 2))."""
    if n < 3 or delta_s <= 0:
        raise ValueError("need n >= 3 and delta_s > 0")
    return (new_return**k + history.power_sum(k)) / (delta_s * (n - 2))


def scen(s_t=100.0, delta_t=0.1, r=0.05, **kw):
    return HedgeScenario(s_t=s_t, delta_s=kw.pop("delta_s", 0.0) or 1.0,
                         delta_t=delta_t, r=r)


class TestRealizedMoment:
    """A basket's swap leg pays units * notional * (realized - strike), with
    the realized moment (R^k + past power sum) / (ds (n - 2)) written out by
    hand here; the deposit earns bank_cash * (e^{r dt} - 1)."""

    def test_zero_history_zero_return(self):
        spec = SwapSpec(order=2, delta_s=1.0 / 252, n=3, strike=0.03, unit_price=0.002,
                        notional=1.5)
        basket = moment_swap_basket(0.8, scen(delta_t=1.0 / 252), spec,
                                    RealizedHistory(sums={2: 0.0}))
        units, growth = basket.swap_units, math.exp(0.05 * (1.0 / 252)) - 1.0
        want = math.fsum([units * ((0.0 - 0.03) * 1.5), -units * 0.002,
                          basket.bank_cash * growth])
        assert basket.change_of_value(0.0) == want

    def test_single_return_annualization(self):
        # one return of 0.1 over a three-point schedule: realized 0.1^2 / ds
        spec = SwapSpec(order=2, delta_s=1.0 / 252, n=3, strike=0.0, unit_price=0.0)
        basket = moment_swap_basket(0.8, scen(delta_t=1.0 / 252), spec,
                                    RealizedHistory(sums={2: 0.0}))
        assert basket.bank_cash == 0.0
        got = basket.change_of_value(10.0)  # R = 10 / 100
        assert got == pytest.approx(basket.swap_units * 0.01 * 252, rel=1e-12)

    def test_order_two_matches_variance_leg(self):
        rng = np.random.default_rng(0)
        prices = 100 * np.cumprod(1 + 0.02 * rng.standard_normal(10))
        rets = np.diff(prices) / prices[:-1]
        hist = RealizedHistory(sums={2: float(np.sum(rets**2))})
        new_r = 0.015
        spec = SwapSpec(order=2, delta_s=1.0 / 252, n=len(prices) + 1, strike=0.04,
                        unit_price=0.002, notional=1.3)
        s_t = float(prices[-1])
        basket = moment_swap_basket(0.8, scen(s_t=s_t, delta_t=1.0 / 252), spec, hist)
        # the k = 2 realized moment is the realized-variance payoff leg
        manual = (np.sum(rets**2) + new_r**2) / ((1.0 / 252) * (len(prices) + 1 - 2))
        units = basket.swap_units
        want = math.fsum([units * ((manual - 0.04) * 1.3), -units * 0.002,
                          basket.bank_cash * (math.exp(0.05 * (1.0 / 252)) - 1.0)])
        assert basket.change_of_value(new_r * s_t) == pytest.approx(want, rel=1e-12)

    def test_basket_marks_by_the_realized_moment(self):
        # the basket's payoff leg is realized_moment of the move's return, to the bit
        rng = np.random.default_rng(4)
        for order in (2, 3, 5):
            spec = SwapSpec(order=order, delta_s=0.02, n=9, strike=0.003, unit_price=0.004,
                            notional=1.7)
            hist = RealizedHistory(sums={order: float(rng.normal(0.0, 1e-3))})
            basket = moment_swap_basket(0.8, scen(delta_t=0.02), spec, hist)
            for ds in rng.normal(0.0, 3.0, 20):
                realized = realized_moment(hist, ds / 100.0, order, spec.delta_s, spec.n)
                want = math.fsum([basket.swap_units * ((realized - spec.strike) * spec.notional),
                                  -basket.swap_units * spec.unit_price,
                                  basket.bank_cash * (math.exp(0.05 * 0.02) - 1.0)])
                assert basket.change_of_value(ds) == want


    def test_float_move_marks_like_a_one_element_array(self):
        # no history and no strike, so the power of the return sets the
        # mark's last bits
        rng = np.random.default_rng(6)
        for order in range(2, 13):
            spec = SwapSpec(order=order, delta_s=0.02, n=5, strike=0.0,
                            unit_price=0.03**order)
            basket = moment_swap_basket(0.8, scen(delta_t=0.02), spec,
                                        RealizedHistory(sums={order: 0.0}))
            for ds in rng.normal(0.0, 3.0, 50).tolist():
                one = basket.change_of_value(ds)
                batch = basket.change_of_value(np.array([ds]))
                assert type(one) is float and batch.shape == (1,)
                assert np.array([one]).view(np.int64) == batch.view(np.int64)


class TestSwapSpec:
    @pytest.mark.parametrize("notional", [0.0, -1.0])
    def test_notional_must_be_positive(self, notional):
        with pytest.raises(ValueError, match="notional must be > 0"):
            SwapSpec(order=2, delta_s=0.1, n=5, strike=0.04, unit_price=1.0, notional=notional)


class TestVarianceSwapBasket:
    def test_zero_coefficient_empty(self):
        spec = SwapSpec(order=2, delta_s=0.1, n=5, strike=0.04, unit_price=1.0)
        hist = RealizedHistory(sums={2: 0.03})
        basket = variance_swap_basket(0.0, scen(delta_t=0.1), spec, hist)
        assert basket.swap_units == 0.0
        assert basket.bank_cash == 0.0
        assert basket.change_of_value(5.0) == 0.0

    def test_worked_example(self):
        # S_t=100, ds(n-2)=1, strike=0.04, past sum=0.03, P_V=1, r=0.05,
        # dt=0.1, dS=5  ->  change = 25 * C2
        spec = SwapSpec(order=2, delta_s=0.1, n=12, strike=0.04, unit_price=1.0)
        assert spec.annualizer == pytest.approx(1.0)
        hist = RealizedHistory(sums={2: 0.03})
        c2 = 0.7
        basket = variance_swap_basket(c2, scen(s_t=100.0, delta_t=0.1, r=0.05), spec, hist)
        assert basket.change_of_value(5.0) == pytest.approx(25.0 * c2, rel=1e-12)

    def test_initial_cost_matches_stated_investment(self):
        spec = SwapSpec(order=2, delta_s=0.05, n=10, strike=0.02, unit_price=0.8)
        hist = RealizedHistory(sums={2: 0.015})
        c2 = 1.3
        sc = scen(s_t=80.0, delta_t=0.05, r=0.03)
        basket = variance_swap_basket(c2, sc, spec, hist)
        ann = spec.annualizer
        growth = math.exp(sc.r * sc.delta_t) - 1.0
        stated = c2 * ann * 80.0**2 * spec.unit_price * (1 + 1 / growth) + (
            c2 * 80.0**2 * ann / growth * (spec.strike - hist.power_sum(2) / ann)
        )
        cost = basket.swap_units * spec.unit_price + basket.bank_cash
        assert cost == pytest.approx(stated, rel=1e-12)

    def test_replication_randomized(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            s_t = rng.uniform(20, 200)
            dt = rng.uniform(0.02, 0.5)
            r = rng.uniform(0.02, 0.12)
            n = rng.integers(3, 40)
            spec = SwapSpec(
                order=2, delta_s=dt, n=int(n),
                strike=rng.uniform(0.0, 0.3), unit_price=rng.uniform(0.1, 2.0),
                notional=rng.uniform(0.5, 3.0),
            )
            hist = RealizedHistory(sums={2: rng.uniform(0.0, 0.2)})
            c2 = rng.uniform(0.1, 4.0) * rng.choice([-1, 1])
            sc = HedgeScenario(s_t=s_t, delta_s=1.0, delta_t=dt, r=r)
            basket = variance_swap_basket(c2, sc, spec, hist)
            ds = rng.uniform(0.05, 0.3) * s_t * rng.choice([-1, 1])
            got = basket.change_of_value(ds)
            want = c2 * ds**2
            assert got == pytest.approx(want, rel=1e-10), (s_t, dt, r)

    def test_misaligned_sampling(self):
        spec = SwapSpec(order=2, delta_s=0.2, n=5, strike=0.04, unit_price=1.0)
        hist = RealizedHistory(sums={2: 0.0})
        with pytest.raises(AlignmentError):
            variance_swap_basket(1.0, scen(delta_t=0.1), spec, hist)

    def test_zero_rate_rejected(self):
        spec = SwapSpec(order=2, delta_s=0.1, n=5, strike=0.04, unit_price=1.0)
        hist = RealizedHistory(sums={2: 0.0})
        with pytest.raises(ZeroRateError):
            variance_swap_basket(1.0, scen(delta_t=0.1, r=0.0), spec, hist)


class TestMomentSwapBasket:
    def test_zero_move_third_order(self):
        spec = SwapSpec(order=3, delta_s=0.1, n=6, strike=0.001, unit_price=0.5)
        hist = RealizedHistory(sums={3: 0.002})
        basket = moment_swap_basket(1.7, scen(delta_t=0.1), spec, hist)
        assert basket.change_of_value(0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("order", [3, 4, 5, 7])
    def test_replication_randomized(self, order):
        # strikes, histories and quotes of a k-th moment contract scale like
        # (typical move)^k; keeping them on that scale also keeps the
        # cancelling legs within float range of the 1e-10 identity
        rng = np.random.default_rng(200 + order)
        scale = 0.35**order
        for _ in range(100):
            s_t = rng.uniform(20, 200)
            dt = rng.uniform(0.02, 0.5)
            r = rng.uniform(0.02, 0.12)
            spec = SwapSpec(
                order=order, delta_s=dt, n=int(rng.integers(3, 30)),
                strike=rng.uniform(-0.2, 1.0) * scale,
                unit_price=rng.uniform(0.1, 2.0) * scale,
                notional=rng.uniform(0.5, 3.0),
            )
            hist = RealizedHistory(sums={order: rng.uniform(-0.2, 1.0) * scale})
            c = rng.uniform(0.1, 3.0) * rng.choice([-1, 1])
            sc = HedgeScenario(s_t=s_t, delta_s=1.0, delta_t=dt, r=r)
            basket = moment_swap_basket(c, sc, spec, hist)
            ds = rng.uniform(0.1, 0.3) * s_t * rng.choice([-1, 1])
            assert basket.change_of_value(ds) == pytest.approx(
                c * ds**order, rel=1e-10
            )

    def test_order_two_is_variance_swap(self):
        spec = SwapSpec(order=2, delta_s=0.1, n=7, strike=0.05, unit_price=1.2)
        hist = RealizedHistory(sums={2: 0.01})
        sc = scen(delta_t=0.1)
        a = moment_swap_basket(0.9, sc, spec, hist)
        b = variance_swap_basket(0.9, sc, spec, hist)
        assert a == b

    def test_self_financing(self):
        # no cash is injected between t and t+dt: the change of value of the
        # held positions alone accounts for the whole move
        spec = SwapSpec(order=4, delta_s=0.25, n=5, strike=0.01, unit_price=0.3)
        hist = RealizedHistory(sums={4: 0.004})
        sc = scen(delta_t=0.25, r=0.04)
        basket = moment_swap_basket(1.1, sc, spec, hist)
        ds = 7.0
        cost = basket.swap_units * spec.unit_price + basket.bank_cash
        final_value = cost + basket.change_of_value(ds)
        realized = ((ds / sc.s_t) ** 4 + hist.power_sum(4)) / spec.annualizer
        direct = (
            basket.swap_units * (realized - spec.strike) * spec.notional
            + basket.bank_cash * math.exp(sc.r * sc.delta_t)
        )
        assert final_value == pytest.approx(direct, rel=1e-12)
