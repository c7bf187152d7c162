import math

import numpy as np
import pytest

from levyhedge.errors import DegenerateModelError, ZeroRateError
from levyhedge.minvar import mvp_bank_stock, mvp_general, mvp_weight, mvp_with_varswap
from levyhedge.models import (
    CompoundPoisson,
    FixedJumps,
    LevyModel,
    NormalJumps,
    moment_vector,
    one_jump_increments,
)
from levyhedge.swaps import RealizedHistory, SwapSpec


def cp_model(lam, law, sigB=0.0, b=0.03):
    return LevyModel(drift_b=b, brownian_sigma=sigB, jump_spec=CompoundPoisson(lam, law))


def mark_book(w, ds, r, dt):
    """Change of value of a whole minimal-variance book over one period."""
    value = w.bank_cash * math.expm1(r * dt) + w.stock_units * ds
    return value if w.swap is None else value + w.swap.change_of_value(ds)


class TestMvpWeight:
    def test_perfect_self_hedge(self):
        # hedging the asset itself: f1 = sigma S, f2(x) = x S
        s, sigma, m2 = 80.0, 0.25, 0.04
        phi = mvp_weight(sigma * s, m2 * s, m2, sigma, s)
        assert phi == pytest.approx(1.0, rel=1e-12)

    def test_squared_jump_target(self):
        # f1 = 0, f2(x) = x^2: phi = m3 / ((sigma^2 + m2) S)
        model = cp_model(2.0, NormalJumps(0.05, 0.1))
        mom = moment_vector(model, 3)
        phi = mvp_weight(0.0, mom[3], mom[2], 0.0, 120.0)
        assert phi == pytest.approx(mom[3] / (mom[2] * 120.0), rel=1e-12)

    def test_degenerate(self):
        assert mvp_weight(0.0, 0.0, 0.5, 0.0, 100.0) == 0.0
        with pytest.raises(DegenerateModelError):
            mvp_weight(1.0, 1.0, 0.0, 0.0, 100.0)


class TestBankStock:
    def test_zero_coefficients(self):
        model = cp_model(2.0, NormalJumps(0.0, 0.1), sigB=0.2)
        mom = moment_vector(model, 5)
        w = mvp_bank_stock({2: 0.0, 3: 0.0}, 100.0, mom, 0.01, 0.05)
        assert w.stock_units == 0.0
        assert w.bank_cash == 0.0

    def test_q2_specialization(self):
        model = cp_model(3.0, NormalJumps(0.02, 0.08), sigB=0.15)
        mom = moment_vector(model, 4)
        c2, s_t = 0.004, 150.0
        w = mvp_bank_stock({2: c2}, s_t, mom, 0.001, 0.05)
        assert w.stock_units == pytest.approx(
            c2 * s_t * mom[3] / (0.15**2 + mom[2]), rel=1e-12
        )
        assert w.bank_cash == pytest.approx(
            c2 * s_t**2 * mom[2] * 0.001 / (math.exp(0.05 * 0.001) - 1), rel=1e-12
        )

    def test_zero_rate(self):
        model = cp_model(2.0, NormalJumps(0.0, 0.1))
        mom = moment_vector(model, 4)
        with pytest.raises(ZeroRateError):
            mvp_bank_stock({2: 1.0}, 100.0, mom, 0.01, 0.0)

    def test_empirical_optimality_grid(self):
        """Analytic stock weight within 1% of the empirical quadratic-loss
        minimizer on 1e5 one-jump-regime scenarios (criterion-scale)."""
        model = cp_model(100.0, NormalJumps(0.08, 0.008), sigB=0.1)
        mom = moment_vector(model, 5)
        s0, dt = 100.0, 2e-4
        coeffs = {2: 0.005, 3: 2e-4}
        w = mvp_bank_stock(coeffs, s0, mom, dt, 0.05).stock_units
        rng = np.random.default_rng(0)
        ds = s0 * one_jump_increments(model, dt, 100_000, rng)
        target = sum(c * ds**i for i, c in coeffs.items())
        # quadratic fit of the empirical loss over a weight grid
        grid = w * np.linspace(0.5, 1.5, 41)
        losses = [np.mean((target - target.mean() - g * (ds - ds.mean())) ** 2) for g in grid]
        a, b, _ = np.polyfit(grid, losses, 2)
        w_grid = -b / (2 * a)
        assert abs(w_grid - w) / abs(w) < 0.01
        # closed-form empirical minimizer agrees with the grid fit
        x, y = ds - ds.mean(), target - target.mean()
        w_emp = float((x * y).mean() / (x * x).mean())
        assert w_grid == pytest.approx(w_emp, rel=1e-6)

    def test_residual_orthogonality(self):
        model = cp_model(100.0, NormalJumps(0.08, 0.008), sigB=0.1)
        mom = moment_vector(model, 5)
        s0, dt = 100.0, 2e-4
        coeffs = {2: 0.005, 3: 2e-4}
        w = mvp_bank_stock(coeffs, s0, mom, dt, 0.05).stock_units
        rng = np.random.default_rng(1)
        n = 100_000
        ds = s0 * one_jump_increments(model, dt, n, rng)
        target = sum(c * ds**i for i, c in coeffs.items())
        resid = target - w * ds
        rc = (resid - resid.mean()) * (ds - ds.mean())
        z = rc.mean() / (rc.std(ddof=1) / math.sqrt(n))
        assert abs(z) < 4


class TestWithVarswap:
    def swap(self, dt, mu=0.08):
        return SwapSpec(order=2, delta_s=dt, n=3, strike=0.04 * mu * mu, unit_price=mu * mu)

    def test_zero_coefficients(self):
        model = cp_model(5.0, FixedJumps(0.08), sigB=0.18)
        mom = moment_vector(model, 6)
        w = mvp_with_varswap({3: 0.0}, 100.0, mom, 2e-4, 0.05,
                             self.swap(2e-4), RealizedHistory(sums={2: 0.0}))
        assert w.varswap_units == 0.0
        assert w.stock_units == 0.0
        assert w.bank_cash == 0.0

    def test_q3_specialization(self):
        model = cp_model(5.0, FixedJumps(0.08), sigB=0.18)
        mom = moment_vector(model, 5)
        c3, s_t, dt = 2e-4, 100.0, 2e-4
        w = mvp_with_varswap({3: c3}, s_t, mom, dt, 0.05,
                             self.swap(dt), RealizedHistory(sums={2: 0.0}))
        phi = c3 * s_t * mom[3] / mom[2]
        assert w.varswap_units == pytest.approx(
            phi * self.swap(dt).annualizer * s_t**2, rel=1e-12
        )
        assert w.stock_units == 0.0

    def test_rejects_low_orders(self):
        model = cp_model(5.0, FixedJumps(0.08))
        mom = moment_vector(model, 5)
        with pytest.raises(ValueError):
            mvp_with_varswap({2: 1.0, 3: 1.0}, 100.0, mom, 2e-4, 0.05,
                             self.swap(2e-4), RealizedHistory(sums={2: 0.0}))

    def test_rejects_higher_moment_swap(self):
        model = cp_model(5.0, FixedJumps(0.08))
        mom = moment_vector(model, 5)
        spec = SwapSpec(order=3, delta_s=2e-4, n=3, strike=0.0, unit_price=0.0)
        hist = RealizedHistory(sums={2: 0.0, 3: 0.0})
        with pytest.raises(ValueError, match="order-2 swap"):
            mvp_with_varswap({3: 1.0}, 100.0, mom, 2e-4, 0.05, spec, hist)
        with pytest.raises(ValueError, match="order-2 swap"):
            mvp_general({3: 1.0}, 100.0, mom, 2e-4, 0.05, swap=spec, history=hist)

    def test_no_jump_variance(self):
        model = LevyModel(brownian_sigma=0.2)
        mom = moment_vector(model, 5)
        with pytest.raises(DegenerateModelError):
            mvp_with_varswap({3: 1.0}, 100.0, mom, 2e-4, 0.05,
                             self.swap(2e-4), RealizedHistory(sums={2: 0.0}))

    def test_empirical_optimality_two_instruments(self):
        """Swap weight within 2% of the two-dimensional (stock, swap)
        empirical minimizer; single-magnitude jump risk so the printed
        weights are the true projection."""
        model = cp_model(5.0, FixedJumps(0.08), sigB=0.18)
        mom = moment_vector(model, 6)
        s0, dt = 100.0, 2e-4
        coeffs = {3: 2e-4, 4: 1e-5}
        spec = self.swap(dt)
        mv = mvp_with_varswap(coeffs, s0, mom, dt, 0.05, spec,
                              RealizedHistory(sums={2: 0.0}))
        rng = np.random.default_rng(0)
        n = 100_000
        ds = s0 * one_jump_increments(model, dt, n, rng)
        target = sum(c * ds**i for i, c in coeffs.items())
        swap_leg = (ds / s0) ** 2 / spec.annualizer
        a = np.column_stack([ds - ds.mean(), swap_leg - swap_leg.mean()])
        coef, *_ = np.linalg.lstsq(a, target - target.mean(), rcond=None)
        emp_stock, emp_swap = coef
        assert abs(emp_swap - mv.varswap_units) / mv.varswap_units < 0.02
        # the analytic stock leg is zero; the empirical one must be within
        # 2% of the hedge scale once converted to change-of-value units
        scale = abs(mv.varswap_units) * swap_leg.std()
        assert abs(emp_stock) * ds.std() / scale < 0.02

    def test_residual_orthogonality_both_instruments(self):
        model = cp_model(5.0, FixedJumps(0.08), sigB=0.18)
        mom = moment_vector(model, 6)
        s0, dt = 100.0, 2e-4
        coeffs = {3: 2e-4, 4: 1e-5}
        spec = self.swap(dt)
        mv = mvp_with_varswap(coeffs, s0, mom, dt, 0.05, spec,
                              RealizedHistory(sums={2: 0.0}))
        rng = np.random.default_rng(1)
        n = 100_000
        ds = s0 * one_jump_increments(model, dt, n, rng)
        target = sum(c * ds**i for i, c in coeffs.items())
        swap_leg = (ds / s0) ** 2 / spec.annualizer
        resid = target - mv.varswap_units * swap_leg
        for instr in (ds, swap_leg):
            rc = (resid - resid.mean()) * (instr - instr.mean())
            z = rc.mean() / (rc.std(ddof=1) / math.sqrt(n))
            assert abs(z) < 4


    @pytest.mark.parametrize("notional", [1.0, 2.0])
    def test_swap_book_marks_projected_square(self, notional):
        """The swap book (swap units plus the whole deposit) changes by
        phi dS^2 + sum_i C_i S^i m_i dt - phi S^2 m_2 dt for every move,
        whatever the notional, strike, unit price and past returns."""
        model = cp_model(5.0, NormalJumps(0.02, 0.06), sigB=0.1)
        mom = moment_vector(model, 6)
        coeffs, s_t, dt, r = {3: 2e-4, 4: 1e-5}, 100.0, 1e-3, 0.05
        spec = SwapSpec(order=2, delta_s=dt, n=4, strike=3e-3, unit_price=5e-3,
                        notional=notional)
        hist = RealizedHistory(sums={2: 4e-6})
        w = mvp_with_varswap(coeffs, s_t, mom, dt, r, spec, hist)
        phi = sum(c * s_t ** (i - 2) * mom[i] for i, c in coeffs.items()) / mom[2]
        assert w.varswap_units == pytest.approx(phi * spec.annualizer * s_t**2 / notional,
                                                rel=1e-12)
        assert w.bank_cash == 0.0 and w.stock_units == 0.0
        legs = sum(c * s_t**i * mom[i] * dt for i, c in coeffs.items())
        for ds in (-9.0, -1.5, 0.0, 2.0, 12.0):
            want = phi * ds**2 + legs - phi * s_t**2 * mom[2] * dt
            assert mark_book(w, ds, r, dt) == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_whole_book_counts_the_deposit_once(self):
        """Marking every leg of the general book (bank, stock and swap)
        gives phi dS^2 plus the deposit's net carry sum_i C_i S^i C^(i)
        less phi S^2 m_2 dt, once."""
        from levyhedge.chaos import constant_term

        model = cp_model(5.0, NormalJumps(0.02, 0.06), sigB=0.1)
        mom = moment_vector(model, 6)
        coeffs, s_t, dt, r = {3: 2e-4, 4: 1e-5}, 100.0, 1e-3, 0.05
        spec = SwapSpec(order=2, delta_s=dt, n=4, strike=3e-3, unit_price=5e-3)
        w = mvp_general(coeffs, s_t, mom, dt, r, swap=spec,
                        history=RealizedHistory(sums={2: 4e-6}))
        phi = w.varswap_units / (spec.annualizer * s_t**2)
        legs = sum(c * s_t**i * constant_term(i, mom, dt) for i, c in coeffs.items())
        for ds in (-9.0, 0.0, 12.0):
            want = phi * ds**2 + legs - phi * s_t**2 * mom[2] * dt
            assert mark_book(w, ds, r, dt) == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_notional_halves_units_not_exposure(self):
        model = cp_model(5.0, FixedJumps(0.08), sigB=0.18)
        mom = moment_vector(model, 6)
        coeffs, dt = {3: 2e-4, 4: 1e-5}, 2e-4
        hist = RealizedHistory(sums={2: 1e-5})
        books = []
        for notional in (1.0, 2.0):
            spec = SwapSpec(order=2, delta_s=dt, n=3, strike=2e-4, unit_price=6.4e-3,
                            notional=notional)
            books.append((
                mvp_with_varswap(coeffs, 100.0, mom, dt, 0.05, spec, hist),
                mvp_general(coeffs, 100.0, mom, dt, 0.05, swap=spec, history=hist),
            ))
        for one, two in zip(*books):
            assert two.varswap_units == pytest.approx(one.varswap_units / 2, rel=1e-12)
            for ds in (-8.0, 0.5, 8.0):
                assert mark_book(two, ds, 0.05, dt) == pytest.approx(
                    mark_book(one, ds, 0.05, dt), rel=1e-10)


class TestGeneral:
    def test_bank_leg_uses_constant_term(self):
        from levyhedge.chaos import constant_term

        model = cp_model(3.0, NormalJumps(0.02, 0.06), sigB=0.1)
        mom = moment_vector(model, 6)
        coeffs = {2: 0.01, 3: 1e-3}
        dt, r, s0 = 0.02, 0.05, 100.0
        w = mvp_general(coeffs, s0, mom, dt, r)
        want = sum(
            c * s0**i * constant_term(i, mom, dt) for i, c in coeffs.items()
        ) / (math.exp(r * dt) - 1.0)
        assert w.bank_cash == pytest.approx(want, rel=1e-12)

    def test_reduces_to_bank_stock_at_small_dt(self):
        model = cp_model(3.0, NormalJumps(0.02, 0.06), sigB=0.1)
        mom = moment_vector(model, 6)
        coeffs = {2: 0.01}
        s0, r = 100.0, 0.05
        gaps = []
        for dt in (1e-2, 1e-3, 1e-4):
            simple = mvp_bank_stock(coeffs, s0, mom, dt, r)
            general = mvp_general(coeffs, s0, mom, dt, r)
            gaps.append(abs(general.stock_units - simple.stock_units) / simple.stock_units)
        # first order in dt: each 10x shrink of dt cuts the gap ~10x
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] < 0.2 * gaps[0] * 1.5
        assert gaps[2] < 1e-3

    def test_zero_coefficients(self):
        model = cp_model(3.0, NormalJumps(0.02, 0.06))
        mom = moment_vector(model, 6)
        w = mvp_general({2: 0.0, 3: 0.0}, 100.0, mom, 0.01, 0.05)
        assert w.stock_units == 0.0 and w.bank_cash == 0.0

    def test_general_with_swap_reduces_to_printed(self):
        model = cp_model(5.0, FixedJumps(0.08), sigB=0.18)
        mom = moment_vector(model, 6)
        coeffs = {3: 2e-4}
        dt = 1e-5
        spec = SwapSpec(order=2, delta_s=dt, n=3, strike=2e-4, unit_price=6.4e-3)
        hist = RealizedHistory(sums={2: 0.0})
        printed = mvp_with_varswap(coeffs, 100.0, mom, dt, 0.05, spec, hist)
        general = mvp_general(coeffs, 100.0, mom, dt, 0.05, swap=spec, history=hist)
        assert general.varswap_units == pytest.approx(printed.varswap_units, rel=1e-3)


class TestCompleteMarketLimit:
    def test_pure_brownian_linear_claim_residual_vanishes(self):
        # no jumps, sigma > 0, claim linear in the driving noise: the stock
        # hedge is complete and the residual variance collapses
        model = LevyModel(drift_b=0.0, brownian_sigma=0.2)
        rng = np.random.default_rng(3)
        n = 50_000
        dt = 1e-3
        dw = math.sqrt(dt) * rng.standard_normal(n)
        s0 = 100.0
        ds = s0 * (np.exp(-0.5 * 0.2**2 * dt + 0.2 * dw) - 1.0)
        target = 3.0 * ds
        w = 3.0  # phi from mvp_weight with f1 = 3 sigma S, f2 = 3 x S
        resid = target - w * ds
        assert resid.var() <= 1e-12 * target.var()
