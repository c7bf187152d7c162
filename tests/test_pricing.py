import copy
import math

import numpy as np
import pytest

from levyhedge.errors import GridError, LadderOrderError, PricingFailedError
from levyhedge.models import (
    CompoundPoisson,
    FixedJumps,
    LevyModel,
    NormalJumps,
    VarianceGamma,
    relative_factors,
    risk_neutral_drift,
)
from levyhedge.pricing import (
    OptionSpec,
    PathBundle,
    black_scholes_delta,
    black_scholes_gamma,
    black_scholes_price,
    derivative_ladder,
    mc_price,
    payoff,
    price_curve,
)
from levyhedge.stencil import build_lookup_table

BS = dict(s=100.0, k=100.0, t=1.0, r=0.05, sigma=0.2)


def bs_model():
    return LevyModel(drift_b=BS["r"], brownian_sigma=BS["sigma"])


def draw_bundle(model, horizon, steps, n_paths, rng, antithetic=False):
    """A bundle over ``horizon`` in ``steps`` equal steps."""
    factors = relative_factors(model, horizon / steps, steps, n_paths, rng, antithetic)
    return PathBundle(factors, horizon)


class TestMCPrice:
    def test_degenerate_deterministic(self):
        model = LevyModel(drift_b=0.05)
        opt = OptionSpec(kind="european_call", strike=90.0, maturity=1.0)
        price, se = mc_price(model, opt, 100.0, r=0.05, n_paths=1000, seed=0)
        want = max(100.0 * math.exp(0.05) - 90.0, 0.0) * math.exp(-0.05)
        assert se == pytest.approx(0.0, abs=1e-12)
        assert price == pytest.approx(want, rel=1e-12)

    def test_black_scholes_within_3se(self):
        opt = OptionSpec(kind="european_call", strike=BS["k"], maturity=BS["t"])
        price, se = mc_price(bs_model(), opt, BS["s"], r=BS["r"],
                             n_paths=400_000, seed=3, antithetic=True)
        want = black_scholes_price(**BS)
        assert abs(price - want) < 3 * se

    def test_put_call_parity_common_randoms(self):
        rng = np.random.default_rng(5)
        bundle = draw_bundle(bs_model(), 1.0, 1, 200_000, rng, antithetic=True)
        call = OptionSpec(kind="european_call", strike=100.0, maturity=1.0)
        put = OptionSpec(kind="european_put", strike=100.0, maturity=1.0)
        c, c_se = bundle.price(call, 100.0, 0.05)
        p, p_se = bundle.price(put, 100.0, 0.05)
        want = 100.0 - 100.0 * math.exp(-0.05)
        assert abs((c - p) - want) < 3 * math.hypot(c_se, p_se)

    def test_in_out_parity_same_paths(self):
        model = LevyModel(drift_b=0.05, brownian_sigma=0.2,
                          jump_spec=CompoundPoisson(1.0, NormalJumps(0.0, 0.05)))
        rng = np.random.default_rng(7)
        bundle = draw_bundle(model, 0.5, 26, 100_000, rng)
        eur = OptionSpec(kind="european_call", strike=100.0, maturity=0.5)
        for up, down in ((True, False), (False, True)):
            if up:
                a = OptionSpec(kind="up_and_out", strike=100.0, maturity=0.5, barrier=115.0)
                b = OptionSpec(kind="up_and_in", strike=100.0, maturity=0.5, barrier=115.0)
            else:
                a = OptionSpec(kind="down_and_out", strike=100.0, maturity=0.5, barrier=85.0)
                b = OptionSpec(kind="down_and_in", strike=100.0, maturity=0.5, barrier=85.0)
            va, _ = bundle.price(a, 100.0, 0.05)
            vb, _ = bundle.price(b, 100.0, 0.05)
            ve, se = bundle.price(eur, 100.0, 0.05)
            # same paths: the identity is exact up to float accumulation
            assert va + vb == pytest.approx(ve, rel=1e-12)

    def test_all_bankrupt_raises(self):
        model = LevyModel(jump_spec=CompoundPoisson(5000.0, FixedJumps(-1.2)))
        opt = OptionSpec(kind="european_call", strike=100.0, maturity=1.0)
        with pytest.raises(PricingFailedError):
            mc_price(model, opt, 100.0, r=0.05, n_paths=1000, steps=10, seed=1)

    def test_too_few_paths_rejected(self):
        opt = OptionSpec(kind="european_call", strike=100.0, maturity=1.0)
        with pytest.raises(ValueError):
            mc_price(bs_model(), opt, 100.0, r=0.05, n_paths=100, seed=1)

    def test_barrier_side_checked_at_pricing(self):
        opt = OptionSpec(kind="up_and_out", strike=100.0, maturity=1.0, barrier=95.0)
        with pytest.raises(ValueError):
            mc_price(bs_model(), opt, 100.0, r=0.05, n_paths=2000, seed=1)

    def test_expired_is_payoff(self):
        opt = OptionSpec(kind="european_call", strike=90.0, maturity=1.0)
        price, se = mc_price(bs_model(), opt, 100.0, r=0.05, t=1.0, n_paths=10)
        assert (price, se) == (10.0, 0.0)

    def test_ftse_vg_reference_price(self):
        # one-year at-the-money index call under the fitted VG dynamics
        vg = VarianceGamma(theta=-0.2721, nu=0.3032, sigma=0.0302)
        base = LevyModel(jump_spec=vg)
        b = risk_neutral_drift(base, r=0.0543, dividend=0.0351)
        model = LevyModel(drift_b=b, jump_spec=vg)
        opt = OptionSpec(kind="european_call", strike=6287.0, maturity=1.0)
        price, se = mc_price(model, opt, 6287.0, r=0.0543, n_paths=100_000, seed=11)
        assert abs(price - 410.914) < 2 * se


def reference_price(bundle, option, s0, r):
    """The per-spot kernel: one payoff vector over every path at spot s0."""
    pay = payoff(option, s0 * bundle.terminal, s0 * bundle.running_max,
                 s0 * bundle.running_min)
    disc = math.exp(-r * bundle.horizon)
    n = len(pay)
    se = disc * pay.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
    return disc * pay.mean(), se


ALL_KINDS = [
    OptionSpec(kind="european_call", strike=100.0, maturity=0.5),
    OptionSpec(kind="european_put", strike=100.0, maturity=0.5),
    OptionSpec(kind="up_and_out", strike=100.0, maturity=0.5, barrier=112.0),
    OptionSpec(kind="up_and_in", strike=100.0, maturity=0.5, barrier=112.0),
    OptionSpec(kind="down_and_out", strike=95.0, maturity=0.5, barrier=88.0),
    OptionSpec(kind="down_and_in", strike=95.0, maturity=0.5, barrier=88.0),
]


class TestBlockKernel:
    """values, price and price_many price one spot at a time in reused
    buffers; every result must be bit-identical to the per-spot kernel."""

    @pytest.fixture(scope="class")
    def bundle(self):
        model = LevyModel(drift_b=0.03, brownian_sigma=0.2,
                          jump_spec=CompoundPoisson(3.0, NormalJumps(-0.02, 0.05)))
        return draw_bundle(model, 0.5, 4, 2**16, np.random.default_rng(21))

    def spot_sets(self, bundle):
        rng = np.random.default_rng(22)
        for count in (1, 3, 4, 5):
            yield rng.uniform(90.0, 110.0, count)
        # duplicates, unsorted: the buffers are reused across spots
        yield np.array([104.0, 97.5, 104.0, 100.0, 97.5, 104.0, 91.0])

    def check(self, bundle, option, spots, r):
        want = [reference_price(bundle, option, float(s), r) for s in spots]
        want_p = np.array([p for p, _ in want])
        want_se = np.array([se for _, se in want])
        got_p, got_se = bundle.price_many(option, spots, r)
        np.testing.assert_array_equal(got_p, want_p)
        np.testing.assert_array_equal(got_se, want_se)
        np.testing.assert_array_equal(bundle.values(option, spots, r), want_p)
        for s, (p, se) in zip(spots, want):
            assert bundle.price(option, float(s), r) == (p, se)

    @pytest.mark.parametrize("option", ALL_KINDS, ids=lambda o: o.kind)
    def test_bit_identical_to_per_spot_kernel(self, bundle, option):
        for spots in self.spot_sets(bundle):
            self.check(bundle, option, spots, 0.05)

    @pytest.mark.parametrize("option", ALL_KINDS, ids=lambda o: o.kind)
    def test_expired_bundle_is_the_payoff(self, option):
        # zero horizon: every relative path stays at 1 and nothing is discounted
        model = LevyModel(drift_b=0.03, brownian_sigma=0.2,
                          jump_spec=CompoundPoisson(3.0, NormalJumps(-0.02, 0.05)))
        bundle = draw_bundle(model, 0.0, 1, 2000, np.random.default_rng(23))
        spots = np.array([86.0, 99.0, 101.0, 99.0, 120.0])
        self.check(bundle, option, spots, 0.05)
        np.testing.assert_array_equal(bundle.values(option, spots, 0.05),
                                      payoff(option, spots))

    @pytest.mark.parametrize("kind, strike, barrier, pays", [
        ("up_and_out", 100.0, 112.0, 0.0), ("up_and_in", 100.0, 112.0, 12.0),
        ("down_and_out", 80.0, 88.0, 0.0), ("down_and_in", 80.0, 88.0, 8.0),
    ])
    def test_a_spot_on_the_barrier_has_hit_it(self, kind, strike, barrier, pays):
        option = OptionSpec(kind=kind, strike=strike, maturity=0.5, barrier=barrier)
        bundle = draw_bundle(LevyModel(), 0.0, 1, 10, np.random.default_rng(0))
        assert bundle.values(option, [barrier], 0.0)[0] == pays
        assert payoff(option, np.array([barrier]))[0] == pays

    @pytest.mark.parametrize("option", ALL_KINDS[2:], ids=lambda o: o.kind)
    def test_barrier_reads_only_its_extremum(self, bundle, option):
        spots = np.array([93.0, 100.0, 107.0])
        want = bundle.values(option, spots, 0.05)
        unread = "running_min" if option.kind.startswith("up") else "running_max"
        blind = copy.copy(bundle)
        setattr(blind, unread, np.full(bundle.n_paths, np.nan))
        np.testing.assert_array_equal(blind.values(option, spots, 0.05), want)

    def test_values_prices_each_distinct_spot_once(self, bundle, monkeypatch):
        priced = []
        real = PathBundle._payoff_at

        def counting(self, option, s, out, level):
            priced.append(float(s))
            return real(self, option, s, out, level)

        monkeypatch.setattr(PathBundle, "_payoff_at", counting)
        spots = np.array([104.0, 97.5, 104.0, 100.0, 97.5, 104.0])
        bundle.values(ALL_KINDS[0], spots, 0.05)
        assert sorted(priced) == [97.5, 100.0, 104.0]


class TestPriceCurve:
    def test_monotone_call_curve(self):
        opt = OptionSpec(kind="european_call", strike=100.0, maturity=1.0)
        grid = np.linspace(80, 120, 21)
        prices, ses = price_curve(bs_model(), opt, grid, r=0.05,
                                  n_paths=100_000, seed=2)
        diffs = np.diff(prices)
        assert np.all(diffs > -3 * np.hypot(ses[1:], ses[:-1]))

    def test_singleton_matches_mc_price(self):
        opt = OptionSpec(kind="european_call", strike=100.0, maturity=1.0)
        a, _ = price_curve(bs_model(), opt, [100.0], r=0.05, n_paths=50_000, seed=9)
        b, _ = mc_price(bs_model(), opt, 100.0, r=0.05, n_paths=50_000, seed=9)
        assert a[0] == pytest.approx(b, rel=1e-12)

    def test_curve_vs_black_scholes_pointwise(self):
        opt = OptionSpec(kind="european_call", strike=100.0, maturity=1.0)
        grid = np.linspace(90, 110, 11)
        prices, ses = price_curve(bs_model(), opt, grid, r=0.05,
                                  n_paths=200_000, seed=4, antithetic=True)
        for s, p, se in zip(grid, prices, ses):
            want = black_scholes_price(s, BS["k"], BS["t"], BS["r"], BS["sigma"])
            assert abs(p - want) < 3 * se + 1e-9, s

    def test_non_uniform_grid_rejected(self):
        opt = OptionSpec(kind="european_call", strike=100.0, maturity=1.0)
        with pytest.raises(GridError):
            price_curve(bs_model(), opt, [90.0, 100.0, 105.0], r=0.05, n_paths=10)


class TestDerivativeLadder:
    def test_quadratic_synthetic_exact(self, table_n4):
        h = 0.5
        grid = 100.0 + h * np.arange(-4, 5)
        curve = 3.0 * grid**2 - 2.0 * grid + 7.0
        ladder = derivative_ladder(curve, table_n4, 5, h, d1=-1.0)
        assert ladder.derivative(1) == pytest.approx(6.0 * 100.0 - 2.0, rel=1e-12)
        assert ladder.derivative(2) == pytest.approx(6.0, rel=1e-9)
        for i in (3, 4, 5):
            assert ladder.derivative(i) == pytest.approx(0.0, abs=1e-7)

    def test_black_scholes_delta_gamma_desk_scale(self):
        # 1e6 common-random-number paths, antithetic
        table = build_lookup_table(2)
        h = 2.0
        grid = BS["s"] + h * np.arange(-2, 3)
        opt = OptionSpec(kind="european_call", strike=BS["k"], maturity=BS["t"])
        prices, _ = price_curve(bs_model(), opt, grid, r=BS["r"],
                                n_paths=1_000_000, seed=0, antithetic=True)
        ladder = derivative_ladder(prices, table, 2, h)
        d_true = black_scholes_delta(**BS)
        g_true = black_scholes_gamma(**BS)
        assert abs(ladder.derivative(1) - d_true) / d_true < 1e-3
        assert abs(ladder.derivative(2) - g_true) / g_true < 1e-2

    def test_order_beyond_table(self, table_n4):
        curve = np.ones(9)
        with pytest.raises(LadderOrderError):
            derivative_ladder(curve, table_n4, 9, 1.0)

    def test_ftse_payoff_first_entry_half(self, table_n4):
        # at-the-money payoff curve: the symmetric stencil sees slope 1/2
        h = 61.5
        grid = 6287.0 + h * np.arange(-4, 5)
        curve = np.maximum(grid - 6287.0, 0.0)
        ladder = derivative_ladder(curve, table_n4, 7, h)
        assert ladder.derivative(1) == pytest.approx(0.5, abs=1e-12)
        for i in (3, 5, 7):
            assert ladder.derivative(i) == pytest.approx(0.0, abs=1e-12)


class TestPayoffs:
    def test_barrier_payoff_states(self):
        uo = OptionSpec(kind="up_and_out", strike=100.0, maturity=1.0, barrier=120.0)
        assert payoff(uo, 110.0) == 10.0
        assert payoff(uo, 110.0, s_max=125.0) == 0.0
        di = OptionSpec(kind="down_and_in", strike=100.0, maturity=1.0, barrier=80.0)
        assert payoff(di, 110.0) == 0.0
        assert payoff(di, 110.0, s_min=79.0) == 10.0

    def test_barrier_side_validation(self):
        uo = OptionSpec(kind="up_and_out", strike=100.0, maturity=1.0, barrier=120.0)
        uo.check_barrier_side(100.0)
        with pytest.raises(ValueError):
            uo.check_barrier_side(125.0)

    def test_option_spec_validation(self):
        with pytest.raises(ValueError):
            OptionSpec(kind="up_and_out", strike=100.0, maturity=1.0)
        with pytest.raises(ValueError):
            OptionSpec(kind="european_call", strike=100.0, maturity=1.0, barrier=120.0)
        with pytest.raises(ValueError):
            OptionSpec(kind="lookback", strike=100.0, maturity=1.0)
