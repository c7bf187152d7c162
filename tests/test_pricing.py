import copy
import math

import numpy as np
import pytest

from levyhedge import pricing
from levyhedge.errors import GridError, LadderOrderError
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
        (price,), (se,) = price_curve(model, opt, [100.0], r=0.05, n_paths=1000, seed=0)
        want = max(100.0 * math.exp(0.05) - 90.0, 0.0) * math.exp(-0.05)
        assert se == pytest.approx(0.0, abs=1e-12)
        assert price == pytest.approx(want, rel=1e-12)

    def test_black_scholes_within_3se(self):
        opt = OptionSpec(kind="european_call", strike=BS["k"], maturity=BS["t"])
        (price,), (se,) = price_curve(bs_model(), opt, [BS["s"]], r=BS["r"],
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

    def test_all_bankrupt_prices_at_zero(self):
        # every path meets a jump of -1.2 (none does with chance e^-5000), so S_T = 0 on
        # each: the call is worth 0 and the put K e^{-rT}, both without error
        model = LevyModel(jump_spec=CompoundPoisson(5000.0, FixedJumps(-1.2)))
        call = OptionSpec(kind="european_call", strike=100.0, maturity=1.0)
        put = OptionSpec(kind="european_put", strike=100.0, maturity=1.0)
        run = dict(r=0.05, n_paths=1000, steps=10, seed=1)
        # a lone spot takes the per-path kernel, a grid the sorted one
        for spots in ([100.0], [90.0, 100.0, 110.0]):
            for option, want in ((call, 0.0), (put, 100.0 * math.exp(-0.05))):
                prices, ses = price_curve(model, option, spots, **run)
                np.testing.assert_array_equal(prices, [want] * len(spots))
                np.testing.assert_array_equal(ses, [0.0] * len(spots))

    @staticmethod
    def absorbing_model(drift_b):
        """sigma = 0.2 and jumps of -1 at rate 2: a path that jumps is absorbed at zero."""
        return LevyModel(drift_b=drift_b, brownian_sigma=0.2,
                         jump_spec=CompoundPoisson(2.0, FixedJumps(-1.0)))

    def test_put_call_parity_with_absorbing_jumps(self):
        # at the risk-neutral drift E[S_T] = S_0 e^{rT} counts the absorbed paths
        # (39% by T = 0.25) at zero, so parity holds within the SE of the mean
        # discounted forward, the per-path C - P
        r, t = 0.05, 0.25
        model = self.absorbing_model(risk_neutral_drift(self.absorbing_model(0.0), r))
        bundle = draw_bundle(model, t, 1, 200_000, np.random.default_rng(11))
        assert 0.35 < bundle.n_bankrupt / bundle.n_paths < 0.43
        c, _ = bundle.price(OptionSpec(kind="european_call", strike=100.0, maturity=t), 100.0, r)
        p, _ = bundle.price(OptionSpec(kind="european_put", strike=100.0, maturity=t), 100.0, r)
        se = math.exp(-r * t) * 100.0 * bundle.terminal.std(ddof=1) / math.sqrt(bundle.n_paths)
        assert abs((c - p) - (100.0 - 100.0 * math.exp(-r * t))) < 3 * se

    def test_risk_neutral_drift_counts_jumps_below_minus_one(self):
        # N(0, 0.5^2) jumps fall below -1 with chance 2.3%; absorbed at zero they move
        # the price by -1, not by J, so the drift must compensate lambda E[max(J, -1)]
        r, t = 0.05, 1.0
        base = LevyModel(brownian_sigma=0.2, jump_spec=CompoundPoisson(2.0, NormalJumps(0.0, 0.5)))
        model = LevyModel(drift_b=risk_neutral_drift(base, r), brownian_sigma=0.2,
                          jump_spec=base.jump_spec)
        bundle = draw_bundle(model, t, 1, 400_000, np.random.default_rng(14))
        assert bundle.n_bankrupt > 0
        disc = math.exp(-r * t)
        se = disc * 100.0 * bundle.terminal.std(ddof=1) / math.sqrt(bundle.n_paths)
        assert abs(disc * 100.0 * bundle.terminal.mean() - 100.0) < 3 * se
        c, _ = bundle.price(OptionSpec(kind="european_call", strike=100.0, maturity=t), 100.0, r)
        p, _ = bundle.price(OptionSpec(kind="european_put", strike=100.0, maturity=t), 100.0, r)
        assert abs((c - p) - (100.0 - 100.0 * disc)) < 3 * se

    def test_absorbing_jumps_match_the_unconditional_price(self):
        # b = r: a path with no jump by T is a Black-Scholes path, one with a jump ends
        # at zero, where a put pays K and a call nothing
        r, t, lam = 0.05, 0.25, 2.0
        bundle = draw_bundle(self.absorbing_model(r), t, 1, 200_000, np.random.default_rng(12))
        survive = math.exp(-lam * t)
        for kind in ("european_put", "european_call"):
            price, se = bundle.price(OptionSpec(kind=kind, strike=100.0, maturity=t), 100.0, r)
            want = survive * black_scholes_price(100.0, 100.0, t, r, 0.2, kind=kind)
            if kind == "european_put":
                want += (1 - survive) * 100.0 * math.exp(-r * t)
            assert abs(price - want) < 3 * se, kind

    @pytest.mark.parametrize("kinds, barrier", [
        (("up_and_out", "up_and_in"), 115.0), (("down_and_out", "down_and_in"), 85.0)],
        ids=["up", "down"])
    def test_in_out_parity_per_path_with_absorbing_jumps(self, kinds, barrier):
        # every path, absorbed or not, pays its European payoff split between the
        # knock-out and the knock-in
        factors = relative_factors(self.absorbing_model(0.05), 0.5 / 26, 26, 20_000,
                                   np.random.default_rng(13))
        bundle = PathBundle(factors, 0.5)
        assert 0 < bundle.n_bankrupt < len(factors)
        eur = OptionSpec(kind="european_call", strike=100.0, maturity=0.5)
        want = payoff(eur, 100.0 * np.cumprod(factors, axis=1)[:, -1])
        legs = [OptionSpec(kind=kind, strike=100.0, maturity=0.5, barrier=barrier)
                for kind in kinds]
        paid = [payoff(leg, 100.0 * bundle.terminal, 100.0 * bundle.running_max,
                       100.0 * bundle.running_min) for leg in legs]
        np.testing.assert_array_equal(paid[0] + paid[1], want)
        prices = [bundle.values(leg, [100.0], 0.05)[0] for leg in legs]
        assert sum(prices) == pytest.approx(math.exp(-0.025) * want.mean(), rel=1e-12)

    def test_too_few_paths_rejected(self):
        opt = OptionSpec(kind="european_call", strike=100.0, maturity=1.0)
        with pytest.raises(ValueError):
            price_curve(bs_model(), opt, [100.0], r=0.05, n_paths=100, seed=1)

    def test_barrier_side_checked_at_pricing(self):
        opt = OptionSpec(kind="up_and_out", strike=100.0, maturity=1.0, barrier=95.0)
        with pytest.raises(ValueError):
            price_curve(bs_model(), opt, [100.0], r=0.05, n_paths=2000, seed=1)
        # every spot of a grid is checked: here only the top one reaches the barrier
        opt = OptionSpec(kind="up_and_out", strike=100.0, maturity=1.0, barrier=110.0)
        with pytest.raises(ValueError, match="up barrier 110.0 must exceed spot 110.0"):
            price_curve(bs_model(), opt, [100.0, 105.0, 110.0], r=0.05, n_paths=2000, seed=1)

    def test_expired_is_payoff(self):
        opt = OptionSpec(kind="european_call", strike=90.0, maturity=1.0)
        prices, ses = price_curve(bs_model(), opt, [100.0], r=0.05, t=1.0, n_paths=10)
        assert (prices.tolist(), ses.tolist()) == ([10.0], [0.0])

    def test_ftse_vg_reference_price(self):
        # one-year at-the-money index call under the fitted VG dynamics
        vg = VarianceGamma(theta=-0.2721, nu=0.3032, sigma=0.0302)
        base = LevyModel(jump_spec=vg)
        b = risk_neutral_drift(base, r=0.0543, dividend=0.0351)
        model = LevyModel(drift_b=b, jump_spec=vg)
        opt = OptionSpec(kind="european_call", strike=6287.0, maturity=1.0)
        (price,), (se,) = price_curve(model, opt, [6287.0], r=0.0543, n_paths=100_000, seed=11)
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
    """values, price and price_many price each distinct spot once.  A barrier
    kind and a lone spot must be bit-identical to the per-spot kernel; a
    European spot set, priced from the sorted terminal factors, must match
    the exactly rounded mean payoff."""

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
        if option.kind in ("european_call", "european_put") and len(set(spots)) > 1:
            return self.check_exact_mean(bundle, option, spots, r)
        want = [reference_price(bundle, option, float(s), r) for s in spots]
        want_p = np.array([p for p, _ in want])
        want_se = np.array([se for _, se in want])
        got_p, got_se = bundle.price_many(option, spots, r)
        np.testing.assert_array_equal(got_p, want_p)
        np.testing.assert_array_equal(got_se, want_se)
        np.testing.assert_array_equal(bundle.values(option, spots, r), want_p)
        for s, (p, se) in zip(spots, want):
            assert bundle.price(option, float(s), r) == (p, se)

    def check_exact_mean(self, bundle, option, spots, r):
        """Prices within 1e-15 disc s mean(R_T) of disc fsum(payoff)/n, SEs
        within 1e-9 of the per-path sample SE and exactly 0 where no path pays."""
        disc = math.exp(-r * bundle.horizon)
        n = bundle.n_paths
        got_p, got_se = bundle.price_many(option, spots, r)
        np.testing.assert_array_equal(bundle.values(option, spots, r), got_p)
        for s, p, se in zip(spots, got_p, got_se):
            pay = payoff(option, s * bundle.terminal)
            assert abs(p - disc * math.fsum(pay) / n) <= 1e-15 * disc * s * bundle.terminal.mean()
            want_se = disc * pay.std(ddof=1) / math.sqrt(n)
            if not pay.any():
                assert se == 0.0 and p == 0.0
            else:
                assert se == pytest.approx(want_se, rel=1e-9, abs=0)

    @pytest.mark.parametrize("option", ALL_KINDS[2:], ids=lambda o: o.kind)
    def test_bit_identical_to_per_spot_kernel(self, bundle, option):
        for spots in self.spot_sets(bundle):
            self.check(bundle, option, spots, 0.05)

    @pytest.mark.parametrize("option", ALL_KINDS[:2], ids=lambda o: o.kind)
    def test_european_spot_sets_match_the_exact_mean(self, bundle, option):
        # spots where no path pays: calls far below the strike, puts far above
        far = [1.0, 2.0, 100.0] if option.kind == "european_call" else [100.0, 1e4, 2e4]
        for spots in [*self.spot_sets(bundle), np.array(far)]:
            self.check(bundle, option, spots, 0.05)
        # a lone spot keeps the per-path kernel, bit for bit
        want = reference_price(bundle, option, 97.5, 0.05)
        assert bundle.price(option, 97.5, 0.05) == want
        assert bundle.values(option, [97.5, 97.5], 0.05)[1] == want[0]

    @staticmethod
    def boundary_cases():
        """(s, R) pairs where a binary search for K/s = 100/s lands an ulp
        off the payoff's own test s R > K (s R < K for a put)."""
        rng = np.random.default_rng(1)
        cases = []
        while len(cases) < 12:
            s = rng.uniform(80.0, 120.0)
            edge = 100.0 / s
            for level in (np.nextafter(edge, 0), edge, np.nextafter(edge, 2)):
                if (level > edge) != (s * level > 100.0) or (level < edge) != (s * level < 100.0):
                    cases.append((s, level))
        return cases

    def test_european_split_follows_the_payoff_comparison(self):
        # the one path at such a level R is the only one that can pay near s
        for s, level in self.boundary_cases():
            spots = np.array([0.75 * s, s, 1.5 * s])
            for kind, others in (("european_call", 0.5), ("european_put", 2.0)):
                levels = np.append(np.full(999, others), level)
                bundle = PathBundle(levels[:, None], 0.5)
                option = OptionSpec(kind=kind, strike=100.0, maturity=0.5)
                self.check_exact_mean(bundle, option, spots, 0.05)

    def test_tied_levels_have_no_spread(self):
        # every path at one level, or at two adjacent floats: the payoffs are
        # equal or an ulp apart, so the SE is 0 or below rounding (never NaN),
        # and no price falls below 0
        disc = math.exp(-0.05 * 0.5)
        # the last case: 616 puts whose s R - K sum rounds to -7e-12
        cases = [(s, level, 1000) for s, level in self.boundary_cases()]
        for s, level, n in cases + [(118.10613345555339, 0.8466960781307159, 616)]:
            spots = np.array([0.75 * s, s, 1.5 * s])
            for levels in (np.full(n, level), np.resize([level, np.nextafter(level, 2)], n)):
                bundle = PathBundle(levels[:, None], 0.5)
                for kind in ("european_call", "european_put"):
                    option = OptionSpec(kind=kind, strike=100.0, maturity=0.5)
                    prices, ses = bundle.price_many(option, spots, 0.05)
                    want = [disc * math.fsum(payoff(option, x * levels)) / n for x in spots]
                    np.testing.assert_allclose(prices, want, rtol=0, atol=1e-15 * disc * 1.5 * s)
                    assert np.all(prices >= 0)
                    if levels[0] == levels[1]:
                        np.testing.assert_array_equal(ses, 0.0)
                    else:  # rounding in the spread leaves about s R sqrt(eps / n)
                        assert np.all(ses <= 1e-7 * spots * level / math.sqrt(n))

    def test_three_strikes_sort_the_bundle_once(self, monkeypatch):
        model = LevyModel(drift_b=0.03, brownian_sigma=0.2)
        bundle = draw_bundle(model, 0.5, 2, 5000, np.random.default_rng(4))
        built = []
        real = pricing._RankedLevels

        def counting(terminal):
            built.append(len(terminal))
            return real(terminal)

        monkeypatch.setattr(pricing, "_RankedLevels", counting)
        spots = np.array([95.0, 100.0, 105.0])
        for strike in (95.0, 100.0, 105.0):
            for kind in ("european_call", "european_put"):
                bundle.price_many(OptionSpec(kind=kind, strike=strike, maturity=0.5), spots, 0.05)
        assert built == [5000]

    def test_prefix_sums_do_not_overflow(self):
        # 2^20 paths at levels up to 50: the int64 sums of R and of R^2 stay exact
        n = 2**20
        levels = np.random.default_rng(8).uniform(49.0, 50.0, n)
        levels[0] = 50.0
        bundle = PathBundle(levels[:, None], 1.0)
        ranked = bundle._ranked
        for sums, x in ((ranked.sums, ranked.levels), (ranked.square_sums, ranked.levels**2)):
            a, b = np.array([0, 0, n // 2, n - 1]), np.array([n, n // 2, n, n])
            for i, j, got in zip(a, b, sums.between(a, b)):
                assert got == pytest.approx(math.fsum(x[i:j]), rel=2.3e-16, abs=0)
        option = OptionSpec(kind="european_call", strike=4000.0, maturity=1.0)
        self.check_exact_mean(bundle, option, np.array([80.0, 81.0, 82.0]), 0.0)

    def test_extrema_match_the_row_reduction(self):
        # the column-by-column extrema are bit-identical to a max/min along each path
        rng = np.random.default_rng(9)
        factors = relative_factors(LevyModel(brownian_sigma=0.3, jump_spec=CompoundPoisson(
            20.0, FixedJumps(-1.5))), 0.05, 5, 4000, rng)
        rel = np.cumprod(factors, axis=1)
        absorbed = rel[:, -1] == 0.0
        assert 0 < absorbed.sum() < len(absorbed)
        built = PathBundle(factors, 0.25)
        assert built.n_bankrupt == absorbed.sum()
        np.testing.assert_array_equal(built.running_max, np.maximum(rel.max(axis=1), 1.0))
        np.testing.assert_array_equal(built.running_min, np.minimum(rel.min(axis=1), 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_factors_raise(self, bad):
        # a bad factor mid-path reaches the terminal column, even across an absorbed step
        factors = np.ones((4, 3))
        factors[1, 1] = bad
        factors[2, 0], factors[2, 2] = 0.0, bad
        with pytest.raises(ValueError, match="path factors must be finite"):
            PathBundle(factors, 1.0)

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
        # the barrier kinds, which keep a payoff pass per spot
        priced = []
        real = PathBundle._payoff_at

        def counting(self, option, s, out, level):
            priced.append(float(s))
            return real(self, option, s, out, level)

        monkeypatch.setattr(PathBundle, "_payoff_at", counting)
        spots = np.array([104.0, 97.5, 104.0, 100.0, 97.5, 104.0])
        for option in ALL_KINDS[2:]:
            priced.clear()
            bundle.values(option, spots, 0.05)
            bundle.price_many(option, spots, 0.05)
            assert sorted(priced) == [97.5, 97.5, 100.0, 100.0, 104.0, 104.0]


class TestPriceCurve:
    def test_monotone_call_curve(self):
        opt = OptionSpec(kind="european_call", strike=100.0, maturity=1.0)
        grid = np.linspace(80, 120, 21)
        prices, ses = price_curve(bs_model(), opt, grid, r=0.05,
                                  n_paths=100_000, seed=2)
        diffs = np.diff(prices)
        assert np.all(diffs > -3 * np.hypot(ses[1:], ses[:-1]))

    @pytest.mark.parametrize("option", ALL_KINDS, ids=lambda o: o.kind)
    @pytest.mark.parametrize("jumps", [None, CompoundPoisson(3.0, NormalJumps(-0.02, 0.08))],
                             ids=["brownian", "compound_poisson"])
    @pytest.mark.parametrize("antithetic, steps", [(True, 1), (False, 4)],
                             ids=["antithetic", "4_steps"])
    def test_lone_spot_matches_bundle_price(self, option, jumps, antithetic, steps):
        # the same draw as a bundle built from the same seed: the same bits
        model = LevyModel(drift_b=0.05, brownian_sigma=0.2, jump_spec=jumps)
        horizon = option.maturity - 0.25
        bundle = draw_bundle(model, horizon, steps, 50_000, np.random.default_rng(9), antithetic)
        (price,), (se,) = price_curve(model, option, [100.0], r=0.05, t=0.25, n_paths=50_000,
                                      steps=steps, seed=9, antithetic=antithetic)
        assert (price, se) == bundle.price(option, 100.0, 0.05)

    @pytest.mark.parametrize("spots", [100.0, [[95.0, 100.0, 105.0]]], ids=["0-d", "2-d"])
    def test_spots_must_be_one_dimensional(self, spots):
        opt = OptionSpec(kind="european_call", strike=100.0, maturity=1.0)
        with pytest.raises(ValueError, match="1-D grid"):
            price_curve(bs_model(), opt, spots, r=0.05, n_paths=1000, seed=1)

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

    @pytest.mark.parametrize("t", [0.0, 1.0], ids=["live", "expired"])
    def test_non_positive_spot_rejected(self, t):
        # a put at spots [-20, 0, 20] has no price
        opt = OptionSpec(kind="european_put", strike=100.0, maturity=1.0)
        for grid in ([-20.0, 0.0, 20.0], [0.0]):
            with pytest.raises(ValueError, match="spot must be > 0"):
                price_curve(bs_model(), opt, grid, r=0.05, t=t, n_paths=1000, seed=1)


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


class TestBlackScholesClosedForms:
    """The closed forms against the same formulas on scipy's normal law."""

    K, T, R, SIGMA, Q = 100.0, 0.25, 0.03, 0.2, 0.01

    @pytest.mark.parametrize("d1", np.linspace(-8.0, 8.0, 33))
    def test_match_scipy_normal(self, d1):
        from scipy.stats import norm

        k, t, r, sigma, q = self.K, self.T, self.R, self.SIGMA, self.Q
        vol = sigma * math.sqrt(t)
        s = k * math.exp(d1 * vol - (r - q + 0.5 * sigma**2) * t)
        d1 = (math.log(s / k) + (r - q + 0.5 * sigma**2) * t) / vol  # as rounded from s
        d2 = d1 - vol
        stock, bond = s * math.exp(-q * t), k * math.exp(-r * t)
        legs = {"european_call": (stock * norm.cdf(d1), bond * norm.cdf(d2)),
                "european_put": (bond * norm.cdf(-d2), stock * norm.cdf(-d1))}
        delta = math.exp(-q * t) * norm.cdf(d1)
        gamma = math.exp(-q * t) * norm.pdf(d1) / (s * vol)
        for kind, (long, short) in legs.items():
            # a price is the difference of two legs, so it can only agree to
            # 1e-14 of the larger leg: deep out of the money they cancel
            got = black_scholes_price(s, k, t, r, sigma, q, kind=kind)
            assert got == pytest.approx(long - short, rel=0.0, abs=1e-14 * long)
        assert black_scholes_delta(s, k, t, r, sigma, q) == pytest.approx(delta, rel=1e-14, abs=0.0)
        assert black_scholes_gamma(s, k, t, r, sigma, q) == pytest.approx(gamma, rel=1e-14, abs=0.0)
