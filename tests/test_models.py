import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from levyhedge.errors import BankruptcyError, MissingJumpRecordsError, UnsupportedOrderError
from levyhedge.models import (
    CompoundPoisson,
    FixedJumps,
    LevyModel,
    NormalJumps,
    VarianceGamma,
    increment_cumulants,
    levy_moment,
    log_mean_growth,
    moment_vector,
    power_jump_path,
    relative_factors,
    risk_neutral_drift,
    simulate_path,
)
from levyhedge.models import PathGrid, _truncated_vg

VG_FTSE = VarianceGamma(theta=-0.2721, nu=0.3032, sigma=0.0302)
CP_TEST = CompoundPoisson(intensity=2.0, law=NormalJumps(mean=0.0, std=0.1))


def cumulants_to_raw_moments(kappas, k_max):
    """Oracle: raw moments from cumulants via the standard recurrence
    mu_n = sum_j C(n-1, j) kappa_{j+1} mu_{n-1-j}."""
    mu = [1.0]
    for n in range(1, k_max + 1):
        total = 0.0
        for j in range(0, n):
            total += math.comb(n - 1, j) * kappas[j] * mu[n - 1 - j]
        mu.append(total)
    return mu[1:]


class TestMoments:
    def test_compound_poisson_second(self):
        model = LevyModel(jump_spec=CP_TEST)
        assert levy_moment(model, 2) == pytest.approx(2.0 * 0.01, rel=1e-12)

    def test_compound_poisson_odd_symmetric(self):
        model = LevyModel(jump_spec=CP_TEST)
        for i in (3, 5, 7):
            assert levy_moment(model, i) == 0.0

    def test_normal_law_moments_vs_quadrature(self):
        law = NormalJumps(mean=0.03, std=0.07)
        for i in range(1, 7):
            num, _ = integrate.quad(
                lambda x: x**i * math.exp(-0.5 * ((x - 0.03) / 0.07) ** 2)
                / (0.07 * math.sqrt(2 * math.pi)),
                -1.0,
                1.0,
            )
            assert law.moment(i) == pytest.approx(num, rel=1e-8, abs=1e-12)

    @staticmethod
    def _nu_quadrature(spec, i):
        # integrate each side out to ~60 decay lengths of the density
        _, g, m = spec.cgm()
        pos, _ = integrate.quad(
            lambda x: x**i * spec.levy_density(x), 0, 60.0 / m, limit=200
        )
        neg, _ = integrate.quad(
            lambda x: x**i * spec.levy_density(x), -60.0 / g, 0, limit=200
        )
        return pos + neg

    def test_vg_m2_vs_levy_density_quadrature(self):
        model = LevyModel(jump_spec=VG_FTSE)
        quad_val = self._nu_quadrature(VG_FTSE, 2)
        assert quad_val == pytest.approx(0.023360485912, rel=1e-9)
        assert levy_moment(model, 2) == pytest.approx(quad_val, rel=1e-9)
        # cumulant identity: kappa_2 = theta^2 nu + sigma^2
        assert levy_moment(model, 2) == pytest.approx(
            VG_FTSE.theta**2 * VG_FTSE.nu + VG_FTSE.sigma**2, rel=1e-12
        )

    def test_vg_higher_moments_vs_quadrature(self):
        model = LevyModel(jump_spec=VG_FTSE)
        for i in (3, 4, 5):
            assert levy_moment(model, i) == pytest.approx(
                self._nu_quadrature(VG_FTSE, i), rel=1e-8
            )

    def test_first_moment_is_mean_rate(self):
        assert levy_moment(LevyModel(jump_spec=VG_FTSE), 1) == pytest.approx(VG_FTSE.theta)
        model = LevyModel(jump_spec=CompoundPoisson(3.0, NormalJumps(0.02, 0.05)))
        assert levy_moment(model, 1) == pytest.approx(3.0 * 0.02)

    def test_bad_order(self):
        with pytest.raises(UnsupportedOrderError):
            levy_moment(LevyModel(jump_spec=CP_TEST), 0)

    def test_moment_vector_m2_prime(self):
        model = LevyModel(brownian_sigma=0.2, jump_spec=CP_TEST)
        mom = moment_vector(model, 4)
        assert mom.m2_prime == pytest.approx(mom[2] + 0.04)
        assert mom.m2_prime >= mom[2]
        assert mom[2] >= 0 and mom[4] >= 0


def increments(model, dt, n, rng):
    """n independent draws of X_{t+dt} - X_t for a product-form model, from
    one draw of the sampler: each log-factor less the drift, with every
    jump's log1p(J) swapped back for J."""
    factors, jumps = relative_factors(model, dt, 1, n, rng, records=True)
    sig = model.brownian_sigma
    dx = np.log(factors[:, 0]) - (model.drift_b - 0.5 * sig**2) * dt
    return dx + np.bincount(jumps.path, jumps.size - np.log1p(jumps.size), n)


class TestIncrements:
    def test_no_randomness_sources(self):
        model = LevyModel(drift_b=0.1, brownian_sigma=0.0, jump_spec=None)
        a, jumps = relative_factors(model, 0.5, 3, 4, np.random.default_rng(0), records=True)
        b = relative_factors(model, 0.5, 3, 4, np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)
        assert a[0, 0] == pytest.approx(math.exp(0.05), rel=1e-15)
        assert len(jumps.size) == 0

    def test_sample_mean_matches_m1(self):
        model = LevyModel(brownian_sigma=0.15, jump_spec=CompoundPoisson(2.0, NormalJumps(0.05, 0.1)))
        rng = np.random.default_rng(7)
        dt = 0.1
        draws = increments(model, dt, 20000, rng)
        m1 = levy_moment(model, 1)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - m1 * dt) < 3 * se

    def test_raw_moments_match_cumulants(self):
        model = LevyModel(brownian_sigma=0.1, jump_spec=CP_TEST)
        rng = np.random.default_rng(11)
        dt = 0.05
        n = 1_000_000
        draws = increments(model, dt, n, rng)
        kappas = increment_cumulants(model, dt, 6)
        expected = cumulants_to_raw_moments(kappas, 6)
        for k in range(1, 7):
            sample_pow = draws**k
            se = sample_pow.std(ddof=1) / math.sqrt(n)
            assert abs(sample_pow.mean() - expected[k - 1]) < 4 * se, k


class TestEvolve:
    def test_deterministic_exponential(self):
        model = LevyModel(drift_b=0.05)
        rng = np.random.default_rng(0)
        s_next = simulate_path(model, 100.0, np.array([0.0, 1.0]), rng).asset[-1]
        assert s_next == pytest.approx(100.0 * math.exp(0.05), rel=1e-12)

    def test_single_jump_product_form(self):
        # a lone 10% jump multiplies the price by 1.1 at vanishing dt
        law = FixedJumps(size=0.1)
        model = LevyModel(drift_b=0.0, jump_spec=CompoundPoisson(5000.0, law))
        rng = np.random.default_rng(3)
        dt = 1e-4
        factors, jumps = relative_factors(model, dt, 1, 200, rng, records=True)
        single = np.flatnonzero(np.bincount(jumps.path, minlength=200) == 1)
        if not len(single):
            pytest.fail("no single-jump step sampled")
        assert 100.0 * factors[single[0], 0] == pytest.approx(100.0 * 1.1, rel=1e-10)

    def test_bankruptcy_detected(self):
        law = FixedJumps(size=-1.5)
        model = LevyModel(jump_spec=CompoundPoisson(50000.0, law))
        rng = np.random.default_rng(1)
        with pytest.raises(BankruptcyError):
            for _ in range(100):
                simulate_path(model, 100.0, np.array([0.0, 0.01]), rng)

    def test_nan_asset_is_bankrupt(self):
        # a bankrupt factor is NaN, which no comparison with 0 catches
        grid = np.linspace(0.0, 1.0, 3)
        with pytest.raises(BankruptcyError):
            PathGrid(times=grid, asset=np.array([100.0, np.nan, np.nan]), x=np.zeros(3),
                     jump_times=np.empty(0), jump_sizes=np.empty(0), jumps_recorded=True,
                     model=LevyModel())

    def test_mean_growth_product_form(self):
        model = LevyModel(drift_b=0.03, brownian_sigma=0.2,
                          jump_spec=CompoundPoisson(2.0, NormalJumps(0.05, 0.1)))
        rng = np.random.default_rng(5)
        n = 100_000
        factors = relative_factors(model, 1.0 / 12, 12, n, rng)
        s_T = 100.0 * np.nanprod(factors, axis=1)
        growth = log_mean_growth(model)
        expected = 100.0 * math.exp(growth)
        se = s_T.std(ddof=1) / math.sqrt(n)
        assert abs(s_T.mean() - expected) < 3 * se

    def test_mean_growth_vg_exponential_form(self):
        model = LevyModel(drift_b=0.1, jump_spec=VG_FTSE)
        rng = np.random.default_rng(9)
        n = 200_000
        factors = relative_factors(model, 0.25, 4, n, rng)
        s_T = np.prod(factors, axis=1)
        expected = math.exp(log_mean_growth(model))
        se = s_T.std(ddof=1) / math.sqrt(n)
        assert abs(s_T.mean() - expected) < 3 * se

    def test_risk_neutral_drift_centers_discounted_mean(self):
        base = LevyModel(brownian_sigma=0.0, jump_spec=VG_FTSE)
        b = risk_neutral_drift(base, r=0.0543, dividend=0.0351)
        model = LevyModel(drift_b=b, jump_spec=VG_FTSE)
        assert log_mean_growth(model) == pytest.approx(0.0543 - 0.0351, abs=1e-12)


class TestSampler:
    VG_REC = LevyModel(drift_b=0.02, jump_spec=VarianceGamma(theta=-0.1, nu=0.2, sigma=0.15),
                       jump_eps=1e-4)

    @pytest.mark.parametrize("spec", [CP_TEST, VG_FTSE], ids=["cp", "vg"])
    def test_per_step_dt_matches_scalar(self, spec):
        model = LevyModel(drift_b=0.03, brownian_sigma=0.1, jump_spec=spec)
        a = relative_factors(model, 0.1, 3, 500, np.random.default_rng(0))
        b = relative_factors(model, [0.1, 0.1, 0.1], 3, 500, np.random.default_rng(0))
        np.testing.assert_array_equal(a, b)

    def test_records_lie_in_their_steps_and_make_the_factors(self):
        model = LevyModel(jump_spec=CompoundPoisson(30.0, NormalJumps(0.01, 0.05)))
        dts = np.array([0.1, 0.3, 0.05])
        factors, jumps = relative_factors(model, dts, 3, 400, np.random.default_rng(1),
                                          records=True)
        assert len(jumps.size) > 1000
        cells = jumps.path * 3 + jumps.step
        assert np.all(np.diff(cells) >= 0)
        start = np.array([0.0, 0.1, 0.4])
        assert np.all(jumps.time > start[jumps.step])
        assert np.all(jumps.time <= start[jumps.step] + dts[jumps.step])
        want = np.bincount(cells, np.log1p(jumps.size), factors.size).reshape(400, 3)
        np.testing.assert_allclose(np.log(factors), want, rtol=1e-12, atol=1e-14)

    def test_vg_records_invert_the_tail(self):
        spec, eps = self.VG_REC.jump_spec, self.VG_REC.jump_eps
        _, g, m = spec.cgm()
        _, jumps = relative_factors(self.VG_REC, 0.25, 1, 2000, np.random.default_rng(2),
                                    records=True)
        x = jumps.size
        assert np.all(np.abs(x) >= eps)
        # each side's tail E1(lam |x|) / E1(lam eps) is uniform
        for side, lam in ((x > 0, m), (x < 0, g)):
            u = special.exp1(lam * np.abs(x[side])) / special.exp1(lam * eps)
            assert stats.kstest(u, "uniform").pvalue > 1e-3
        down = special.exp1(g * eps) / (special.exp1(g * eps) + special.exp1(m * eps))
        share = np.mean(x < 0)
        assert abs(share - down) < 4 * math.sqrt(down * (1 - down) / len(x))

    def test_vg_tail_inversion_is_exact(self):
        # replay the sampler's two uniforms per jump: side, then tail level
        spec, eps = self.VG_REC.jump_spec, self.VG_REC.jump_eps
        _, g, m = spec.cgm()
        _, sample, _ = _truncated_vg(spec, eps)
        x = sample(np.random.default_rng(5), 1000)
        replay = np.random.default_rng(5)
        replay.random(1000)
        u = replay.random(1000)
        lam = np.where(x < 0, g, m)
        np.testing.assert_allclose(special.exp1(lam * np.abs(x)),
                                   (1.0 - u) * special.exp1(lam * eps), rtol=1e-12)

    def test_vg_records_keep_the_mean_growth(self):
        n = 4000
        factors, _ = relative_factors(self.VG_REC, 0.25, 1, n, np.random.default_rng(3),
                                      records=True)
        f = factors[:, 0]
        expected = math.exp(log_mean_growth(self.VG_REC) * 0.25)
        assert abs(f.mean() - expected) < 3 * f.std(ddof=1) / math.sqrt(n)

    def test_records_are_not_antithetic(self):
        with pytest.raises(ValueError):
            relative_factors(LevyModel(jump_spec=CP_TEST), 0.1, 1, 10,
                             np.random.default_rng(0), antithetic=True, records=True)


class TestPowerJumpPath:
    def path_with(self, jumps, times, model, horizon=1.0):
        grid = np.linspace(0.0, horizon, 5)
        return PathGrid(
            times=grid,
            asset=np.ones_like(grid),
            x=np.zeros_like(grid),
            jump_times=np.array(times),
            jump_sizes=np.array(jumps),
            jumps_recorded=True,
            model=model,
        )

    def test_no_jumps_is_minus_compensator(self):
        model = LevyModel(jump_spec=CP_TEST)
        path = self.path_with([], [], model)
        y, t_asset = power_jump_path(path, 2)
        m2 = levy_moment(model, 2)
        assert y[-1] == pytest.approx(-m2 * 1.0)
        assert np.allclose(t_asset, y)  # r = 0

    def test_single_jump_bookkeeping(self):
        model = LevyModel(jump_spec=CompoundPoisson(1.0, NormalJumps(0.0, math.sqrt(0.02))))
        assert levy_moment(model, 2) == pytest.approx(0.02)
        path = self.path_with([0.2], [0.5], model)
        y, _ = power_jump_path(path, 2)
        assert y[-1] == pytest.approx(0.04 - 0.02)

    def test_t_asset_accrual(self):
        model = LevyModel(jump_spec=CP_TEST)
        path = self.path_with([0.1], [0.3], model)
        y, t_asset = power_jump_path(path, 3, r=0.05)
        assert t_asset[-1] == pytest.approx(math.exp(0.05) * y[-1])

    def test_bookkeeping_identity_on_simulated_path(self):
        model = LevyModel(drift_b=0.02, brownian_sigma=0.1,
                          jump_spec=CompoundPoisson(20.0, NormalJumps(0.0, 0.05)))
        rng = np.random.default_rng(21)
        path = simulate_path(model, 100.0, np.linspace(0, 1, 13), rng)
        for i in (2, 3, 4):
            y, _ = power_jump_path(path, i)
            raw = np.array(
                [path.jump_sizes[path.jump_times <= t] ** i for t in path.times],
                dtype=object,
            )
            m_i = levy_moment(model, i)
            for idx, t in enumerate(path.times):
                assert y[idx] + m_i * t == pytest.approx(float(np.sum(raw[idx])), abs=1e-12)

    def test_zero_mean_martingale(self):
        model = LevyModel(jump_spec=CompoundPoisson(5.0, NormalJumps(0.02, 0.08)))
        rng = np.random.default_rng(2)
        n = 4000
        finals = {2: [], 3: [], 4: []}
        for _ in range(n):
            path = simulate_path(model, 100.0, np.array([0.0, 0.5, 1.0]), rng)
            for i in finals:
                y, _ = power_jump_path(path, i)
                finals[i].append(y[-1])
        for i, vals in finals.items():
            vals = np.array(vals)
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean()) < 3 * se, i

    def test_missing_records_raises(self):
        model = LevyModel(jump_spec=VG_FTSE)
        rng = np.random.default_rng(4)
        path = simulate_path(model, 100.0, np.array([0.0, 1.0]), rng, track_jumps=False)
        with pytest.raises(MissingJumpRecordsError):
            power_jump_path(path, 2)

    def test_vg_jump_approximation_moments(self):
        # eps-truncated VG jump records reproduce the second moment
        model = LevyModel(jump_spec=VarianceGamma(theta=-0.1, nu=0.2, sigma=0.15),
                          jump_eps=1e-4)
        rng = np.random.default_rng(17)
        sq = []
        n = 300
        for _ in range(n):
            path = simulate_path(model, 100.0, np.array([0.0, 1.0]), rng, track_jumps=True)
            sq.append(np.sum(path.jump_sizes**2))
        sq = np.array(sq)
        m2 = levy_moment(model, 2)
        se = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - m2) < 4 * se + 1e-4
