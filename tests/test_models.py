import hashlib
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from conftest import package_env
from scipy import integrate, special, stats

from levyhedge import models
from levyhedge.errors import DegenerateModelError, UnsupportedOrderError
from levyhedge.jump_baskets import PathState, ScenarioOutcome
from levyhedge.models import (
    CompoundPoisson,
    FixedJumps,
    LevyModel,
    NormalJumps,
    VarianceGamma,
    increment_cumulants,
    log_mean_growth,
    moment_vector,
    relative_factors,
    risk_neutral_drift,
)
from levyhedge.models import _gamma_gap

VG_FTSE = VarianceGamma(theta=-0.2721, nu=0.3032, sigma=0.0302)
VG_BENCH = VarianceGamma(theta=-0.05, nu=0.01, sigma=0.2)  # levybench PNL_VG
# orders 7 and 3 sit 0.61 and 0.12 below M, where the moments stop existing
VG_NEAR_7 = VarianceGamma(theta=0.2, nu=0.3, sigma=0.25)
VG_NEAR_3 = VarianceGamma(theta=0.5, nu=0.5, sigma=0.3)
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
        assert moment_vector(model, 2)[2] == pytest.approx(2.0 * 0.01, rel=1e-12)

    def test_compound_poisson_odd_symmetric(self):
        mom = moment_vector(LevyModel(jump_spec=CP_TEST), 7)
        for i in (3, 5, 7):
            assert mom[i] == 0.0

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
        quad_val = self._nu_quadrature(VG_FTSE, 2)
        assert quad_val == pytest.approx(0.023360485912, rel=1e-9)
        assert VG_FTSE.nu_moment(2) == pytest.approx(quad_val, rel=1e-9)
        # cumulant identity: kappa_2 = theta^2 nu + sigma^2
        assert VG_FTSE.nu_moment(2) == pytest.approx(
            VG_FTSE.theta**2 * VG_FTSE.nu + VG_FTSE.sigma**2, rel=1e-12
        )

    def test_vg_higher_moments_vs_quadrature(self):
        for i in (3, 4, 5):
            assert VG_FTSE.nu_moment(i) == pytest.approx(
                self._nu_quadrature(VG_FTSE, i), rel=1e-8
            )

    def test_first_moment_is_mean_rate(self):
        assert VG_FTSE.nu_moment(1) == pytest.approx(VG_FTSE.theta)
        model = LevyModel(jump_spec=CompoundPoisson(3.0, NormalJumps(0.02, 0.05)))
        assert moment_vector(model, 1)[1] == pytest.approx(3.0 * 0.02)

    def test_bad_order(self):
        for spec in (CP_TEST, VG_FTSE):
            for moment in (spec.nu_moment, spec.hedge_moment):
                with pytest.raises(UnsupportedOrderError):
                    moment(0)

    def test_moment_vector_m2_prime(self):
        model = LevyModel(brownian_sigma=0.2, jump_spec=CP_TEST)
        mom = moment_vector(model, 4)
        assert mom.m2_prime == pytest.approx(mom[2] + 0.04)
        assert mom.m2_prime >= mom[2]
        assert mom[2] >= 0 and mom[4] >= 0


class TestHedgeMoments:
    """Moments of the relative jumps dS/S_-, which every hedge formula reads."""

    @staticmethod
    def _relative_quadrature(spec, i):
        # mpmath oracle: the integral of (e^x - 1)^i against the Levy density
        with mpmath.workdps(30):
            c, g, m = (mpmath.mpf(v) for v in spec.cgm())
            up = mpmath.quad(lambda x: mpmath.expm1(x) ** i * c * mpmath.exp(-m * x) / x,
                             [0, mpmath.inf])
            down = mpmath.quad(lambda x: mpmath.expm1(-x) ** i * c * mpmath.exp(-g * x) / x,
                               [0, mpmath.inf])
            return float(up + down)

    @pytest.mark.parametrize("spec", [VG_FTSE, VG_BENCH, VG_NEAR_7, VG_NEAR_3],
                             ids=["ftse", "bench", "m-7=0.61", "m-3=0.12"])
    def test_vg_matches_mpmath_quadrature(self, spec):
        for i in range(1, min(13, math.ceil(spec.cgm()[2]))):
            assert spec.hedge_moment(i) == pytest.approx(self._relative_quadrature(spec, i),
                                                         rel=1e-12, abs=0), i

    @pytest.mark.parametrize("spec", [VG_FTSE, VG_BENCH], ids=["ftse", "bench"])
    def test_vg_first_is_the_martingale_correction(self, spec):
        # integral of (e^x - 1) nu(dx) = ln E[e^X_1] = -omega
        assert spec.hedge_moment(1) == pytest.approx(-spec.martingale_correction(), abs=1e-13)
        # omega through log1p, m_1 with no digit lost between the two sides
        assert spec.hedge_moment(1) == pytest.approx(-spec.martingale_correction(), rel=1e-15,
                                                     abs=0)

    @pytest.mark.parametrize("i", [1, 3, 5])
    def test_vg_gap_between_near_sides_keeps_its_digits(self, i):
        # odd orders integrate I(a) - I(b) in one piece; here b - a = 7e-5
        a, b = 70.0, 70.00007
        with mpmath.workdps(50):
            want = sum((-1) ** (j + 1) * mpmath.binomial(i, j)
                       * (mpmath.log1p(j / mpmath.mpf(a)) - mpmath.log1p(j / mpmath.mpf(b)))
                       for j in range(1, i + 1))
        assert _gamma_gap(a, b, i) == pytest.approx(float(want), rel=1e-13, abs=0)
        assert _gamma_gap(b, a, i) == -_gamma_gap(a, b, i)

    def test_vg_relative_moments_differ_from_log_moments(self):
        # the FTSE values the hedge weights read: 0.01994 against 0.02336
        assert VG_FTSE.hedge_moment(2) == pytest.approx(0.019936477666811, rel=1e-12)
        assert moment_vector(LevyModel(jump_spec=VG_FTSE), 2)[2] == VG_FTSE.hedge_moment(2)

    def test_vg_order_at_or_above_m_raises(self):
        spec = VarianceGamma(theta=0.5, nu=0.5, sigma=0.3)
        _, _, m = spec.cgm()
        assert 3 < m < 4
        assert math.isfinite(spec.hedge_moment(3))
        for i in (4, 5):
            with pytest.raises(UnsupportedOrderError):
                spec.hedge_moment(i)
        # M = 3.001: m_3 exists, but too near M for the rule to hold its digits
        m, nu, sigma = 3.001, 0.5, 0.3
        near = VarianceGamma(theta=(1 / m**2 - sigma**2 * nu / 2) * m / nu, nu=nu, sigma=sigma)
        assert near.cgm()[2] == pytest.approx(m, rel=1e-12)
        assert math.isfinite(near.hedge_moment(2))
        with pytest.raises(UnsupportedOrderError, match="needs min"):
            near.hedge_moment(3)

    def test_compound_poisson_is_the_measure(self):
        for i in range(1, 9):
            assert CP_TEST.hedge_moment(i) == CP_TEST.nu_moment(i)


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
        m1 = model.jump_spec.nu_moment(1)
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
        s_next = 100.0 * relative_factors(model, 1.0, 1, 1, rng)[0, 0]
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
        # a cell with a jump <= -1 has factor 0; one without keeps a positive one
        law = FixedJumps(size=-1.5)
        model = LevyModel(jump_spec=CompoundPoisson(100.0, law))
        rng = np.random.default_rng(1)
        factors, jumps = relative_factors(model, 0.01, 1, 200, rng, records=True)
        hit = np.bincount(jumps.path, minlength=200) > 0
        assert 0 < hit.sum() < 200
        np.testing.assert_array_equal(factors[:, 0] == 0.0, hit)
        assert np.all(factors[~hit, 0] > 0)

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
    VG_REC = LevyModel(drift_b=0.02, jump_spec=VarianceGamma(theta=-0.1, nu=0.2, sigma=0.15,
                                                              truncation_eps=1e-4))

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

    VG_PATHS, VG_YEARS = 2000, 0.25

    def vg_sides(self):
        """The records of one draw of VG_PATHS paths over VG_YEARS, by side:
        (lam, |x|, path) for lam = M upwards and G downwards."""
        _, jumps = relative_factors(self.VG_REC, self.VG_YEARS, 1, self.VG_PATHS,
                                    np.random.default_rng(2), records=True)
        _, g, m = self.VG_REC.jump_spec.cgm()
        x = jumps.size
        return [(lam, np.abs(x[side]), jumps.path[side]) for lam, side in ((m, x > 0), (g, x < 0))]

    def test_vg_record_counts_match_the_series_rates(self):
        spec = self.VG_REC.jump_spec
        c, eps = 1 / spec.nu, spec.truncation_eps
        years = self.VG_PATHS * self.VG_YEARS
        for lam, size, _ in self.vg_sides():
            rate = c * math.log(1 / (lam * eps))
            # each side's count is Poisson with mean rate * years
            assert abs(len(size) - rate * years) < 4 * math.sqrt(rate * years), lam

    def test_vg_record_size_moments_match_the_series(self):
        # sum of |x|^k per year: C (k-1)! (lam^-k - eps^k), per-path SE
        spec = self.VG_REC.jump_spec
        c, eps = 1 / spec.nu, spec.truncation_eps
        n = self.VG_PATHS
        for lam, size, path in self.vg_sides():
            for k in range(1, 5):
                want = c * math.factorial(k - 1) * (lam**-k - eps**k)
                per_path = np.bincount(path, size**k, n) / self.VG_YEARS
                se = per_path.std(ddof=1) / math.sqrt(n)
                assert abs(per_path.mean() - want) < 4 * se, (lam, k)

    def test_vg_record_sizes_follow_the_series_tail(self):
        # P(|x| > a) = (E1(lam a) - E1(a / eps)) / ln(1 / (lam eps)) on each side
        eps = self.VG_REC.jump_spec.truncation_eps
        for lam, size, _ in self.vg_sides():
            log_range = math.log(1 / (lam * eps))
            cdf = lambda a: 1 - (special.exp1(lam * a) - special.exp1(a / eps)) / log_range
            assert stats.kstest(size, cdf).pvalue > 1e-3, lam

    def test_vg_record_sizes_replay_the_draws(self):
        # the sampler's draws: each jump's side, then every U, then every E
        spec = self.VG_REC.jump_spec
        c, g, m = spec.cgm()
        eps = spec.truncation_eps
        rate, sample = spec._truncated()
        up, down = -c * math.log(m * eps), -c * math.log(g * eps)
        assert rate == up + down
        x = sample(np.random.default_rng(5), 1000)
        replay = np.random.default_rng(5)
        negative = replay.random(1000) < down / (up + down)
        lam = np.where(negative, g, m)
        size = (lam * eps) ** replay.random(1000) * replay.standard_exponential(1000) / lam
        np.testing.assert_array_equal(x, np.where(negative, -size, size))

    def test_vg_truncation_must_stay_below_the_decay_scales(self):
        theta, nu, sigma = VG_FTSE.theta, VG_FTSE.nu, VG_FTSE.sigma
        scale = 1 / max(VG_FTSE.cgm()[1:])
        VarianceGamma(theta, nu, sigma, truncation_eps=0.99 * scale)
        with pytest.raises(ValueError, match=r"truncation_eps must be < 1/max\(G, M\)"):
            VarianceGamma(theta, nu, sigma, truncation_eps=1.01 * scale)
        # sigma = 0 has one side only and no (C, G, M); its gamma clock still draws
        one_sided = LevyModel(jump_spec=VarianceGamma(theta, nu, 0.0))
        factors = relative_factors(one_sided, 0.25, 2, 10, np.random.default_rng(0))
        assert np.isfinite(factors).all()
        with pytest.raises(DegenerateModelError, match="sigma = 0"):
            one_sided.jump_spec.cgm()

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


class _ReversedPool:
    """A stand-in pool that runs the chunks one by one, last first."""

    def map(self, fn, items):
        items = list(items)
        return reversed([fn(k) for k in reversed(items)])


def chunk_rows(steps):
    """Rows per chunk of a draw of ``steps`` steps."""
    return max(2, models.CHUNK_CELLS // (2 * steps) * 2)


def draw_bytes(result):
    """The bytes of a draw: its factors and, with records, every record field."""
    arrays = (result[0], *vars(result[1]).values()) if isinstance(result, tuple) else (result,)
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


CHUNK_MODELS = {
    "brownian": LevyModel(drift_b=0.03, brownian_sigma=0.2),
    "cp": LevyModel(drift_b=0.01, brownian_sigma=0.1,
                    jump_spec=CompoundPoisson(30.0, NormalJumps(-0.01, 0.05))),
    "vg": LevyModel(drift_b=0.02, brownian_sigma=0.05, jump_spec=VG_FTSE),
}


class TestChunkedDraw:
    STEPS = 6  # CHUNK_CELLS // 6 is odd: the rows per chunk round down to even
    # three full chunks and an odd, short fourth one
    N_PATHS = 3 * chunk_rows(STEPS) + 5
    DTS = np.array([0.1, 0.05, 0.2, 0.01, 0.1, 0.03])

    @pytest.mark.parametrize("antithetic, records", [(False, False), (True, False),
                                                     (False, True)],
                             ids=["plain", "antithetic", "records"])
    @pytest.mark.parametrize("kind", CHUNK_MODELS)
    def test_same_bits_on_any_pool(self, monkeypatch, kind, antithetic, records):
        def draw():
            return draw_bytes(relative_factors(CHUNK_MODELS[kind], self.DTS, self.STEPS,
                                               self.N_PATHS, np.random.default_rng(7),
                                               antithetic, records))

        results = []
        for pool in (ThreadPoolExecutor(1), ThreadPoolExecutor(2), ThreadPoolExecutor(4),
                     _ReversedPool()):
            monkeypatch.setattr(models, "_POOL", pool)
            results.append(draw())
            if isinstance(pool, ThreadPoolExecutor):
                pool.shutdown()
        assert results[1:] == results[:-1]
        assert draw() == results[0]  # the module's own pool, and a rerun

    # sha256 of the bytes of draws of at most one chunk, taken before the
    # draw was chunked: (model, dt, steps, n_paths, antithetic, records)
    PINNED = {
        "brownian_antithetic_odd": (
            (LevyModel(drift_b=0.03, brownian_sigma=0.2), [0.1, 0.2, 0.05], 3, 1001, True, False),
            "49502efb8e46272bf9d740ed7da99e600fe77396429a8a78b8c878dac84fd455"),
        "cp_records": (
            (CHUNK_MODELS["cp"], 0.1, 4, 999, False, True),
            "69cc38b3d721f9387a68f180f946db87cfb097998866067a49800187fc53052b"),
        "cp_antithetic": (
            (LevyModel(brownian_sigma=0.12, jump_spec=CompoundPoisson(5.0, FixedJumps(-0.03))),
             1.0, 1, 8191, True, False),
            "779c044ea9f490e872ce3979a1c07f01b7b83975ad57fef88c5b0370f07a4534"),
        "vg_clock": (
            (CHUNK_MODELS["vg"], 0.25, 2, 2048, False, False),
            "b2727f4331718be36d8111688071db9a30014aefe714a75001b1343979b84503"),
        "vg_records": (
            (LevyModel(jump_spec=VG_BENCH), 0.01, 1, 200, False, True),
            "20a7824ae368ebaecddd8e933061f64b1bb978ad10dfeadc6453fffd5c73557a"),
    }

    @pytest.mark.parametrize("case", PINNED)
    def test_single_chunk_draw_is_pinned(self, case):
        (model, dt, steps, n_paths, antithetic, records), digest = self.PINNED[case]
        assert n_paths <= chunk_rows(steps)
        result = relative_factors(model, dt, steps, n_paths, np.random.default_rng(20260),
                                  antithetic, records)
        assert hashlib.sha256(draw_bytes(result)).hexdigest() == digest

    def test_chunks_draw_from_the_caller_then_its_spawned_streams(self):
        # chunk 0 from rng, chunk k from rng.spawn(n_chunks - 1)[k - 1]; its
        # records keep their order with paths shifted by the chunk's first row
        model = LevyModel(jump_spec=CompoundPoisson(30.0, NormalJumps(0.01, 0.05)))
        rows = chunk_rows(self.STEPS)
        factors, jumps = relative_factors(model, self.DTS, self.STEPS, self.N_PATHS,
                                          np.random.default_rng(11), records=True)
        rng = np.random.default_rng(11)
        streams = [rng, *rng.spawn(3)]
        cuts = np.searchsorted(jumps.path, np.arange(rows, self.N_PATHS, rows))
        parts = zip(*(np.split(a, cuts) for a in vars(jumps).values()))
        for k, (stream, (path, step, size, time)) in enumerate(zip(streams, parts)):
            start = k * rows
            want_f, want = relative_factors(model, self.DTS, self.STEPS,
                                            min(rows, self.N_PATHS - start), stream,
                                            records=True)
            np.testing.assert_array_equal(factors[start:start + rows], want_f)
            np.testing.assert_array_equal(path, want.path + start)
            for got, expected in ((step, want.step), (size, want.size), (time, want.time)):
                np.testing.assert_array_equal(got, expected)
        cells = jumps.path * self.STEPS + jumps.step
        assert np.all(np.diff(cells) >= 0) and jumps.path[-1] >= 3 * rows
        # sigma = b = 0: each cell's factor is the product of its (1 + J)
        log_jumps = np.bincount(cells, np.log1p(jumps.size), factors.size)
        np.testing.assert_allclose(np.log(factors).ravel(), log_jumps, rtol=1e-12, atol=1e-14)

    def test_antithetic_pairs_mirror_inside_each_chunk(self):
        sigma = 0.2
        model = LevyModel(brownian_sigma=sigma)
        rows = chunk_rows(self.STEPS)
        factors = relative_factors(model, self.DTS, self.STEPS, self.N_PATHS,
                                   np.random.default_rng(3), antithetic=True)
        z = (np.log(factors) + 0.5 * sigma**2 * self.DTS) / (sigma * np.sqrt(self.DTS))
        for start in range(0, self.N_PATHS, rows):
            chunk = z[start:start + rows]
            half = (len(chunk) + 1) // 2
            np.testing.assert_allclose(chunk[half:], -chunk[:len(chunk) - half], atol=1e-12)
        assert len(chunk) % 2 == 1  # the last chunk is odd and drops one mirror
        assert models.CHUNK_CELLS // self.STEPS % 2 == 1  # so odd chunks would show
        # jumps are shared pairwise: with sigma = 0 the mirrored rows repeat
        jumpy = LevyModel(jump_spec=CompoundPoisson(30.0, NormalJumps(0.0, 0.05)))
        factors = relative_factors(jumpy, self.DTS, self.STEPS, self.N_PATHS,
                                   np.random.default_rng(3), antithetic=True)
        for start in range(0, self.N_PATHS, rows):
            chunk = factors[start:start + rows]
            half = (len(chunk) + 1) // 2
            np.testing.assert_array_equal(chunk[half:], chunk[:len(chunk) - half])

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        # callers on more threads than cores race to make the pool and
        # interleave their chunks on it; each still gets its serial draw
        model = CHUNK_MODELS["cp"]
        draw = lambda seed: relative_factors(model, self.DTS, self.STEPS, self.N_PATHS,
                                             np.random.default_rng(seed), records=True)
        monkeypatch.setattr(models, "_POOL", None)
        before = set(threading.enumerate())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6, thread_name_prefix="caller") as callers:
                futures = [callers.submit(draw, seed) for seed in range(6)]
                got = [draw_bytes(f.result(timeout=120)) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        pool = models._POOL
        made = {t.name.rsplit("_", 1)[0] for t in set(threading.enumerate()) - before
                if not t.name.startswith("caller")}
        assert len(made) == 1  # one pool, however the callers raced
        monkeypatch.setattr(models, "_POOL", _ReversedPool())
        assert got == [draw_bytes(draw(seed)) for seed in range(6)]
        pool.shutdown()

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        draw_chunk = models._draw_chunk
        caller = np.random.default_rng(0)

        def failing(model, dts, out, rng, antithetic, records):
            if rng is not caller:
                raise RuntimeError("chunk failed")
            return draw_chunk(model, dts, out, rng, antithetic, records)

        monkeypatch.setattr(models, "_draw_chunk", failing)
        with pytest.raises(RuntimeError, match="chunk failed"):
            relative_factors(CHUNK_MODELS["cp"], self.DTS, self.STEPS, self.N_PATHS, caller)

    FORK_PROBE = """
import os, signal
import numpy as np
from levyhedge.models import LevyModel, relative_factors
model = LevyModel(brownian_sigma=0.1)
before = relative_factors(model, 0.1, 1, 100_000, np.random.default_rng(1))
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a child left with its parent's dead pool would hang
    after = relative_factors(model, 0.1, 1, 100_000, np.random.default_rng(1))
    os._exit(0 if np.array_equal(before, after) else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_on_its_own_pool(self):
        proc = subprocess.run([sys.executable, "-c", self.FORK_PROBE], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["0"]

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, [0.1, math.nan]],
                             ids=["nan", "inf", "-inf", "nan_step"])
    @pytest.mark.parametrize("kind", CHUNK_MODELS)
    def test_non_finite_dt_is_rejected_before_any_draw(self, kind, dt):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^dt must be finite and >= 0$"):
            relative_factors(CHUNK_MODELS[kind], dt, 2, self.N_PATHS, rng)
        assert rng.bit_generator.state == state
        assert rng.bit_generator.seed_seq.n_children_spawned == 0


class TestPowerJumpPath:
    """Y^(i), the compensated sum of (jump size)^i, from the increments
    ``ScenarioOutcome.delta_y`` over the steps of one ``records`` draw."""

    @staticmethod
    def step_outcomes(jumps, n, steps):
        """Each path's per-step outcomes, from records ordered by path and step."""
        cuts = np.searchsorted(jumps.path * steps + jumps.step, np.arange(1, n * steps))
        cells = zip(np.split(jumps.time, cuts), np.split(jumps.size, cuts))
        flat = [ScenarioOutcome(delta_s=0.0, jump_times=t, jump_sizes=x) for t, x in cells]
        return [flat[k * steps:(k + 1) * steps] for k in range(n)]

    def test_no_jumps_is_minus_compensator(self):
        mom = moment_vector(LevyModel(jump_spec=CP_TEST), 2)
        y = ScenarioOutcome(delta_s=0.0).delta_y(2, mom, 1.0)
        assert y == pytest.approx(-mom[2] * 1.0)

    def test_single_jump_bookkeeping(self):
        model = LevyModel(jump_spec=CompoundPoisson(1.0, NormalJumps(0.0, math.sqrt(0.02))))
        mom = moment_vector(model, 2)
        assert mom[2] == pytest.approx(0.02)
        outcome = ScenarioOutcome(delta_s=0.0, jump_times=np.array([0.5]),
                                  jump_sizes=np.array([0.2]))
        assert outcome.delta_y(2, mom, 1.0) == pytest.approx(0.04 - 0.02)

    def test_t_asset_accrual(self):
        state = PathState(t=1.0, y={3: 0.1**3 - CP_TEST.hedge_moment(3)})
        assert state.t_asset(3, 0.05) == pytest.approx(math.exp(0.05) * state.y_value(3))

    def test_bookkeeping_identity_on_simulated_path(self):
        model = LevyModel(drift_b=0.02, brownian_sigma=0.1,
                          jump_spec=CompoundPoisson(20.0, NormalJumps(0.0, 0.05)))
        rng = np.random.default_rng(21)
        times = np.linspace(0, 1, 13)
        _, jumps = relative_factors(model, np.diff(times), 12, 1, rng, records=True)
        assert len(jumps.size) > 5
        mom = moment_vector(model, 4)
        (outcomes,) = self.step_outcomes(jumps, 1, 12)
        for i in (2, 3, 4):
            y = np.concatenate([[0.0], np.cumsum([o.delta_y(i, mom, 1 / 12) for o in outcomes])])
            for idx, t in enumerate(times):
                raw = float(np.sum(jumps.size[jumps.time <= t] ** i))
                assert y[idx] + mom[i] * t == pytest.approx(raw, abs=1e-12)

    def test_zero_mean_martingale(self):
        model = LevyModel(jump_spec=CompoundPoisson(5.0, NormalJumps(0.02, 0.08)))
        rng = np.random.default_rng(2)
        n = 4000
        _, jumps = relative_factors(model, 0.5, 2, n, rng, records=True)
        mom = moment_vector(model, 4)
        paths = self.step_outcomes(jumps, n, 2)
        for i in (2, 3, 4):
            # Y_1^(i) of each path: the sum of its two steps' increments
            vals = np.array([sum(o.delta_y(i, mom, 0.5) for o in steps) for steps in paths])
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean()) < 3 * se, i

    def test_vg_jump_approximation_moments(self):
        # eps-truncated VG jump records reproduce the second moment
        spec = VarianceGamma(theta=-0.1, nu=0.2, sigma=0.15, truncation_eps=1e-4)
        rng = np.random.default_rng(17)
        n = 300
        _, jumps = relative_factors(LevyModel(jump_spec=spec), 1.0, 1, n, rng, records=True)
        sq = np.bincount(jumps.path, jumps.size**2, n)
        m2 = spec.nu_moment(2)
        se = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - m2) < 4 * se + 1e-4
