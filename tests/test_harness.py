import importlib.util
import logging
import math
import pathlib
import re

import numpy as np
import pytest
from scipy.stats import norm

from levyhedge import harness
from levyhedge.config import STRATEGY_NAMES, load_config
from levyhedge.errors import BankruptcyError, ConfigError
from levyhedge.harness import Market, run_converge, run_pnl, run_qtable
from levyhedge.models import log_mean_growth, moment_vector, relative_factors
from levyhedge.pricing import PathBundle, black_scholes_price, payoff
from levyhedge.stencil import build_lookup_table

LEVYBENCH = pathlib.Path(__file__).resolve().parent.parent / "levybench"


def load_levybench(name):
    """A benchmark module loaded from its file, without installing it."""
    spec = importlib.util.spec_from_file_location(f"_levybench_{name}", LEVYBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_oracles():
    """The benchmark's closed-form references (they import nothing from levyhedge)."""
    return load_levybench("oracles")


def test_traced_names_resolve():
    """Every function the benchmark tracer wraps still exists, so a traced
    run survives the removal or renaming of a public name."""
    tracer = load_levybench("tracer")
    spans = set()
    for target in tracer.TRACED:
        module_name, qualname = target.split(":")
        obj = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        for attr in qualname.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), target
        spans.add(f"{module_name}.{qualname}")
    for metric, _, _, names in tracer.LAYER_METRICS:
        assert set(names) <= spans, metric


def base_config(**over):
    raw = {
        "model": {"kind": "compound_poisson", "drift_b": 0.03, "brownian_sigma": 0.12,
                  "intensity": 5.0, "jump_law": {"kind": "normal", "mean": -0.01, "std": 0.04}},
        "options": [{"kind": "european_call", "strike": 5000, "maturity": 1.0}],
        "scenario": {"s0": 5000, "delta_s": [10, 20], "delta_t": 1.0,
                     "r": 0.05, "alpha_tol": 0.01},
        "mc": {"paths": 20000, "steps": 1, "seed": 3},
        "stencil": {"half_width": 8, "p_max": 15, "s_step": 10.0},
    }
    raw.update(over)
    return raw


UP_AND_OUT = {"kind": "up_and_out", "strike": 5000, "maturity": 1.0, "barrier": 5050}


class TestQTable:
    def test_static_kink_profile(self):
        cfg = load_config(base_config())
        header, rows, ok = run_qtable(cfg)
        assert ok
        assert [r[2] for r in rows] == [8, 12]
        assert all(r[3] <= 0.01 for r in rows)

    def test_rows_carry_config_hash(self):
        cfg = load_config(base_config())
        _, rows, _ = run_qtable(cfg)
        assert all(r[-1] == cfg.hash for r in rows)

    def test_unreachable_tolerance_flagged(self):
        raw = base_config()
        raw["scenario"]["delta_s"] = [10, 200]  # far outside the stencil span
        cfg = load_config(raw)
        _, rows, ok = run_qtable(cfg)
        assert not ok
        assert rows[1][2] is None
        assert rows[1][3] > 0.01


class TestMarket:
    def test_expired_values_are_payoffs(self):
        raw = base_config()
        raw["options"].append({"kind": "up_and_out", "strike": 5000, "maturity": 1.0,
                               "barrier": 5050})
        cfg = load_config(raw)  # delta_t equals the maturity
        market = Market(cfg, np.random.default_rng(1))
        assert market.bundle_later is None
        spots = np.array([4990.0, 5020.0, 5060.0, 5020.0])
        for opt in cfg.options:
            want = [float(payoff(opt, np.array([s]))[0]) for s in spots]
            np.testing.assert_array_equal(market.values_later(opt, spots), want)


    @pytest.mark.parametrize("barrier, cells", [
        (False, [0.1, 0.9]),  # a European reads one cell per date
        (True, [0.1, 0.3, 0.3, 0.3]),  # mc.steps is the barrier monitoring grid
    ], ids=["european", "up_and_out"])
    def test_one_draw_nests_the_later_date(self, monkeypatch, barrier, cells):
        draws = []
        real = harness.relative_factors

        def recording(model, dt, *args, **kwargs):
            draws.append((dt, real(model, dt, *args, **kwargs)))
            return draws[-1][1]

        monkeypatch.setattr(harness, "relative_factors", recording)
        raw = base_config()
        raw["scenario"]["delta_t"] = 0.1
        raw["mc"]["steps"] = 4
        if barrier:
            raw["options"].append(dict(UP_AND_OUT))
        market = Market(load_config(raw), np.random.default_rng(2))
        assert len(draws) == 1
        dt, factors = draws[0]
        np.testing.assert_allclose(dt, cells, rtol=1e-15)
        # the valuation-date paths are the post-move paths after the first step
        full, later = market.bundle_full, market.bundle_later
        assert (full.horizon, later.horizon) == (1.0, pytest.approx(0.9, rel=1e-15))
        np.testing.assert_allclose(later.terminal, factors[:, 1:].prod(axis=1), rtol=1e-13)
        np.testing.assert_allclose(full.terminal, factors[:, 0] * later.terminal, rtol=1e-13)

    def test_mixed_maturities_name_the_field(self):
        raw = base_config()
        raw["options"].append({"kind": "european_put", "strike": 5000, "maturity": 0.5})
        with pytest.raises(ConfigError, match=r"'options\[1\]\.maturity'"):
            Market(load_config(raw), np.random.default_rng(0))

    @pytest.mark.parametrize("bankrupt", [False, True])
    def test_bankrupt_paths_are_logged(self, caplog, bankrupt):
        raw = base_config()
        raw["scenario"]["delta_t"] = 0.5
        raw["mc"] = {"paths": 5000, "steps": 2, "seed": 1}
        if bankrupt:  # a jump <= -1 has probability 2.3% per jump
            raw["model"]["jump_law"] = {"kind": "normal", "mean": 0.0, "std": 0.5}
        with caplog.at_level(logging.INFO, logger="levyhedge.harness"):
            market = Market(load_config(raw), np.random.default_rng(0))
        records = [r for r in caplog.records if r.name == "levyhedge.harness"]
        assert [r.getMessage().split(":")[0] for r in records] == [
            "valuation-date bundle", "post-move-date bundle"]
        for record, bundle in zip(records, (market.bundle_full, market.bundle_later)):
            assert (bundle.n_bankrupt > 0) == bankrupt
            assert record.levelno == (logging.WARNING if bankrupt else logging.INFO)
            assert f"{bundle.n_bankrupt} of 5000 paths" in record.getMessage()

    def test_d1_is_not_monte_carlo_noise(self):
        # Brownian call S = K = 5000, T = 0.25, sigma = 0.2, dt = 0.002,
        # 1e5 paths: two independent 50-step bundles gave d1 a sd of 601
        # over seeds 0..7 around a Black-Scholes dF/dt of -524 (the shared
        # draw of a European market is one cell per date)
        s0, sigma, r, t_mat, dt = 5000.0, 0.2, 0.05, 0.25, 0.002
        raw = {
            "model": {"kind": "brownian", "drift_b": r, "brownian_sigma": sigma},
            "option": {"kind": "european_call", "strike": s0, "maturity": t_mat},
            "scenario": {"s0": s0, "delta_s": [10.0], "delta_t": dt, "r": r},
            "mc": {"paths": 100_000, "steps": 50},
            "stencil": {"half_width": 2, "p_max": 2, "s_step": 10.0},
        }
        cfg = load_config(raw)
        table = build_lookup_table(cfg.half_width, cfg.p_max)
        d1 = np.array([
            Market(cfg, np.random.default_rng(seed)).ladder(cfg.options[0], table)[0].d1
            for seed in range(8)
        ])
        d_plus = (math.log(s0 / s0) + (r + 0.5 * sigma**2) * t_mat) / (sigma * math.sqrt(t_mat))
        d_minus = d_plus - sigma * math.sqrt(t_mat)
        theta = (-s0 * norm.pdf(d_plus) * sigma / (2 * math.sqrt(t_mat))
                 - r * s0 * math.exp(-r * t_mat) * norm.cdf(d_minus))
        assert theta == pytest.approx(-524, abs=1)
        sd = d1.std(ddof=1)
        assert sd <= 601 / 5
        assert abs(d1.mean() - theta) <= 3 * sd / math.sqrt(len(d1))


class TestStepsGrid:
    """``mc.steps`` is the barrier monitoring grid: a European market draws
    one cell per date, so its runs do not depend on it."""

    @staticmethod
    def csv_text(tmp_path, name, cfg, header, rows):
        """The CSV a run writes, with its config hash (which names mc.steps) masked."""
        path = tmp_path / name
        harness.write_csv(path, header, rows)
        return path.read_text().replace(cfg.hash, "<hash>")

    def qtable_csv(self, tmp_path, steps, delta_t=0.1, barrier=False):
        raw = base_config()
        raw["scenario"]["delta_t"] = delta_t
        raw["mc"]["steps"] = steps
        if barrier:
            raw["options"].append(dict(UP_AND_OUT))
        cfg = load_config(raw)
        header, rows, _ = run_qtable(cfg)
        return self.csv_text(tmp_path, f"q{steps}.csv", cfg, header, rows)

    @pytest.mark.parametrize("delta_t", [0.1, 1.0])  # cells [dt, T - dt], or [T]
    def test_european_qtable_ignores_steps(self, tmp_path, delta_t):
        csv = [self.qtable_csv(tmp_path, steps, delta_t) for steps in (1, 5, 50)]
        assert csv[0] == csv[1] == csv[2]

    def test_barrier_qtable_reads_steps(self, tmp_path):
        assert self.qtable_csv(tmp_path, 1, barrier=True) != \
            self.qtable_csv(tmp_path, 5, barrier=True)

    def test_european_pnl_ignores_steps(self, tmp_path):
        texts = []
        for steps in (1, 5, 50):
            raw = base_config()
            raw["options"] = [{"kind": "european_call", "strike": 5000, "maturity": 0.25}]
            raw["scenario"] = {"s0": 5000, "delta_s": [10.0], "delta_t": 0.01,
                               "r": 0.05, "alpha_tol": 0.01}
            raw["mc"] = {"paths": 20000, "steps": steps, "seed": 5}
            raw["stencil"] = {"half_width": 4, "p_max": 5, "s_step": 10.0}
            raw["strategies"] = ["taylor+swaps", "minvar", "delta", "moment-neutral"]
            raw["pnl"] = {"n_scenarios": 50, "q": 3, "neutral_strikes": [4900, 5100],
                          "swap": {"strike": 0.002, "unit_price": 0.002}}
            cfg = load_config(raw)
            header, rows, sum_header, summaries = run_pnl(cfg)
            texts.append((self.csv_text(tmp_path, "pnl.csv", cfg, header, rows),
                          self.csv_text(tmp_path, "pnl.csv.summary", cfg, sum_header,
                                        summaries)))
        assert texts[0] == texts[1] == texts[2]

    @pytest.mark.parametrize("delta_t", [0.1, 0.4])
    def test_two_cell_prices_match_black_scholes(self, delta_t):
        s0, sigma, r, t_mat = 5000.0, 0.2, 0.05, 0.5
        raw = {
            "model": {"kind": "brownian", "drift_b": r, "brownian_sigma": sigma},
            "options": [{"kind": "european_call", "strike": 5000, "maturity": t_mat},
                        {"kind": "european_put", "strike": 5200, "maturity": t_mat}],
            "scenario": {"s0": s0, "delta_s": [10.0], "delta_t": delta_t, "r": r},
            "mc": {"paths": 50_000, "steps": 20, "seed": 8},
            "stencil": {"half_width": 2, "p_max": 2, "s_step": 10.0},
        }
        cfg = load_config(raw)
        market = Market(cfg, np.random.default_rng(cfg.seed))
        for opt in cfg.options:
            for bundle in (market.bundle_full, market.bundle_later):
                price, se = bundle.price(opt, s0, r)
                want = black_scholes_price(s0, opt.strike, bundle.horizon, r, sigma,
                                           kind=opt.kind)
                assert abs(price - want) <= 3 * se

    @pytest.mark.parametrize("model", [
        {"kind": "compound_poisson", "drift_b": 0.03, "brownian_sigma": 0.12,
         "intensity": 50.0, "jump_law": {"kind": "normal", "mean": -0.005, "std": 0.02}},
        {"kind": "variance_gamma", "theta": -0.05, "nu": 0.01, "vg_sigma": 0.2,
         "drift_b": "risk_neutral"},
    ], ids=["cp", "vg"])
    def test_two_cell_terminal_mean_matches_the_model(self, model):
        raw = {
            "model": model,
            "option": {"kind": "european_call", "strike": 5000, "maturity": 0.25},
            "scenario": {"s0": 5000, "delta_s": [10.0], "delta_t": 0.01, "r": 0.05},
            "mc": {"paths": 50_000, "steps": 5, "seed": 9},
            "stencil": {"half_width": 4, "p_max": 7, "s_step": 10.0},
        }
        cfg = load_config(raw)
        market = Market(cfg, np.random.default_rng(cfg.seed))
        growth = log_mean_growth(cfg.model)
        for bundle in (market.bundle_full, market.bundle_later):
            f = bundle.terminal
            se = f.std(ddof=1) / math.sqrt(len(f))
            assert abs(f.mean() - math.exp(growth * bundle.horizon)) <= 4 * se

    @pytest.mark.parametrize("barrier", [False, True])
    def test_unused_steps_are_logged(self, caplog, barrier):
        raw = base_config()
        raw["scenario"]["delta_t"] = 0.1
        raw["mc"]["steps"] = 5
        if barrier:
            raw["options"].append(dict(UP_AND_OUT))
        with caplog.at_level(logging.INFO, logger="levyhedge.harness"):
            Market(load_config(raw), np.random.default_rng(0))
        records = [r for r in caplog.records
                   if r.name == "levyhedge.harness" and "mc.steps" in r.getMessage()]
        if barrier:
            assert not records
        else:
            assert len(records) == 1
            assert records[0].levelno == logging.INFO
            assert "no option monitors a barrier" in records[0].getMessage()


class TestConverge:
    def test_payoff_curve_rows(self):
        raw = base_config()
        raw["scenario"]["delta_s"] = [20.0]
        cfg = load_config(raw)
        header, rows = run_converge(cfg)
        assert len(rows) == 15
        # symmetric stencil on the at-the-money payoff kink
        assert rows[0][1] == pytest.approx(0.5, abs=1e-12)
        # cumulative settles on the repriced change (floor set by truncating
        # the reconstruction at p_max = 15 two cells from the kink)
        assert abs(rows[-1][2] - rows[-1][3]) < 1e-3

    def test_requires_single_option(self):
        raw = base_config()
        raw["scenario"]["delta_s"] = [10, 20]
        with pytest.raises(ValueError):
            run_converge(load_config(raw))

    def test_several_moves_name_the_field(self):
        raw = base_config()
        with pytest.raises(ConfigError, match=r"'scenario\.delta_s' holds 2 moves"):
            run_converge(load_config(raw))

    def test_several_options_name_the_field(self):
        raw = base_config()
        raw["scenario"]["delta_s"] = [20.0]
        raw["options"].append({"kind": "european_put", "strike": 5000, "maturity": 1.0})
        with pytest.raises(ConfigError, match=r"'options' holds 2 options"):
            run_converge(load_config(raw))


class TestPnl:
    def pnl_config(self, strategies, **over):
        raw = base_config()
        raw["strategies"] = strategies
        raw["stencil"] = {"half_width": 4, "p_max": 5, "s_step": 10.0}
        raw["scenario"] = {"s0": 5000, "delta_s": [10.0], "delta_t": 0.002,
                           "r": 0.05, "alpha_tol": 0.01}
        raw["option"] = {"kind": "european_call", "strike": 5000, "maturity": 0.25}
        raw.pop("options", None)
        raw["mc"] = {"paths": 30000, "steps": 5, "seed": 5}
        raw["pnl"] = {"n_scenarios": 400, "q": 4,
                      "swap": {"strike": 0.002, "unit_price": 0.002}}
        raw["pnl"].update(over)
        return load_config(raw)

    @pytest.mark.parametrize("model", [
        {"kind": "compound_poisson", "intensity": 50.0,
         "jump_law": {"kind": "normal", "mean": -0.005, "std": 0.02}},
        {"kind": "variance_gamma", "theta": -0.05, "nu": 0.01, "vg_sigma": 0.2},
    ], ids=["cp", "vg"])
    def test_outcomes_carry_relative_jumps(self, model):
        # the strategies see dS/S_- per jump: J itself, or e^x - 1 of a VG log-jump x
        cfg = load_config(dict(self.pnl_config(["delta"]).raw, model=model))
        outcomes = harness._simulate_outcomes(cfg, np.random.default_rng(3))
        _, jumps = relative_factors(cfg.model, cfg.delta_t, 1, cfg.n_scenarios,
                                    np.random.default_rng(3), records=True)
        sizes = jumps.size[np.lexsort((jumps.time, jumps.path))]
        want = np.expm1(sizes) if model["kind"] == "variance_gamma" else sizes
        assert len(want) > 10
        np.testing.assert_array_equal(np.concatenate([o.jump_sizes for o in outcomes]), want)

    def test_taylor_swaps_residual_bounded(self):
        cfg = self.pnl_config(["taylor+swaps"])
        header, rows, sum_header, summaries = run_pnl(cfg)
        assert len(rows) == 400
        resid = np.array([r[3] for r in rows])
        ds = np.array([r[2] for r in rows])
        assert np.all(np.isfinite(resid))
        # the swap ledger change IS the truncated Taylor sum, so per scenario
        # the residual obeys the remainder bound from the remaining computed
        # terms, plus a small allowance for the stencil's own truncation
        rng = np.random.default_rng(cfg.seed)
        table = build_lookup_table(cfg.half_width, cfg.p_max)
        market = Market(cfg, rng)
        ladder, _, _ = market.ladder(cfg.options[0], table)
        q = 4
        # the remainder argument holds in the interpolation interior; near
        # the span edge (and beyond it) the ladder cannot see the curve
        span = 0.75 * cfg.half_width * cfg.s_step
        checked = 0
        for d, r_val in zip(ds, resid):
            if abs(d) > span:
                continue
            bound = sum(
                abs(ladder.derivative(i)) * abs(d) ** i / math.factorial(i)
                for i in range(q + 1, cfg.p_max + 1)
            )
            assert abs(r_val) <= bound + 0.05, (d, r_val, bound)
            checked += 1
        assert checked > 250

    def test_minvar_beats_naive_delta(self):
        # q = 2: the S^{i-1} scaling in the weights makes orders past the
        # gamma term hypersensitive to MC noise in the ladder.  The residual
        # sd ratio is about 0.97, and a run's 400 scenarios lose about half
        # the time, as their sample Cov(dS^2, dS) is noisy; so both
        # strategies are marked on 400000 moves drawn after the run's
        # market, where the variance minvar removes is positive by more
        # than 3.9 SE for every mc seed 0..19.
        cfg = self.pnl_config(["minvar", "delta"], q=2)
        rng = np.random.default_rng(cfg.seed)
        table = build_lookup_table(cfg.half_width, cfg.p_max)
        market = Market(cfg, rng)
        opt = cfg.options[0]
        ladder, price_t, _ = market.ladder(opt, table)
        n = 400_000
        moves = cfg.s0 * (relative_factors(cfg.model, cfg.delta_t, 1, n, rng)[:, 0] - 1.0)
        exact = market.values_later(opt, cfg.s0 + moves) - price_t
        book = harness._Book(cfg=cfg, market=market, table=table, ladder=ladder,
                             moments=moment_vector(cfg.model, 4), scenario=None,
                             coeffs={2: ladder.derivative(2) / 2}, outcomes=(), moves=moves)
        minvar, delta = (exact - harness._STRATEGIES[name](book) for name in ("minvar", "delta"))
        gain = (delta - delta.mean()) ** 2 - (minvar - minvar.mean()) ** 2
        assert gain.mean() > 3 * gain.std(ddof=1) / math.sqrt(n)

    def test_pja_counts_regime_violations(self):
        cfg = self.pnl_config(["taylor+pja"])
        raw = dict(cfg.raw)
        raw["model"] = {"kind": "compound_poisson", "drift_b": 0.03,
                        "brownian_sigma": 0.05, "intensity": 800.0,
                        "jump_law": {"kind": "normal", "mean": 0.0, "std": 0.02}}
        cfg = load_config(raw)
        _, rows, _, summaries = run_pnl(cfg)
        assert summaries[0][3] > 0  # multi-jump periods observed and counted

    def test_zero_volatility_residuals_vanish(self):
        raw = {
            "model": {"kind": "brownian", "drift_b": 0.05, "brownian_sigma": 0.0},
            "option": {"kind": "european_call", "strike": 4900, "maturity": 0.25},
            "scenario": {"s0": 5000, "delta_s": [1.0], "delta_t": 0.002,
                         "r": 0.05, "alpha_tol": 0.01},
            "mc": {"paths": 1000, "steps": 2, "seed": 1},
            "stencil": {"half_width": 4, "p_max": 5, "s_step": 5.0},
            "strategies": ["taylor+swaps"],
            "pnl": {"n_scenarios": 50, "q": 3,
                    "swap": {"strike": 0.0, "unit_price": 0.0}},
        }
        _, rows, _, summaries = run_pnl(load_config(raw))
        resid = np.array([r[3] for r in rows])
        assert np.max(np.abs(resid)) < 1e-6

    def test_moment_neutral_strategy(self):
        cfg = self.pnl_config(["moment-neutral"], neutral_strikes=[4950.0, 5000.0, 5050.0])
        _, rows, _, summaries = run_pnl(cfg)
        resid = np.array([r[3] for r in rows])
        assert np.all(np.isfinite(resid))
        # neutralized book: residual spread well below the naive delta book
        cfg_delta = self.pnl_config(["delta"])
        _, _, _, s_delta = run_pnl(cfg_delta)
        assert summaries[0][2] < 5 * s_delta[0][2]

    def test_minvar_varswap_strategy_runs(self):
        cfg = self.pnl_config(["minvar+varswap", "delta"], q=4)
        _, rows, _, summaries = run_pnl(cfg)
        by = {s[0]: s for s in summaries}
        assert "minvar+varswap" in by
        resid = np.array([r[3] for r in rows if r[1] == "minvar+varswap"])
        assert np.all(np.isfinite(resid))

    def test_scenarios_priced_once_per_run(self, monkeypatch):
        values_calls, price_calls = [], []
        real_values, real_price = PathBundle.values, PathBundle.price

        def counting_values(self, option, spots, r):
            values_calls.append((option, len(spots)))
            return real_values(self, option, spots, r)

        def counting_price(self, option, s0, r):
            price_calls.append(option)
            return real_price(self, option, s0, r)

        monkeypatch.setattr(PathBundle, "values", counting_values)
        monkeypatch.setattr(PathBundle, "price", counting_price)
        strikes = [4950.0, 5050.0]
        for strategies in (["delta"], list(STRATEGY_NAMES)):
            values_calls.clear()
            price_calls.clear()
            cfg = self.pnl_config(strategies, neutral_strikes=strikes)
            run_pnl(cfg)
            main = cfg.options[0]
            # the main option: its stencil curve, then every scenario spot at once
            assert [n for opt, n in values_calls if opt is main] == [
                2 * cfg.half_width + 1, cfg.n_scenarios]
            # one valuation-date price per option hedged or traded, none per scenario
            n_instruments = len(strikes) if "moment-neutral" in strategies else 0
            assert len(price_calls) == 1 + n_instruments
            assert len(values_calls) == 2 * (1 + n_instruments)

    def test_bankrupt_scenarios_raise(self):
        # every jump is -1: the market prices the 39% of its paths that jump by maturity
        # at zero, while about 18% of the scenarios jump within delta_t = 0.1, and no
        # hedge is defined past default
        raw = dict(self.pnl_config(["delta"]).raw,
                   model={"kind": "compound_poisson", "intensity": 2.0,
                          "jump_law": {"kind": "fixed", "size": -1.0}},
                   mc={"paths": 2000, "seed": 5})
        raw["scenario"] = dict(raw["scenario"], delta_t=0.1)
        with pytest.raises(BankruptcyError) as exc:
            run_pnl(load_config(raw))
        match = re.fullmatch(r"(\d+) of 400 scenarios hit a jump <= -1", str(exc.value))
        assert match, str(exc.value)
        p = 1 - math.exp(-2.0 * 0.1)
        assert abs(int(match[1]) - 400 * p) < 5 * math.sqrt(400 * p * (1 - p))

    def test_several_options_name_the_field(self):
        cfg = self.pnl_config(["delta"])
        raw = dict(cfg.raw)
        raw.pop("option")
        raw["options"] = [{"kind": "european_call", "strike": k, "maturity": 0.25}
                          for k in (4950, 5050)]
        with pytest.raises(ConfigError, match=r"'options' holds 2 options; a pnl run"):
            run_pnl(load_config(raw))

    @pytest.mark.parametrize("kind", ["brownian", "compound_poisson", "variance_gamma"])
    def test_scenario_moves_match_the_model(self, kind):
        # closed-form one-period moments of dS = s0 (f - 1) under each model
        oracles = load_oracles()
        s0, dt, r, n = 5000.0, 0.01, 0.05, 4000
        if kind == "brownian":
            model = {"kind": "brownian", "drift_b": 0.03, "brownian_sigma": 0.12}
            factor = oracles.cp_factor_moments(0.03, 0.12, 0.0, 0.0, 0.0, dt)
        elif kind == "compound_poisson":
            model = {"kind": "compound_poisson", "drift_b": 0.03, "brownian_sigma": 0.12,
                     "intensity": 50.0,
                     "jump_law": {"kind": "normal", "mean": -0.005, "std": 0.02}}
            factor = oracles.cp_factor_moments(0.03, 0.12, 50.0, -0.005, 0.02, dt)
        else:
            model = {"kind": "variance_gamma", "theta": -0.05, "nu": 0.01, "vg_sigma": 0.2,
                     "drift_b": "risk_neutral"}
            b = oracles.vg_risk_neutral_drift(r, 0.0, -0.05, 0.01, 0.2)
            factor = oracles.vg_factor_moments(b, -0.05, 0.01, 0.2, dt)
        raw = {
            "model": model,
            "option": {"kind": "european_call", "strike": s0, "maturity": 0.25},
            "scenario": {"s0": s0, "delta_s": [10.0], "delta_t": dt, "r": r},
            "mc": {"paths": 2000, "steps": 2, "seed": 4},
            "stencil": {"half_width": 4, "p_max": 5, "s_step": 10.0},
            "strategies": ["delta"],
            "pnl": {"n_scenarios": n, "q": 2},
        }
        _, rows, _, _ = run_pnl(load_config(raw))
        moves = [row[2] for row in rows]
        z_mean, z_var, _, _ = oracles.moment_z_scores(moves, *oracles.move_moments(s0, factor))
        assert abs(z_mean) <= 4
        assert abs(z_var) <= 4
        if kind == "variance_gamma":  # the truncated measure's jumps are recorded
            assert np.mean([row[4] for row in rows]) > 10

    def test_moves_outside_the_stencil_span_are_logged(self, caplog):
        cfg = self.pnl_config(["delta"])
        with caplog.at_level(logging.WARNING, logger="levyhedge.harness"):
            _, rows, _, _ = run_pnl(cfg)
        span = cfg.half_width * cfg.s_step
        outside = sum(abs(r[2]) > span for r in rows)
        assert 0 < outside < len(rows)
        records = [r for r in caplog.records if r.name == "levyhedge.harness"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert records[0].getMessage().startswith(f"{outside} of {len(rows)} scenario moves")

    def test_moves_inside_the_stencil_span_log_nothing(self, caplog):
        raw = base_config()
        raw["scenario"] = {"s0": 5000, "delta_s": [10.0], "delta_t": 0.002,
                           "r": 0.05, "alpha_tol": 0.01}
        raw["options"] = [{"kind": "european_call", "strike": 5000, "maturity": 0.25}]
        raw["model"] = {"kind": "brownian", "drift_b": 0.05, "brownian_sigma": 0.01}
        raw["stencil"] = {"half_width": 4, "p_max": 5, "s_step": 10.0}
        raw["strategies"] = ["delta"]
        raw["pnl"] = {"n_scenarios": 50, "q": 2}
        with caplog.at_level(logging.WARNING, logger="levyhedge.harness"):
            run_pnl(load_config(raw))
        assert not [r for r in caplog.records if r.name == "levyhedge.harness"]


def _reference_fmt(value) -> str:
    """The isinstance chain the CSV cells were formatted by before the type table."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return harness.FLOAT_FMT.format(float(value))
    return str(value)


def test_csv_cells_match_the_reference_format(tmp_path):
    class Label(str):
        pass

    row = (-0.0, float("nan"), float("inf"), -float("inf"), 1e-300, 5e-324, 0.1 + 0.2,
           np.float64(-2.5e-7), np.float32(1.1), np.float16(0.5), np.int64(-7), np.uint8(200),
           np.int32(3), 12345678901234567890, True, False, np.bool_(True), np.bool_(False),
           None, "european_call", Label("taylor+pja"), 7)
    assert [harness._fmt(v) for v in row] == [_reference_fmt(v) for v in row]
    path = tmp_path / "row.csv"
    harness.write_csv(path, [f"c{k}" for k in range(len(row))], [row, row[::-1]])
    body = path.read_text().splitlines()[1:]
    assert body == [",".join(map(_reference_fmt, r)) for r in (row, row[::-1])]
