import copy
import dataclasses
import hashlib
import importlib.util
import json
import logging
import math
import pathlib
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import norm

from levyhedge import harness
from levyhedge.cli import main as cli_main
from levyhedge.config import STRATEGY_NAMES, load_config
from levyhedge.errors import BankruptcyError, ConfigError
from levyhedge.harness import Market, run_converge, run_pnl, run_qtable
from levyhedge.jump_baskets import PathState, ScenarioOutcome, pja_basket_general
from levyhedge.models import moment_vector, relative_factors
from levyhedge.pricing import (
    DerivativeLadder,
    PathBundle,
    payoff,
    price_curve,
)
from levyhedge.stencil import stencil_coefficient
from levyhedge.swaps import RealizedHistory, SwapSpec, moment_swap_basket
from levyhedge.taylor import HedgeScenario, assemble_ledger, taylor_sums

from conftest import black_scholes_price

LEVYBENCH = pathlib.Path(__file__).resolve().parent.parent / "levybench"


def load_levybench(name):
    """A benchmark module loaded from its file, without installing it."""
    spec = importlib.util.spec_from_file_location(f"_levybench_{name}", LEVYBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
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


class TestReferenceColumn:
    """``q_reference`` is filled only on the contract and stencil the
    reference table describes, and only for moves of exactly 10..70."""

    CANONICAL = dict(
        options=[{"kind": "european_call", "strike": 5000, "maturity": 1.0},
                 {"kind": "up_and_out", "strike": 5000, "maturity": 1.0, "barrier": 5050},
                 {"kind": "down_and_in", "strike": 5000, "maturity": 1.0, "barrier": 4950}],
        scenario={"s0": 5000, "delta_s": [10, 20, 20.5, 70, 80], "delta_t": 1.0,
                  "r": 0.05, "alpha_tol": 0.01},
        stencil={"half_width": 20, "p_max": 39, "s_step": 10.0},
    )

    def refs(self, **over):
        raw = base_config(**copy.deepcopy(self.CANONICAL))
        for block, values in over.items():
            if isinstance(raw[block], dict):
                raw[block].update(values)
            else:
                raw[block] = values
        _, rows, _ = run_qtable(load_config(raw))
        return [(kind, ds, ref) for kind, ds, _, _, ref, _ in rows]

    def test_canonical_rows_carry_the_reference(self):
        got = self.refs()
        want = [(kind, ds, harness.REFERENCE_Q[(kind, int(ds))] if ds in (10, 20, 70) else None)
                for kind in ("european_call", "up_and_out", "down_and_in")
                for ds in (10, 20, 20.5, 70, 80)]
        assert got == want

    @pytest.mark.parametrize("over", [
        {"scenario": {"delta_t": 0.1}, "mc": {"paths": 1000}},
        {"scenario": {"alpha_tol": 0.02}},
        {"scenario": {"s0": 5001}},
        {"stencil": {"half_width": 6, "p_max": 11}},
        {"stencil": {"p_max": 38}},
        {"stencil": {"s_step": 5.0}},
    ], ids=["live", "tolerance", "spot", "half_width", "p_max", "s_step"])
    def test_another_contract_or_stencil_gets_none(self, over):
        assert [ref for *_, ref in self.refs(**over)] == [None] * 15

    def test_another_strike_or_barrier_gets_none(self):
        options = [{"kind": "european_call", "strike": 4000, "maturity": 1.0},
                   {"kind": "up_and_out", "strike": 5000, "maturity": 1.0, "barrier": 5100},
                   {"kind": "down_and_in", "strike": 5000, "maturity": 1.0, "barrier": 4900}]
        assert [ref for *_, ref in self.refs(options=options)] == [None] * 15


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

    def test_ladders_leave_full_integer_rows_unmade(self):
        # a float-only run reads the table's float rows, made from its half rows
        cfg = load_config(base_config())
        market = Market(cfg, np.random.default_rng(1))
        for opt in cfg.options:
            assert market.ladder(opt)[0].order() == cfg.p_max
        assert "entries" not in market.table.__dict__

    def test_one_expiry_rule(self):
        # any remaining maturity > 0 is live, for Market as for price_curve:
        # an at-the-money call 1e-15 before expiry is worth more than its
        # payoff of 0
        raw = base_config()
        raw["scenario"]["delta_t"] = 1.0 - 1e-15
        cfg = load_config(raw)
        opt = cfg.options[0]
        market = Market(cfg, np.random.default_rng(1))
        assert market.bundle_later is not None
        assert market.values_later(opt, [cfg.s0])[0] > 0.0
        prices, _ = price_curve(cfg.model, opt, [cfg.s0], cfg.r, t=cfg.delta_t, n_paths=5000,
                                seed=1)
        assert prices[0] > 0.0
        assert payoff(opt, np.array([cfg.s0]))[0] == 0.0

    @pytest.mark.parametrize("barrier, valuation_date, cells", [
        (False, True, [0.1, 0.9]),  # a European reads one cell per date
        (True, True, [0.1, 0.3, 0.3, 0.3]),  # mc.steps is the barrier monitoring grid
        (False, False, [0.9]),  # pnl and qtable markets draw the post-move cells alone
        (True, False, [0.3, 0.3, 0.3]),
    ], ids=["european", "up_and_out", "european_post_move", "up_and_out_post_move"])
    def test_one_draw_nests_the_later_date(self, monkeypatch, barrier, valuation_date, cells):
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
        market = Market(load_config(raw), np.random.default_rng(2), valuation_date)
        assert len(draws) == 1
        dt, factors = draws[0]
        np.testing.assert_allclose(dt, cells, rtol=1e-15)
        later = market.bundle_later
        assert later.horizon == pytest.approx(0.9, rel=1e-15)
        np.testing.assert_allclose(later.terminal, factors[:, int(valuation_date):].prod(axis=1),
                                   rtol=1e-13)
        if not valuation_date:
            assert market.bundle_full is None
            return
        # the valuation-date paths are the post-move paths after the first step
        full = market.bundle_full
        assert full.horizon == 1.0
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
        cfg = load_config(raw)
        # a pnl or qtable market logs its post-move bundle alone, a converge
        # market both dates
        for valuation_date, dates in ((False, ["post-move-date bundle"]),
                                      (True, ["valuation-date bundle", "post-move-date bundle"])):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="levyhedge.harness"):
                market = Market(cfg, np.random.default_rng(0), valuation_date)
            records = [r for r in caplog.records if r.name == "levyhedge.harness"]
            assert [r.getMessage().split(":")[0] for r in records] == dates
            bundles = [b for b in (market.bundle_full, market.bundle_later) if b is not None]
            assert len(bundles) == len(dates)
            for record, bundle in zip(records, bundles):
                assert (bundle.n_bankrupt > 0) == bankrupt
                assert record.levelno == (logging.WARNING if bankrupt else logging.INFO)
                assert f"{bundle.n_bankrupt} of 5000 paths" in record.getMessage()

    def test_d1_is_not_monte_carlo_noise(self, monkeypatch):
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
        d1 = []  # the d1 of the ladder each converge run sums
        real = harness.taylor_sums
        monkeypatch.setattr(harness, "taylor_sums",
                            lambda ladder, *args: d1.append(ladder.d1) or real(ladder, *args))
        for seed in range(8):
            run_converge(load_config(dict(raw, mc=dict(raw["mc"], seed=seed))))
        d1 = np.array(d1)
        d_plus = (math.log(s0 / s0) + (r + 0.5 * sigma**2) * t_mat) / (sigma * math.sqrt(t_mat))
        d_minus = d_plus - sigma * math.sqrt(t_mat)
        theta = (-s0 * norm.pdf(d_plus) * sigma / (2 * math.sqrt(t_mat))
                 - r * s0 * math.exp(-r * t_mat) * norm.cdf(d_minus))
        assert theta == pytest.approx(-524, abs=1)
        sd = d1.std(ddof=1)
        assert sd <= 601 / 5
        assert abs(d1.mean() - theta) <= 3 * sd / math.sqrt(len(d1))


class TestExpiredPostMoveDate:
    """With delta_t = T the post-move curve is the payoff: a market draws
    nothing unless asked at construction for the valuation date, which only
    converge asks for."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """The ``records`` flag of every factor draw the harness makes."""
        calls = []
        real = harness.relative_factors

        def recording(*args, **kwargs):
            calls.append(kwargs.get("records", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "relative_factors", recording)
        return calls

    def test_the_valuation_date_is_drawn_once_on_request(self, draws, caplog):
        cfg = load_config(base_config())
        with caplog.at_level(logging.INFO, logger="levyhedge.harness"):
            market = Market(cfg, np.random.default_rng(4))
        assert draws == []
        assert [r.getMessage() for r in caplog.records] == [
            "post-move date is expiry: its curve is the payoff, and no paths were drawn for it"]
        assert market.bundle_full is None and market.bundle_later is None
        market = Market(cfg, np.random.default_rng(4), valuation_date=True)
        assert draws == [False]
        assert market.bundle_later is None
        factors = relative_factors(cfg.model, np.array([1.0]), 1, cfg.n_paths,
                                   np.random.default_rng(4), cfg.antithetic)
        np.testing.assert_array_equal(market.bundle_full.terminal, factors[:, 0])

    def test_converge_draws_once(self, draws):
        raw = base_config()
        raw["scenario"]["delta_s"] = [20.0]
        header, rows = run_converge(load_config(raw))
        assert draws == [False]
        assert rows[0][4] > 0.0  # the valuation-date price

    # sha256 of the pnl CSV and summary below, config hash masked
    PNL_EXPIRED_DIGESTS = (
        "d62e74780f6177a97ab69b0247cd51dab4f77c9fd9155a6de87e197b374d18f5",
        "c363c7302fd81f6782754271953b79537bd4e44f2ae922667f1fbbfd7a9ec4b8",
    )

    def test_pnl_draws_only_the_scenarios(self, draws, tmp_path):
        raw = {
            "model": base_config()["model"],
            "option": {"kind": "european_call", "strike": 5000, "maturity": 0.01},
            "scenario": {"s0": 5000, "delta_s": [10.0], "delta_t": 0.01, "r": 0.05,
                         "alpha_tol": 0.01},
            "mc": {"paths": 4000, "steps": 2, "seed": 4},
            "stencil": {"half_width": 4, "p_max": 7, "s_step": 20.0},
            "strategies": ["taylor+swaps", "taylor+pja", "minvar", "minvar+varswap", "delta"],
            "pnl": {"n_scenarios": 40, "q": 4, "swap": {"strike": 0.002, "unit_price": 0.002}},
        }
        cfg = load_config(raw)
        header, rows, sum_header, summaries = run_pnl(cfg)
        assert draws == [True]
        digests = []
        for name, head, body in (("p.csv", header, rows), ("p.csv.summary", sum_header,
                                                           summaries)):
            harness.write_csv(tmp_path / name, head, body)
            text = (tmp_path / name).read_text().replace(cfg.hash, "<hash>")
            digests.append(hashlib.sha256(text.encode()).hexdigest())
        assert tuple(digests) == self.PNL_EXPIRED_DIGESTS


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
        converge = Market(cfg, np.random.default_rng(cfg.seed), valuation_date=True)
        later_only = Market(cfg, np.random.default_rng(cfg.seed))
        for opt in cfg.options:
            for bundle in (converge.bundle_full, converge.bundle_later, later_only.bundle_later):
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
        converge = Market(cfg, np.random.default_rng(cfg.seed), valuation_date=True)
        later_only = Market(cfg, np.random.default_rng(cfg.seed))
        growth = cfg.model.drift_b + cfg.model.jump_spec.mean_growth(cfg.model.brownian_sigma)
        for bundle in (converge.bundle_full, converge.bundle_later, later_only.bundle_later):
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
        order = np.lexsort((jumps.time, jumps.path))
        sizes = jumps.size[order]
        want = np.expm1(sizes) if model["kind"] == "variance_gamma" else sizes
        assert len(want) > 10
        np.testing.assert_array_equal(outcomes.jump_sizes, want)
        np.testing.assert_array_equal(outcomes.jump_times, jumps.time[order])
        np.testing.assert_array_equal(outcomes.n_jumps, np.bincount(jumps.path, minlength=400))
        assert outcomes.delta_s.shape == (400,)

    def test_taylor_swaps_residual_bounded(self, monkeypatch):
        # Two identities on the run's own post-move curve, each to rounding
        # and so for every seed: the taylor+swaps hedge is the run's Taylor
        # sum of degree 1..q (plus the time term d1 dt), and at a move onto
        # the stencil grid the residual is the curve's remaining Taylor
        # terms q+1..2N, since the stencils differentiate the degree-2N
        # polynomial through the 2N + 1 grid values.  Off the grid the curve
        # departs from that polynomial, so no bound there holds for every
        # seed.
        cfg = self.pnl_config(["taylor+swaps"])
        marked = []
        strategy = harness._STRATEGIES["taylor+swaps"]

        def recording(book):
            marked.append((book, strategy(book)))
            return marked[-1][1]

        monkeypatch.setitem(harness._STRATEGIES, "taylor+swaps", recording)
        _, rows, _, _ = run_pnl(cfg)
        ((book, hedge),) = marked
        assert len(rows) == 400
        ds = np.array([r[2] for r in rows])
        resid = np.array([r[3] for r in rows])
        ladder, q, n, h = book.ladder, cfg.pnl_q, cfg.half_width, cfg.s_step
        market, opt = book.market, cfg.options[0]
        curve = market.values_later(opt, market.grid)
        # the curve's derivatives, orders past p_max from the exact stencils
        d = {i: ladder.derivative(i) for i in range(1, cfg.p_max + 1)}
        d.update({i: float(sum(stencil_coefficient(i, n, k) * Fraction(f)
                               for k, f in enumerate(curve.tolist(), start=-n))) / h**i
                  for i in range(cfg.p_max + 1, 2 * n + 1)})

        def terms(moves, orders):
            return sum(d[i] * moves**i / math.factorial(i) for i in orders)

        time_term = ladder.d1 * cfg.delta_t
        spot_terms = terms(ds, range(1, q + 1))
        scale = np.abs(hedge).max()
        np.testing.assert_allclose(hedge, taylor_sums(ladder, cfg.delta_t, ds, q)[q],
                                   rtol=0, atol=1e-12 * scale)
        # each row's residual is the exact change less those spot terms
        exact = market.values_later(opt, cfg.s0 + ds) - curve[n]
        np.testing.assert_allclose(resid, exact - spot_terms, rtol=0,
                                   atol=1e-12 * max(scale, curve.max()))
        # the hedge marked at every grid move leaves the terms q+1..2N
        moves = market.grid - cfg.s0
        on_grid = strategy(dataclasses.replace(
            book, outcomes=ScenarioOutcome(moves, n_jumps=np.zeros(len(moves), int))))
        left = (curve - curve[n]) - (on_grid - time_term)
        np.testing.assert_allclose(left, terms(moves, range(q + 1, 2 * n + 1)), rtol=0,
                                   atol=1e-12 * curve.max())
        assert np.abs(left).max() > 1e-3  # the remainder is not rounding

    def test_minvar_beats_naive_delta(self):
        # q = 2: the S^{i-1} scaling in the weights makes orders past the
        # gamma term hypersensitive to MC noise in the ladder.  The residual
        # sd ratio is about 0.97, and a run's 400 scenarios lose about half
        # the time, as their sample Cov(dS^2, dS) is noisy; so both
        # strategies are marked on 400000 moves drawn after the run's
        # market, where the variance minvar removes is positive by more
        # than 3.8 SE for every mc seed 0..19.
        cfg = self.pnl_config(["minvar", "delta"], q=2)
        rng = np.random.default_rng(cfg.seed)
        market = Market(cfg, rng)
        opt = cfg.options[0]
        ladder, base = market.ladder(opt)
        n = 400_000
        moves = cfg.s0 * (relative_factors(cfg.model, cfg.delta_t, 1, n, rng)[:, 0] - 1.0)
        exact = market.values_later(opt, cfg.s0 + moves) - base
        book = harness._Book(cfg=cfg, market=market, ladder=ladder,
                             moments=moment_vector(cfg.model, 4), scenario=None,
                             coeffs={2: ladder.derivative(2) / 2},
                             outcomes=ScenarioOutcome(moves, n_jumps=np.zeros(n, int)))
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
            # so too each option traded; and no valuation-date price at all
            n_instruments = len(strikes) if "moment-neutral" in strategies else 0
            assert len(values_calls) == 2 * (1 + n_instruments)
            assert price_calls == []

    @pytest.mark.parametrize("barrier", [False, True], ids=["european", "up_and_out"])
    def test_pnl_and_qtable_never_price_the_valuation_date(self, monkeypatch, barrier):
        # both draw the post-move cells alone and read no valuation-date price
        draws = []
        real = harness.relative_factors

        def recording(model, dt, *args, **kwargs):
            draws.append(np.atleast_1d(dt).tolist())
            return real(model, dt, *args, **kwargs)

        def refusing(self, option, s0, r):
            raise AssertionError("PathBundle.price called")

        monkeypatch.setattr(harness, "relative_factors", recording)
        monkeypatch.setattr(PathBundle, "price", refusing)
        option = dict(UP_AND_OUT, maturity=0.25) if barrier else {
            "kind": "european_call", "strike": 5000, "maturity": 0.25}
        cfg = load_config(dict(self.pnl_config(list(STRATEGY_NAMES),
                                               neutral_strikes=[4950.0, 5050.0]).raw,
                               option=option))
        cells = [0.248 / 4] * 4 if barrier else [0.248]  # mc.steps = 5 monitors a barrier
        _, _, _, summaries = run_pnl(cfg)
        assert len(summaries) == len(STRATEGY_NAMES)
        np.testing.assert_allclose(draws[0], cells, rtol=1e-14)
        assert draws[1:] == [[cfg.delta_t]]  # the scenarios
        draws.clear()
        _, rows, _ = run_qtable(cfg)
        assert len(rows) == 1
        assert len(draws) == 1
        np.testing.assert_allclose(draws[0], cells, rtol=1e-14)

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


def load_workloads(monkeypatch):
    """The benchmark's workloads module (it imports ``oracles`` by name)."""
    monkeypatch.syspath_prepend(str(LEVYBENCH))
    return load_levybench("workloads")


def bench_pnl_config(workloads, model):
    """levybench ``PNL_CONFIG`` with the model and seed of one of its operations."""
    raw = copy.deepcopy(workloads.PNL_CONFIG)
    raw["mc"]["seed"] = 31
    if model == "variance_gamma":
        raw["model"] = dict(workloads.PNL_VG_MODEL)
        raw["mc"]["seed"] = workloads.PNL_VG_SEED
    return load_config(raw)


class _SetPrices:
    """The run's market, pricing each option at every scenario spot in one
    call as ``run_pnl`` does; a strategy marked on one scenario then reads
    the same option values as on the whole set (a lone spot is priced by
    another kernel, see ``PathBundle._reduce``)."""

    def __init__(self, market, spots):
        self.market, self.spots = market, spots

    def __getattr__(self, name):
        return getattr(self.market, name)

    def values_later(self, option, spot):
        return float(self.market.values_later(option, self.spots)[self.spots.tolist().index(spot)])


class TestBatchedMarks:
    """Every strategy marks the whole scenario set at once; each scenario's
    hedge change must be what marking that scenario alone gives."""

    # variance-gamma scenarios carry about 19 jumps: their power sums run in
    # list order, where marking one scenario's jumps used to take numpy's
    # pairwise order from 8 terms on, so a mark may move by a few ulps of its
    # largest leg
    VG_REL_TOL = 1e-12

    @pytest.mark.parametrize("model", ["compound_poisson", "variance_gamma"])
    def test_set_marks_equal_one_scenario_marks(self, monkeypatch, model):
        workloads = load_workloads(monkeypatch)
        cfg = bench_pnl_config(workloads, model)
        strategies = dict(harness._STRATEGIES)
        marked, baskets, running = {}, {}, [None]

        def recording(name):
            def run(book):
                running[0] = name
                marked[name] = (book, strategies[name](book))
                return marked[name][1]
            return run

        def keeping(build):
            def run(*args, **kwargs):
                basket = build(*args, **kwargs)
                baskets.setdefault(running[0], []).append(basket)
                return basket
            return run

        for name in strategies:
            monkeypatch.setitem(harness._STRATEGIES, name, recording(name))
        for name in ("pja_basket_general", "moment_swap_basket"):
            monkeypatch.setattr(harness, name, keeping(getattr(harness, name)))
        run_pnl(cfg)
        built = {name: list(b) for name, b in baskets.items()}
        assert sorted(marked) == sorted(STRATEGY_NAMES)
        book = marked["delta"][0]
        outcomes = book.outcomes
        singles = [ScenarioOutcome(float(ds), times, sizes)
                   for ds, (times, sizes) in zip(outcomes.delta_s, outcomes.paths())]
        assert max(o.n_jumps for o in singles) > 1
        one_book = dataclasses.replace(
            book, market=_SetPrices(book.market, cfg.s0 + outcomes.delta_s))
        for name, (_, batched) in marked.items():
            alone = [strategies[name](dataclasses.replace(one_book, outcomes=o))
                     for o in singles]
            if model == "compound_poisson":
                np.testing.assert_array_equal(batched, alone, err_msg=name)
                continue
            # the largest leg of the strategy's baskets in each scenario (0 without baskets)
            largest = np.array([
                max((max(workloads._basket_legs(b, o)) for b in built.get(name, ())), default=0.0)
                for o in singles])
            assert np.all(np.abs(batched - alone) <= self.VG_REL_TOL * largest), name

    def test_one_scenario_marks_are_floats(self, monkeypatch):
        cfg = bench_pnl_config(load_workloads(monkeypatch), "compound_poisson")
        rng = np.random.default_rng(cfg.seed)
        outcomes = harness._simulate_outcomes(cfg, rng)
        ladder = DerivativeLadder(d2=(0.6, 1e-3, 1e-6, 1e-9), d1=-300.0)
        scen = HedgeScenario(s_t=cfg.s0, delta_s=10.0, delta_t=cfg.delta_t, r=cfg.r)
        moments = moment_vector(cfg.model, 6)
        swap = SwapSpec(order=2, delta_s=cfg.delta_t, n=3, strike=0.002, unit_price=0.002)
        pja = assemble_ledger(ladder, scen, 4, lambda i, c: pja_basket_general(
            c, scen, i, PathState(t=0.0), moments))
        basket = moment_swap_basket(0.3, scen, swap, RealizedHistory(sums={2: 0.0}))
        (times, sizes), *_ = outcomes.paths()
        one = ScenarioOutcome(float(outcomes.delta_s[0]), times, sizes)
        for mark, batched in ((pja.change_of_value(one), pja.change_of_value(outcomes)),
                              (pja.term_positions[3].change_of_value(one),
                               pja.term_positions[3].change_of_value(outcomes)),
                              (basket.change_of_value(one.delta_s),
                               basket.change_of_value(outcomes.delta_s))):
            assert type(mark) is float
            assert batched.shape == outcomes.delta_s.shape and batched[0] == mark


def test_traced_pnl_sees_the_marks_and_the_writer(monkeypatch, tmp_path):
    """The benchmark's per-layer trace of one small pnl operation still
    counts the ledger, jump-basket and swap marks and the CSV writer."""
    workloads = load_workloads(monkeypatch)
    raw = copy.deepcopy(workloads.PNL_CONFIG)
    raw["mc"].update(paths=4000, seed=31)
    raw["pnl"]["n_scenarios"] = 40
    config = tmp_path / "pnl.json"
    config.write_text(json.dumps(raw))
    tracing = load_levybench("tracer")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        assert cli_main(["pnl", "--config", str(config), "--out", str(tmp_path / "pnl.csv")]) == 0
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics = {name: m["value"] for name, m in tracer.layer_metrics().items()}
    assert metrics["harness.csv_s"] > 0
    assert metrics["taylor.ledger_marks"] >= 1
    assert metrics["jump_baskets.marks"] >= 1
    assert metrics["swaps.marks_s"] > 0


def test_traced_qtable_builds_one_stencil_table(monkeypatch, tmp_path):
    """A traced qtable operation builds one stencil table, the config's, and
    the tracer captures it for the benchmark's moment-condition check."""
    workloads = load_workloads(monkeypatch)
    raw = copy.deepcopy(workloads.QTABLE_CONFIG)
    raw["mc"].update(paths=4000, seed=31)
    config = tmp_path / "qtable.json"
    config.write_text(json.dumps(raw))
    tracing = load_levybench("tracer")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        cli_main(["qtable", "--config", str(config), "--out", str(tmp_path / "qtable.csv")])
        tracer.end_op()
    finally:
        tracer.uninstall()
    builds = [span for span in tracer.spans if span[2] == "stencil.build_lookup_table"]
    assert len(builds) == tracer.n_ops == 1
    table = tracer.first_table
    assert (table.half_width, table.p_max) == (raw["stencil"]["half_width"],
                                               raw["stencil"]["p_max"])
    assert load_oracles().stencil_moment_violations(table.entries, table.half_width,
                                                    table.p_max) == []


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
