"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.
"""

import json
import logging
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from levyhedge import harness
from levyhedge.chaos import constant_term
from levyhedge.cli import main as cli_main
from levyhedge.config import load_config
from levyhedge.harness import run_converge, run_qtable
from levyhedge.jump_baskets import (
    PathState,
    ScenarioOutcome,
    pja_basket_general,
)
from levyhedge.minvar import mvp_bank_stock, mvp_with_varswap
from levyhedge.models import (
    CompoundPoisson,
    FixedJumps,
    LevyModel,
    NormalJumps,
    moment_vector,
    one_jump_increments,
)
from levyhedge.neutral import solve_neutrality
from levyhedge.pricing import (
    OptionSpec,
    derivative_ladder,
    price_curve,
)
from levyhedge.stencil import apply_stencil, build_lookup_table, stencil_coefficient
from levyhedge.swaps import RealizedHistory, SwapSpec, moment_swap_basket
from levyhedge.taylor import HedgeScenario

from conftest import (
    black_scholes_delta,
    black_scholes_gamma,
    black_scholes_price,
    vandermonde_stencil,
)


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def test_criterion_01_stencil_exactness():
    start = time.time()
    checked = 0
    for n in range(1, 7):
        for p in range(1, min(7, 2 * n) + 1):
            oracle = vandermonde_stencil(p, n)
            for k in range(-n, n + 1):
                assert stencil_coefficient(p, n, k) == oracle[k], (p, n, k)
                checked += 1
    # monomial reproduction: exact in rational arithmetic, 1e-8 in floats
    for n in (2, 4, 6):
        table = build_lookup_table(n)
        period = 0.25
        period_q = Fraction(1, 4)
        for p in range(1, min(7, table.p_max) + 1):
            for j in range(0, 2 * n + 1):
                want = math.factorial(p) if j == p else 0.0
                samples = [(k * period) ** j for k in range(-n, n + 1)]
                got = apply_stencil(samples, p, period, table)
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (n, p, j)
                exact = apply_stencil(
                    [(Fraction(k) * period_q) ** j for k in range(-n, n + 1)],
                    p, period_q, table,
                )
                assert exact == Fraction(want), (n, p, j)
    elapsed = time.time() - start
    assert elapsed < 60
    report(1, f"{checked} coefficients equal the moment-condition oracle exactly; "
              f"monomials reproduce p! delta within 1e-8 ({elapsed:.1f}s)")


def test_criterion_02_standard_stencils():
    assert [stencil_coefficient(2, 1, k) for k in (-1, 0, 1)] == [1, -2, 1]
    got = [stencil_coefficient(1, 2, k) for k in (-2, -1, 0, 1, 2)]
    assert got == [Fraction(1, 12), Fraction(-8, 12), 0, Fraction(8, 12), Fraction(-1, 12)]
    report(2, "(p=2,N=1) -> (1,-2,1) and (p=1,N=2) -> (+-1/12, -+8/12, 0) exactly")


def test_criterion_03_chaos_constants():
    start = time.time()
    # exact rational check against the cumulant recurrence, k <= 8
    m_vals = tuple(Fraction(2, 10**i) for i in range(1, 11))
    sigma2 = Fraction(9, 400)

    class _M:
        def prime(self, i):
            return m_vals[i - 1] + sigma2 if i == 2 else m_vals[i - 1]

        def __getitem__(self, i):
            return m_vals[i - 1]

    mom = _M()
    t = Fraction(1, 12)
    kappas = [m_vals[0] * t, (m_vals[1] + sigma2) * t] + [
        m_vals[q - 1] * t for q in range(3, 9)
    ]
    mu = [Fraction(1)]
    for nn in range(1, 9):
        mu.append(sum(math.comb(nn - 1, j) * kappas[j] * mu[nn - 1 - j] for j in range(nn)))
    for k in range(1, 9):
        assert constant_term(k, mom, t) == mu[k], k

    # MC agreement for compound-Poisson increments, k <= 6, 1e6 draws, 4 SE
    model = LevyModel(brownian_sigma=0.1,
                      jump_spec=CompoundPoisson(2.0, NormalJumps(0.05, 0.1)))
    momf = moment_vector(model, 8)
    dt = 0.05
    rng = np.random.default_rng(42)
    n = 1_000_000
    z = rng.standard_normal(n) * 0.1 * math.sqrt(dt)
    counts = rng.poisson(2.0 * dt, n)
    sizes = model.jump_spec.law.sample(rng, int(counts.sum()))
    jsum = np.zeros(n)
    np.add.at(jsum, np.repeat(np.arange(n), counts), sizes)
    draws = z + jsum
    for k in range(1, 7):
        powers = draws**k
        se = powers.std(ddof=1) / math.sqrt(n)
        assert abs(powers.mean() - constant_term(k, momf, dt)) < 4 * se, k
    elapsed = time.time() - start
    assert elapsed < 120
    report(3, f"C^(k) equals cumulant-derived raw moments exactly (k<=8) and MC "
              f"sample moments within 4 SE (k<=6, 1e6 draws) ({elapsed:.1f}s)")


def test_criterion_04_replication_identities():
    rng = np.random.default_rng(404)
    # variance swaps (order 2), 100 scenarios
    for _ in range(100):
        s_t = rng.uniform(20, 200)
        dt = rng.uniform(0.02, 0.5)
        sc = HedgeScenario(s_t=s_t, delta_s=1.0, delta_t=dt, r=rng.uniform(0.02, 0.12))
        spec = SwapSpec(order=2, delta_s=dt, n=int(rng.integers(3, 30)),
                        strike=rng.uniform(0, 0.3), unit_price=rng.uniform(0.1, 2.0))
        hist = RealizedHistory(sums={2: rng.uniform(0, 0.2)})
        c = rng.uniform(0.1, 3.0) * rng.choice([-1, 1])
        basket = moment_swap_basket(c, sc, spec, hist)
        ds = rng.uniform(0.05, 0.3) * s_t * rng.choice([-1, 1])
        assert basket.change_of_value(ds) == pytest.approx(c * ds**2, rel=1e-10)
    # moment swaps (orders 3..5), 100 scenarios each
    for order in (3, 4, 5):
        scale = 0.35**order
        for _ in range(100):
            s_t = rng.uniform(20, 200)
            dt = rng.uniform(0.02, 0.5)
            sc = HedgeScenario(s_t=s_t, delta_s=1.0, delta_t=dt, r=rng.uniform(0.02, 0.12))
            spec = SwapSpec(order=order, delta_s=dt, n=int(rng.integers(3, 30)),
                            strike=rng.uniform(-0.2, 1.0) * scale,
                            unit_price=rng.uniform(0.1, 2.0) * scale)
            hist = RealizedHistory(sums={order: rng.uniform(-0.2, 1.0) * scale})
            c = rng.uniform(0.1, 3.0) * rng.choice([-1, 1])
            basket = moment_swap_basket(c, sc, spec, hist)
            ds = rng.uniform(0.1, 0.3) * s_t * rng.choice([-1, 1])
            assert basket.change_of_value(ds) == pytest.approx(c * ds**order, rel=1e-10)
    # power-jump baskets under their regimes, 100 scenarios each
    model = LevyModel(jump_spec=CompoundPoisson(2.0, NormalJumps(0.01, 0.06)))
    moments = moment_vector(model, 10)
    for order in (2, 3, 4):
        for _ in range(100):
            s_t = rng.uniform(20, 200)
            dt = rng.uniform(1e-4, 0.05)
            sc = HedgeScenario(s_t=s_t, delta_s=1.0, delta_t=dt, r=rng.uniform(0.02, 0.12))
            t0 = rng.uniform(0, 2)
            state = PathState(t=t0, y={order: rng.uniform(-0.01, 0.01)})
            c = rng.uniform(0.1, 2.0) * rng.choice([-1, 1])
            basket = pja_basket_general(c, sc, order, state, moments, 0.0)
            x = rng.uniform(0.05, 0.4) * rng.choice([-1, 1])
            outcome = ScenarioOutcome(delta_s=s_t * x,
                                      jump_times=np.array([t0 + dt / 2]),
                                      jump_sizes=np.array([x]))
            assert basket.change_of_value(outcome) == pytest.approx(
                c * (s_t * x) ** order, rel=1e-10
            )
    # material-dt baskets (sigma = 0, one jump), 100 scenarios each
    for order in (3, 4, 5):
        for _ in range(100):
            s_t = rng.uniform(20, 200)
            dt = rng.uniform(0.01, 0.5)
            b = rng.uniform(-0.1, 0.2)
            sc = HedgeScenario(s_t=s_t, delta_s=1.0, delta_t=dt, r=rng.uniform(0.02, 0.12))
            state = PathState(t=rng.uniform(0, 1),
                              y={k: rng.uniform(-0.01, 0.01) for k in range(2, order + 1)})
            c = rng.uniform(0.1, 2.0) * rng.choice([-1, 1])
            basket = pja_basket_general(c, sc, order, state, moments, b)
            while True:
                x = rng.uniform(0.05, 0.4) * rng.choice([-1, 1])
                ds = s_t * (math.exp(b * dt) * (1 + x) - 1.0)
                if abs(ds) >= 0.05 * s_t:
                    break
            outcome = ScenarioOutcome(delta_s=ds,
                                      jump_times=np.array([state.t + dt / 2]),
                                      jump_sizes=np.array([x]))
            assert basket.change_of_value(outcome) == pytest.approx(
                c * ds**order, rel=1e-10
            )
    report(4, "swap and power-jump baskets reproduce C_i (dS)^i to 1e-10 relative "
              "on 100 randomized scenarios each")


def test_criterion_05_black_scholes_cross_check():
    s0 = k = 100.0
    t_mat, r, sigma = 1.0, 0.05, 0.2
    model = LevyModel(drift_b=r, brownian_sigma=sigma)
    opt = OptionSpec(kind="european_call", strike=k, maturity=t_mat)
    (price,), (se,) = price_curve(model, opt, [s0], r=r, n_paths=1_000_000, seed=0,
                                  antithetic=True)
    want = black_scholes_price(s0, k, t_mat, r, sigma)
    assert abs(price - want) < 3 * se
    table = build_lookup_table(2)
    h = 2.0
    grid = s0 + h * np.arange(-2, 3)
    prices, _ = price_curve(model, opt, grid, r=r, n_paths=1_000_000, seed=0,
                            antithetic=True)
    ladder = derivative_ladder(prices, table, 2, h)
    d_true = black_scholes_delta(s0, k, t_mat, r, sigma)
    g_true = black_scholes_gamma(s0, k, t_mat, r, sigma)
    d_rel = abs(ladder.derivative(1) - d_true) / d_true
    g_rel = abs(ladder.derivative(2) - g_true) / g_true
    assert d_rel < 1e-3
    assert g_rel < 1e-2
    report(5, f"MC within 3 SE of closed form; delta rel err {d_rel:.1e} < 1e-3, "
              f"gamma rel err {g_rel:.1e} < 1e-2 at 1e6 CRN paths")


QTABLE_CONFIG = {
    "model": {"kind": "compound_poisson", "drift_b": 0.03, "brownian_sigma": 0.12,
              "intensity": 5.0, "jump_law": {"kind": "normal", "mean": -0.01, "std": 0.04}},
    "options": [
        {"kind": "european_call", "strike": 5000, "maturity": 1.0},
        {"kind": "up_and_out", "strike": 5000, "maturity": 1.0, "barrier": 5050},
        {"kind": "up_and_in", "strike": 5000, "maturity": 1.0, "barrier": 5050},
        {"kind": "down_and_out", "strike": 5000, "maturity": 1.0, "barrier": 4950},
    ],
    "scenario": {"s0": 5000, "delta_s": [10, 20, 30, 40, 50, 60, 70], "delta_t": 1.0,
                 "r": 0.05, "alpha_tol": 0.01},
    "mc": {"paths": 100000, "steps": 1, "seed": 7},
    "stencil": {"half_width": 20, "p_max": 39, "s_step": 10.0},
}


def test_criterion_06_qtable_reproduction():
    start = time.time()
    raw = json.loads(json.dumps(QTABLE_CONFIG))
    cfg = load_config(raw)
    header, rows, ok = run_qtable(cfg)
    assert ok
    qmap = {}
    refs = {}
    for kind, ds, q, err, ref, _ in rows:
        qmap.setdefault(kind, []).append(q)
        refs.setdefault(kind, []).append(ref)
        assert ref is not None  # reference values emitted alongside
    eu = qmap["european_call"]
    assert eu == sorted(eu)                     # non-decreasing in dS
    assert 4 <= eu[0] <= 14                     # q(10)
    assert 25 <= eu[-1] <= 50                   # q(70)
    for kind in ("up_and_out", "up_and_in", "down_and_out"):
        assert all(b >= e for b, e in zip(qmap[kind], eu)), kind
    elapsed = time.time() - start
    assert elapsed < 1800
    report(6, f"q rows {eu} (european) non-decreasing, in bands, barrier >= "
              f"european; matches the reference table {refs['european_call']} "
              f"({elapsed:.1f}s)")


def test_criterion_06_expired_qtable_draws_nothing(monkeypatch, tmp_path, caplog):
    # delta_t = T: the post-move curve is the payoff, so no seed can move a q row
    draws = []
    monkeypatch.setattr(harness, "relative_factors", lambda *a, **k: draws.append(a))
    texts = []
    for seed in (7, 8):
        raw = json.loads(json.dumps(QTABLE_CONFIG))
        raw["mc"]["seed"] = seed
        cfg = load_config(raw)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="levyhedge.harness"):
            header, rows, ok = run_qtable(cfg)
        assert ok
        assert draws == []
        assert [r.getMessage() for r in caplog.records] == [
            "post-move date is expiry: its curve is the payoff, and no paths were drawn for it"]
        for kind, ds, q, err, ref, _ in rows:
            assert q == ref == harness.REFERENCE_Q[(kind, int(ds))], (kind, ds)
            assert err <= cfg.alpha_tol
        path = tmp_path / f"q{seed}.csv"
        harness.write_csv(path, header, rows)
        texts.append(path.read_text().replace(cfg.hash, "<hash>"))
    assert texts[0] == texts[1]
    report(6, f"expired post-move date: no paths drawn, {len(rows)} q rows equal the "
              "reference table at seeds 7 and 8, byte for byte")


FTSE_CONFIG = {
    "model": {"kind": "variance_gamma", "theta": -0.2721, "nu": 0.3032,
              "vg_sigma": 0.0302, "drift_b": "risk_neutral"},
    "option": {"kind": "european_call", "strike": 6287, "maturity": 1.0},
    "scenario": {"s0": 6287, "delta_s": [61.5], "delta_t": 1.0,
                 "r": 0.0543, "dividend": 0.0351, "alpha_tol": 0.01},
    "mc": {"paths": 100000, "steps": 1, "seed": 11},
    "stencil": {"half_width": 8, "p_max": 15, "s_step": 61.5},
}


def test_criterion_07_ftse_reproduction():
    start = time.time()
    cfg = load_config(json.loads(json.dumps(FTSE_CONFIG)))
    header, rows = run_converge(cfg)
    mc, se = rows[0][4], rows[0][5]
    assert abs(mc - 410.914) < 2 * se
    first = rows[0][1]
    assert abs(first - 0.5) < 0.05
    errors = [abs(r[2] - r[3]) for r in rows]
    q_hit = next((i + 1 for i, e in enumerate(errors) if e <= 0.01), None)
    assert q_hit is not None and q_hit <= 15
    ds = cfg.delta_s[0]
    odd_contrib = [
        abs(rows[i][1] * ds ** (i + 1) / math.factorial(i + 1))
        for i in range(2, len(rows), 2)
    ]
    assert max(odd_contrib) < 1e-3
    elapsed = time.time() - start
    assert elapsed < 1200
    report(7, f"VG MC price {mc:.3f} within 2 SE ({2*se:.2f}) of 410.914; first "
              f"ladder term {first:.3f}; |error|<=0.01 at q={q_hit}<=15; odd terms "
              f"<= {max(odd_contrib):.1e} ({elapsed:.1f}s)")


def test_criterion_08_minimal_variance_optimality():
    # stock only: 1% against the empirical minimizer, 1e5 one-jump scenarios
    model = LevyModel(drift_b=0.03, brownian_sigma=0.1,
                      jump_spec=CompoundPoisson(100.0, NormalJumps(0.08, 0.008)))
    mom = moment_vector(model, 5)
    s0, dt = 100.0, 2e-4
    coeffs = {2: 0.005, 3: 2e-4}
    w = mvp_bank_stock(coeffs, s0, mom, dt, 0.05).stock_units
    rng = np.random.default_rng(0)
    n = 100_000
    ds = s0 * one_jump_increments(model, dt, n, rng)
    target = sum(c * ds**i for i, c in coeffs.items())
    x, y = ds - ds.mean(), target - target.mean()
    w_emp = float((x * y).mean() / (x * x).mean())
    stock_dev = abs(w_emp - w) / abs(w)
    assert stock_dev < 0.01
    resid = target - w * ds
    rc = (resid - resid.mean()) * x
    z_stock = rc.mean() / (rc.std(ddof=1) / math.sqrt(n))
    assert abs(z_stock) < 4

    # stock + swap: 2%, single-magnitude jump risk
    model2 = LevyModel(drift_b=0.03, brownian_sigma=0.18,
                       jump_spec=CompoundPoisson(5.0, FixedJumps(0.08)))
    mom2 = moment_vector(model2, 6)
    coeffs3 = {3: 2e-4, 4: 1e-5}
    spec = SwapSpec(order=2, delta_s=dt, n=3, strike=0.04 * 0.08**2, unit_price=0.08**2)
    mv = mvp_with_varswap(coeffs3, s0, mom2, dt, 0.05, spec,
                          RealizedHistory(sums={2: 0.0}))
    rng = np.random.default_rng(0)
    ds2 = s0 * one_jump_increments(model2, dt, n, rng)
    target3 = sum(c * ds2**i for i, c in coeffs3.items())
    swap_leg = (ds2 / s0) ** 2 / spec.annualizer
    a = np.column_stack([ds2 - ds2.mean(), swap_leg - swap_leg.mean()])
    coef, *_ = np.linalg.lstsq(a, target3 - target3.mean(), rcond=None)
    emp_stock, emp_swap = coef
    swap_dev = abs(emp_swap - mv.swap.swap_units) / mv.swap.swap_units
    assert swap_dev < 0.02
    scale = abs(mv.swap.swap_units) * swap_leg.std()
    stock_leg_dev = abs(emp_stock) * ds2.std() / scale
    assert stock_leg_dev < 0.02
    resid3 = target3 - mv.swap.swap_units * swap_leg
    zs = []
    for instr in (ds2, swap_leg):
        rc = (resid3 - resid3.mean()) * (instr - instr.mean())
        zs.append(rc.mean() / (rc.std(ddof=1) / math.sqrt(n)))
    assert max(abs(z) for z in zs) < 4
    report(8, f"stock weight within {stock_dev:.2%} (<1%), swap weight within "
              f"{swap_dev:.2%} (<2%), residual-instrument |z| <= "
              f"{max([abs(z_stock)] + [abs(z) for z in zs]):.2f} < 4")


def test_criterion_09_moment_neutrality():
    s = 10.0
    under = np.array([1.0, 0.0, 0.0])
    square = np.array([2.0 * s, 2.0, 0.0])
    cube = np.array([3.0 * s**2, 6.0 * s, 6.0])
    target = np.array([0.7, 0.02, 0.003])
    system = solve_neutrality(target, [under, square, cube])
    assert np.all(system.residuals == 0.0)
    combined = target + system.instrument_matrix @ system.weights
    assert np.all(np.abs(combined) <= 1e-8)
    report(9, f"3x3 polynomial system solved with zero residual; combined "
              f"D2^k <= {np.abs(combined).max():.1e} for k <= 3")


def test_criterion_10_cli_determinism(tmp_path):
    raw = json.loads(json.dumps(QTABLE_CONFIG))
    raw["scenario"]["delta_s"] = [10, 20]
    raw["stencil"] = {"half_width": 8, "p_max": 15, "s_step": 10.0}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    outs = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        assert cli_main(["qtable", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # converge likewise
    raw2 = json.loads(json.dumps(FTSE_CONFIG))
    raw2["mc"]["paths"] = 20000
    cfg2 = tmp_path / "config2.json"
    cfg2.write_text(json.dumps(raw2))
    outs2 = []
    for name in ("c1.csv", "c2.csv"):
        out = tmp_path / name
        assert cli_main(["converge", "--config", str(cfg2), "--out", str(out)]) == 0
        outs2.append(out.read_bytes())
    assert outs2[0] == outs2[1]
    # and pnl, which exercises the scenario simulator and every writer
    raw3 = json.loads(json.dumps(QTABLE_CONFIG))
    raw3["options"] = [{"kind": "european_call", "strike": 5000, "maturity": 0.25}]
    raw3["scenario"] = {"s0": 5000, "delta_s": [10.0], "delta_t": 0.002,
                        "r": 0.05, "alpha_tol": 0.01}
    raw3["mc"] = {"paths": 20000, "steps": 5, "seed": 5}
    raw3["stencil"] = {"half_width": 4, "p_max": 5, "s_step": 10.0}
    raw3["strategies"] = ["taylor+swaps", "minvar"]
    raw3["pnl"] = {"n_scenarios": 100, "q": 2,
                   "swap": {"strike": 0.002, "unit_price": 0.002}}
    cfg3 = tmp_path / "config3.json"
    cfg3.write_text(json.dumps(raw3))
    outs3 = []
    for name in ("p1.csv", "p2.csv"):
        out = tmp_path / name
        assert cli_main(["pnl", "--config", str(cfg3), "--out", str(out)]) == 0
        outs3.append(out.read_bytes() + (tmp_path / (name + ".summary")).read_bytes())
    assert outs3[0] == outs3[1]
    report(10, "repeated qtable, converge and pnl runs with identical "
               "config+seed produce byte-identical CSVs")
