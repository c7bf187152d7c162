"""Batch experiments: q tables, term-by-term convergence, hedging P&L.

Every run is a pure function of (config, seed): paths derive from one
seeded generator, accumulation is single-threaded and ordered, and CSV
floats are printed through one fixed format, so identical inputs yield
byte-identical outputs.  Each row carries the config hash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .errors import NeedsHigherOrderError
from .jump_baskets import PathState, ScenarioOutcome, pja_basket_general
from .minvar import mvp_bank_stock, mvp_with_varswap
from .models import MomentVector, moment_vector
from .neutral import solve_neutrality
from .pricing import (
    EUROPEAN_CALL,
    DerivativeLadder,
    OptionSpec,
    PathBundle,
    derivative_ladder,
    payoff,
)
from .stencil import StencilTable, build_lookup_table
from .swaps import RealizedHistory, SwapSpec, moment_swap_basket
from .taylor import HedgeScenario, assemble_ledger, find_q

__all__ = ["run_qtable", "run_converge", "run_pnl", "write_csv"]

FLOAT_FMT = "{:.12g}"

# Benchmark q values for the canonical S0 = K = 5000 grid (tolerance 0.01,
# moves 10..70, up barrier 5050, down barrier 4950); emitted for reference
# next to computed values, never asserted.
REFERENCE_Q = {
    ("european_call", 10): 8, ("european_call", 20): 14, ("european_call", 30): 20,
    ("european_call", 40): 26, ("european_call", 50): 32, ("european_call", 60): 36,
    ("european_call", 70): 38,
    ("up_and_out", 10): 9, ("up_and_out", 20): 15, ("up_and_out", 30): 22,
    ("up_and_out", 40): 27, ("up_and_out", 50): 32, ("up_and_out", 60): 36,
    ("up_and_out", 70): 39,
    ("up_and_in", 10): 9, ("up_and_in", 20): 16, ("up_and_in", 30): 22,
    ("up_and_in", 40): 28, ("up_and_in", 50): 32, ("up_and_in", 60): 36,
    ("up_and_in", 70): 39,
    ("down_and_out", 10): 8, ("down_and_out", 20): 14, ("down_and_out", 30): 20,
    ("down_and_out", 40): 26, ("down_and_out", 50): 32, ("down_and_out", 60): 36,
    ("down_and_out", 70): 38,
    ("down_and_in", 10): 9, ("down_and_in", 20): 16, ("down_and_in", 30): 22,
    ("down_and_in", 40): 28, ("down_and_in", 50): 32, ("down_and_in", 60): 36,
    ("down_and_in", 70): 39,
}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT.format(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


class Market:
    """Shared paths for one experiment: one bundle for the valuation date,
    one for the post-move date, so every option and every spot is priced
    with common random numbers."""

    def __init__(self, cfg: ExperimentConfig, rng: np.random.Generator):
        self.cfg = cfg
        n = cfg.half_width
        self.grid = cfg.s0 + cfg.s_step * np.arange(-n, n + 1)
        maturity = cfg.options[0].maturity
        for opt in cfg.options:
            if opt.maturity != maturity:
                raise ValueError("all options in one run must share a maturity")
        for opt in cfg.options:
            opt.check_barrier_side(cfg.s0)
        self.maturity = maturity
        remaining = maturity - cfg.delta_t
        self.bundle_full = PathBundle(
            cfg.model, maturity, cfg.steps, cfg.n_paths, rng, cfg.antithetic
        )
        self.bundle_later = None
        if remaining > 1e-14:
            later_steps = max(1, cfg.steps - 1)
            self.bundle_later = PathBundle(
                cfg.model, remaining, later_steps, cfg.n_paths, rng, cfg.antithetic
            )

    def price_now(self, option: OptionSpec, s: float):
        return self.bundle_full.price(option, s, self.cfg.r)

    def price_later(self, option: OptionSpec, s: float) -> float:
        if self.bundle_later is None:
            return float(payoff(option, np.array([s]))[0])
        return self.bundle_later.price(option, s, self.cfg.r)[0]

    def curve_later(self, option: OptionSpec) -> np.ndarray:
        if self.bundle_later is None:
            return np.asarray(payoff(option, self.grid), dtype=float)
        prices, _ = self.bundle_later.price_many(option, self.grid, self.cfg.r)
        return prices

    def ladder(self, option: OptionSpec, table: StencilTable) -> tuple[DerivativeLadder, float, float]:
        """(ladder, price_t, price_t_se) with d1 from the forward difference
        over the hedging period."""
        cfg = self.cfg
        price_t, se_t = self.price_now(option, cfg.s0)
        curve = self.curve_later(option)
        d1 = (curve[cfg.half_width] - price_t) / cfg.delta_t
        return (
            derivative_ladder(curve, table, cfg.p_max, cfg.s_step, d1),
            price_t,
            se_t,
        )


def run_qtable(cfg: ExperimentConfig):
    """One row per (option, delta_s): the truncation order q meeting the
    tolerance and the error it achieved.  Returns (header, rows, ok)."""
    rng = np.random.default_rng(cfg.seed)
    table = build_lookup_table(cfg.half_width, cfg.p_max)
    market = Market(cfg, rng)
    rows = []
    ok = True
    for opt in cfg.options:
        ladder, price_t, _ = market.ladder(opt, table)
        for ds in cfg.delta_s:
            scen = HedgeScenario(
                s_t=cfg.s0, delta_s=ds, delta_t=cfg.delta_t, r=cfg.r,
                option=opt, alpha_tol=cfg.alpha_tol,
            )
            exact = market.price_later(opt, cfg.s0 + ds) - price_t
            ref = REFERENCE_Q.get((opt.kind, int(ds)))
            try:
                q, err = find_q(ladder, scen, exact)
                rows.append((opt.kind, ds, q, err, ref, cfg.hash))
            except NeedsHigherOrderError as exc:
                ok = False
                rows.append((opt.kind, ds, None, exc.best_error, ref, cfg.hash))
    header = ("option", "delta_s", "q", "achieved_error", "q_reference", "config_hash")
    return header, rows, ok


def run_converge(cfg: ExperimentConfig):
    """Term-by-term convergence for a single option and a single move:
    rows (i, D2^i, cumulative approximation), Table-style."""
    if len(cfg.options) != 1 or len(cfg.delta_s) != 1:
        raise ValueError("convergence runs use one option and one delta_s")
    rng = np.random.default_rng(cfg.seed)
    table = build_lookup_table(cfg.half_width, cfg.p_max)
    market = Market(cfg, rng)
    opt = cfg.options[0]
    ds = cfg.delta_s[0]
    ladder, price_t, se_t = market.ladder(opt, table)
    exact = market.price_later(opt, cfg.s0 + ds) - price_t
    rows = []
    cumulative = ladder.d1 * cfg.delta_t
    for i in range(1, cfg.p_max + 1):
        cumulative += ladder.derivative(i) * ds**i / math.factorial(i)
        rows.append((i, ladder.derivative(i), cumulative, exact, price_t, se_t, cfg.hash))
    header = (
        "term", "d2_value", "cumulative_approx", "exact_change",
        "mc_price", "mc_se", "config_hash",
    )
    return header, rows


# ---------------------------------------------------------------------------
# Hedging P&L
# ---------------------------------------------------------------------------


def _simulate_outcomes(cfg: ExperimentConfig, n_scenarios: int, rng: np.random.Generator):
    """One-period scenarios with jump records (product-form dynamics)."""
    model = cfg.model
    dt = cfg.delta_t
    sig = model.brownian_sigma
    z = rng.standard_normal(n_scenarios)
    diffusive = (model.drift_b - 0.5 * sig**2) * dt + sig * math.sqrt(dt) * z
    spec = model.jump_spec
    if spec is not None and hasattr(spec, "intensity"):
        counts = rng.poisson(spec.intensity * dt, n_scenarios)
        sizes = spec.law.sample(rng, int(counts.sum()))
        split = np.split(sizes, np.cumsum(counts)[:-1])
    else:
        split = [np.empty(0)] * n_scenarios
    outcomes = []
    for i in range(n_scenarios):
        jumps = np.asarray(split[i], dtype=float)
        factor = math.exp(diffusive[i])
        if len(jumps):
            factor *= float(np.prod(1.0 + jumps))
        times = np.sort(rng.uniform(0.0, dt, len(jumps))) if len(jumps) else np.empty(0)
        outcomes.append(
            ScenarioOutcome(
                delta_s=cfg.s0 * (factor - 1.0),
                jump_times=times,
                jump_sizes=jumps,
            )
        )
    return outcomes


@dataclass(frozen=True)
class _Book:
    """What every strategy hedges: the option's ladder on the shared market,
    its Taylor coefficients C_i for i = 2..q and the run's settings."""

    cfg: ExperimentConfig
    market: Market
    table: StencilTable
    ladder: DerivativeLadder
    moments: MomentVector
    scenario: HedgeScenario
    coeffs: dict

    def delta_leg(self, o) -> float:
        """Bank and stock: the time decay d1 dt plus the linear term D1 dS."""
        return self.ladder.d1 * self.cfg.delta_t + self.ladder.derivative(1) * o.delta_s

    def swap_spec(self, order: int) -> SwapSpec:
        cfg = self.cfg
        return SwapSpec(order=order, delta_s=cfg.delta_t, n=3, strike=cfg.swap_strike,
                        unit_price=cfg.swap_unit_price)


def _ledger(book: _Book, basket):
    """The Taylor ledger to order q with ``basket(i, c_i)`` for each term."""
    ledger = assemble_ledger(book.ladder, book.scenario, book.cfg.pnl_q, basket)
    return lambda o: ledger.change_of_value(o.delta_s, o)


def _taylor_swaps(book: _Book):
    history = RealizedHistory(sums={k: 0.0 for k in book.coeffs})
    return _ledger(book, lambda i, c_i: moment_swap_basket(
        c_i, book.scenario, book.swap_spec(i), history))


def _taylor_pja(book: _Book):
    state = PathState(t=0.0)
    return _ledger(book, lambda i, c_i: pja_basket_general(
        c_i, book.scenario, i, state, book.moments))


def _minvar(book: _Book):
    cfg = book.cfg
    weights = mvp_bank_stock(book.coeffs, cfg.s0, book.moments, cfg.delta_t, cfg.r)
    growth = math.exp(cfg.r * cfg.delta_t) - 1.0
    return lambda o: (
        book.delta_leg(o) + weights.bank_cash * growth + weights.stock_units * o.delta_s
    )


def _minvar_varswap(book: _Book):
    cfg = book.cfg
    spec = book.swap_spec(2)
    history = RealizedHistory(sums={2: 0.0})
    higher = {i: c for i, c in book.coeffs.items() if i >= 3}
    legs = []
    # the squared term still goes through its exact swap basket
    if 2 in book.coeffs:
        legs.append(moment_swap_basket(book.coeffs[2], book.scenario, spec, history))
    if higher:
        weights = mvp_with_varswap(higher, cfg.s0, book.moments, cfg.delta_t, cfg.r, spec,
                                   history)
        legs.append(weights.swap)
    return lambda o: book.delta_leg(o) + sum(leg.change_of_value(o.delta_s) for leg in legs)


def _delta(book: _Book):
    # naive benchmark: bank + stock only, no higher-term hedging
    return book.delta_leg


def _moment_neutral(book: _Book):
    cfg, market = book.cfg, book.market
    instruments = []
    for strike in cfg.neutral_strikes:
        opt = OptionSpec(kind=EUROPEAN_CALL, strike=strike, maturity=market.maturity)
        ladder, price_t, _ = market.ladder(opt, book.table)
        instruments.append((opt, ladder, price_t))
    orders = range(1, len(instruments) + 1)
    system = solve_neutrality(
        np.array([book.ladder.derivative(j) for j in orders]),
        [np.array([lad.derivative(j) for j in orders]) for _, lad, _ in instruments],
    )

    def change(o):
        # realized change of the hedge side: -sum w_i dF_i plus the
        # deterministic decay the weights cannot remove
        total = book.ladder.d1 * cfg.delta_t
        for w, (opt, lad, p_t) in zip(system.weights, instruments):
            d_inst = market.price_later(opt, cfg.s0 + o.delta_s) - p_t
            total += -w * d_inst + w * lad.d1 * cfg.delta_t
        return total

    return change


# Each strategy wires its hedge into a change-of-value function of the
# scenario outcome; config.STRATEGY_NAMES lists the same names.
_STRATEGIES = {
    "taylor+swaps": _taylor_swaps,
    "taylor+pja": _taylor_pja,
    "minvar": _minvar,
    "minvar+varswap": _minvar_varswap,
    "delta": _delta,
    "moment-neutral": _moment_neutral,
}
# strategies whose baskets assume at most one jump per period
_ONE_JUMP = {"taylor+pja"}


def run_pnl(cfg: ExperimentConfig):
    """Per-scenario hedge residuals per strategy.

    residual = (option change) - (ledger change); one-jump-regime
    violations are counted, never dropped.  Returns (header, rows,
    summary_header, summary_rows).
    """
    if len(cfg.options) != 1:
        raise ValueError("pnl runs use a single option")
    n_scenarios = cfg.n_scenarios
    rng = np.random.default_rng(cfg.seed)
    table = build_lookup_table(cfg.half_width, cfg.p_max)
    market = Market(cfg, rng)
    opt = cfg.options[0]
    ladder, price_t, _ = market.ladder(opt, table)
    q = cfg.pnl_q
    book = _Book(
        cfg=cfg, market=market, table=table, ladder=ladder,
        moments=moment_vector(cfg.model, max(q + 2, 3)),
        scenario=HedgeScenario(
            s_t=cfg.s0, delta_s=cfg.delta_s[0], delta_t=cfg.delta_t, r=cfg.r,
            option=opt, alpha_tol=cfg.alpha_tol,
        ),
        coeffs={i: ladder.derivative(i) / math.factorial(i) for i in range(2, q + 1)},
    )
    outcomes = _simulate_outcomes(cfg, n_scenarios, rng)

    rows = []
    summaries = []
    for name in cfg.strategies:
        hedge_change = _STRATEGIES[name](book)
        residuals = np.empty(n_scenarios)
        violations = 0
        for idx, outcome in enumerate(outcomes):
            exact = market.price_later(opt, cfg.s0 + outcome.delta_s) - price_t
            residuals[idx] = exact - hedge_change(outcome)
            if name in _ONE_JUMP and outcome.n_jumps > 1:
                violations += 1
            rows.append((idx, name, outcome.delta_s, residuals[idx], outcome.n_jumps, cfg.hash))
        summaries.append(
            (
                name,
                float(residuals.mean()),
                float(residuals.std(ddof=1)) if n_scenarios > 1 else 0.0,
                violations,
                n_scenarios,
                cfg.hash,
            )
        )
    header = ("scenario", "strategy", "delta_s", "residual", "n_jumps", "config_hash")
    sum_header = ("strategy", "mean", "sd", "regime_violations", "n_scenarios", "config_hash")
    return header, rows, sum_header, summaries
