"""Batch experiments: q tables, term-by-term convergence, hedging P&L.

Every run is a pure function of (config, seed): paths derive from one
seeded generator and its spawned streams, one per chunk of a factor draw
(the chunks are fixed, whatever the worker count), accumulation is
single-threaded and ordered, and CSV
floats are printed through one fixed format, so identical inputs yield
byte-identical outputs.  Each row carries the config hash.

All randomness goes through ``models.relative_factors``: ``Market`` makes
one factor draw whose columns after the first are the post-move paths
(nested dates), on the ``mc.steps`` barrier monitoring grid when an
option monitors a barrier and one cell per date otherwise, and the P&L
scenarios are one more draw of one period with jump records.  A
malformed run raises ``ConfigError`` naming the config field.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .errors import BankruptcyError, ConfigError, DegenerateModelError, NeedsHigherOrderError
from .jump_baskets import PathState, ScenarioOutcome, pja_basket_general
from .minvar import mvp_bank_stock, mvp_with_varswap
from .models import MomentVector, moment_vector, relative_factors
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
from .taylor import HedgeScenario, assemble_ledger, bank_growth, find_q, taylor_sums

__all__ = ["run_qtable", "run_converge", "run_pnl", "write_csv"]

_log = logging.getLogger(__name__)

FLOAT_FMT = "{:.12g}"

# Benchmark q values for the canonical S0 = K = 5000 grid (tolerance 0.01,
# moves 10..70, up barrier 5050, down barrier 4950); emitted for reference
# next to computed values, never asserted.
REFERENCE_Q = {
    (kind, 10 * (k + 1)): q
    for kind, qs in {
        "european_call": (8, 14, 20, 26, 32, 36, 38),
        "up_and_out": (9, 15, 22, 27, 32, 36, 39),
        "up_and_in": (9, 16, 22, 28, 32, 36, 39),
        "down_and_out": (8, 14, 20, 26, 32, 36, 38),
        "down_and_in": (9, 16, 22, 28, 32, 36, 39),
    }.items()
    for k, q in enumerate(qs)
}


def _fmt_any(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT.format(float(value))
    return str(value)


def _fmt_int(value) -> str:
    return str(int(value))


def _fmt_float(value) -> str:
    return FLOAT_FMT.format(float(value))


# The CSV cell of each exact type a row holds; ``_fmt_any`` takes the rest.
_FORMATS = {
    type(None): _fmt_any, str: str, bool: _fmt_int, np.bool_: _fmt_int,
    **{t: _fmt_int for t in (int, *(np.dtype(c).type for c in np.typecodes["AllInteger"]))},
    **{t: _fmt_float for t in (float, *(np.dtype(c).type for c in np.typecodes["Float"]))},
}


def _fmt(value) -> str:
    return _FORMATS.get(type(value), _fmt_any)(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


class Market:
    """Shared paths for one experiment, so every option and every spot is
    priced with common random numbers.

    One factor draw covers the option's life on the grid [delta_t, then
    max(1, steps - 1) equal steps]: the valuation-date bundle is all of it
    and the post-move bundle its columns after the first, so both dates
    share draws and barrier dates and d1 sees only the period's move.  A
    period reaching maturity draws ``steps`` equal steps and values the
    post-move date by payoffs.  ``steps`` is ``mc.steps`` when an option
    monitors a barrier, and 1 otherwise: a European reads only the factor
    over each date's cell, and every sampler is exact over a cell of any
    length, so the draw is then [delta_t, maturity - delta_t] (or
    [maturity]) and its law does not depend on ``mc.steps``; a larger
    ``mc.steps`` is logged at INFO as unused.  Each bundle's count of
    paths absorbed at zero is logged, at WARNING when it is not zero.
    """

    def __init__(self, cfg: ExperimentConfig, rng: np.random.Generator):
        self.cfg = cfg
        n = cfg.half_width
        self.grid = cfg.s0 + cfg.s_step * np.arange(-n, n + 1)
        self.maturity = maturity = cfg.options[0].maturity
        # an option holds a barrier exactly when its kind monitors one
        steps = cfg.steps if any(o.barrier is not None for o in cfg.options) else 1
        remaining = maturity - cfg.delta_t
        if remaining > 1e-14:
            later = max(1, steps - 1)
            dts = np.array([cfg.delta_t] + [remaining / later] * later)
        else:
            dts = np.full(steps, maturity / steps)
        if cfg.steps > len(dts):
            _log.info("mc.steps = %d is not used: no option monitors a barrier, "
                      "so each date draws one cell", cfg.steps)
        factors = relative_factors(cfg.model, dts, len(dts), cfg.n_paths, rng, cfg.antithetic)
        self.bundle_full = PathBundle(factors, maturity)
        self.bundle_later = PathBundle(factors[:, 1:], remaining) if remaining > 1e-14 else None
        for date, bundle in (("valuation", self.bundle_full), ("post-move", self.bundle_later)):
            if bundle is not None:
                _log.log(logging.WARNING if bundle.n_bankrupt else logging.INFO,
                         "%s-date bundle: %d of %d paths absorbed at zero",
                         date, bundle.n_bankrupt, bundle.n_paths)

    def values_later(self, option: OptionSpec, spots) -> np.ndarray:
        """Prices after the hedging period at every spot (payoffs once the
        option has expired)."""
        spots = np.asarray(spots, dtype=float)
        if self.bundle_later is None:
            return np.asarray(payoff(option, spots), dtype=float)
        return self.bundle_later.values(option, spots, self.cfg.r)

    def ladder(self, option: OptionSpec, table: StencilTable) -> tuple[DerivativeLadder, float, float]:
        """(ladder, price_t, price_t_se) with d1 from the forward difference
        over the hedging period."""
        cfg = self.cfg
        price_t, se_t = self.bundle_full.price(option, cfg.s0, cfg.r)
        curve = self.values_later(option, self.grid)
        d1 = (curve[cfg.half_width] - price_t) / cfg.delta_t
        return derivative_ladder(curve, table, cfg.p_max, cfg.s_step, d1), price_t, se_t


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
        changes = market.values_later(opt, cfg.s0 + np.asarray(cfg.delta_s)) - price_t
        for ds, exact in zip(cfg.delta_s, changes):
            scen = HedgeScenario(
                s_t=cfg.s0, delta_s=ds, delta_t=cfg.delta_t, r=cfg.r, alpha_tol=cfg.alpha_tol,
            )
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
    if len(cfg.options) != 1:
        raise ConfigError(f"config field 'options' holds {len(cfg.options)} options; "
                          "a convergence run uses one")
    if len(cfg.delta_s) != 1:
        raise ConfigError(f"config field 'scenario.delta_s' holds {len(cfg.delta_s)} moves; "
                          "a convergence run uses one")
    rng = np.random.default_rng(cfg.seed)
    table = build_lookup_table(cfg.half_width, cfg.p_max)
    market = Market(cfg, rng)
    opt = cfg.options[0]
    ds = cfg.delta_s[0]
    ladder, price_t, se_t = market.ladder(opt, table)
    exact = market.values_later(opt, [cfg.s0 + ds])[0] - price_t
    sums = taylor_sums(ladder, cfg.delta_t, ds, cfg.p_max)
    rows = [
        (i, ladder.derivative(i), sums[i], exact, price_t, se_t, cfg.hash)
        for i in range(1, cfg.p_max + 1)
    ]
    header = (
        "term", "d2_value", "cumulative_approx", "exact_change",
        "mc_price", "mc_se", "config_hash",
    )
    return header, rows


# ---------------------------------------------------------------------------
# Hedging P&L
# ---------------------------------------------------------------------------


def _simulate_outcomes(cfg: ExperimentConfig, rng: np.random.Generator):
    """One-period scenarios drawn from the model, with their jumps in time
    order as relative jumps dS/S_- (the spec turns a variance-gamma
    log-jump x into e^x - 1).  A scenario absorbed at zero raises
    ``BankruptcyError``: no hedge is defined past default."""
    factors, jumps = relative_factors(cfg.model, cfg.delta_t, 1, cfg.n_scenarios, rng,
                                      records=True)
    moves = cfg.s0 * (factors[:, 0] - 1.0)
    bankrupt = int(np.count_nonzero(factors[:, 0] == 0.0))
    if bankrupt:
        raise BankruptcyError(f"{bankrupt} of {cfg.n_scenarios} scenarios hit a jump <= -1")
    order = np.lexsort((jumps.time, jumps.path))
    cuts = np.searchsorted(jumps.path[order], np.arange(1, cfg.n_scenarios))
    spec = cfg.model.jump_spec
    relative = jumps.size[order] if spec is None else spec.relative_jump(jumps.size[order])
    return [
        ScenarioOutcome(delta_s=float(ds), jump_times=times, jump_sizes=sizes)
        for ds, times, sizes in zip(moves, np.split(jumps.time[order], cuts),
                                    np.split(relative, cuts))
    ]


@dataclass(frozen=True)
class _Book:
    """What every strategy hedges: the option's ladder on the shared market,
    its Taylor coefficients C_i for i = 2..q, the run's settings and the
    scenario outcomes with their moves."""

    cfg: ExperimentConfig
    market: Market
    table: StencilTable
    ladder: DerivativeLadder
    moments: MomentVector
    scenario: HedgeScenario
    coeffs: dict
    outcomes: list
    moves: np.ndarray

    def delta_leg(self, delta_s):
        """Bank and stock: the time decay d1 dt plus the linear term D1 dS."""
        return self.ladder.d1 * self.cfg.delta_t + self.ladder.derivative(1) * delta_s

    def swap_spec(self, order: int) -> SwapSpec:
        cfg = self.cfg
        return SwapSpec(order=order, delta_s=cfg.delta_t, n=3, strike=cfg.swap_strike,
                        unit_price=cfg.swap_unit_price)


def _ledger(book: _Book, basket):
    """The Taylor ledger to order q with ``basket(i, c_i)`` for each term."""
    ledger = assemble_ledger(book.ladder, book.scenario, book.cfg.pnl_q, basket)
    return np.array([ledger.change_of_value(o.delta_s, o) for o in book.outcomes])


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
    return (
        book.delta_leg(book.moves) + weights.bank_cash * bank_growth(cfg.r, cfg.delta_t)
        + weights.stock_units * book.moves
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
    return np.array([
        book.delta_leg(o.delta_s) + sum(leg.change_of_value(o.delta_s) for leg in legs)
        for o in book.outcomes
    ])


def _delta(book: _Book):
    # naive benchmark: bank + stock only, no higher-term hedging
    return book.delta_leg(book.moves)


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
    # realized change of the hedge side: -sum w_i dF_i plus the
    # deterministic decay the weights cannot remove
    total = np.full(len(book.moves), book.ladder.d1 * cfg.delta_t)
    spots = cfg.s0 + book.moves
    for w, (opt, lad, p_t) in zip(system.weights, instruments):
        d_inst = market.values_later(opt, spots) - p_t
        total += -w * d_inst + w * lad.d1 * cfg.delta_t
    return total


# Each strategy maps the scenario outcomes to the hedge side's change of
# value, one entry per outcome; config.STRATEGY_NAMES lists the same names.
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

    residual = (option change) - (hedge change); the option change depends
    on the scenario alone, so every scenario spot is repriced once per run
    and shared by every strategy.  One-jump-regime violations are counted,
    never dropped, and moves beyond the stencil span are logged.  Returns
    (header, rows, summary_header, summary_rows).
    """
    if len(cfg.options) != 1:
        raise ConfigError(f"config field 'options' holds {len(cfg.options)} options; "
                          "a pnl run uses one")
    q = cfg.pnl_q
    try:  # the hedges need a two-sided measure, which a sigma = 0 variance gamma lacks
        moments = moment_vector(cfg.model, max(q + 2, 3))
    except DegenerateModelError as err:
        raise ConfigError(f"config field 'model.vg_sigma' must be > 0 for a pnl run: "
                          f"{err}") from None
    n_scenarios = cfg.n_scenarios
    rng = np.random.default_rng(cfg.seed)
    table = build_lookup_table(cfg.half_width, cfg.p_max)
    market = Market(cfg, rng)
    opt = cfg.options[0]
    ladder, price_t, _ = market.ladder(opt, table)
    outcomes = _simulate_outcomes(cfg, rng)
    moves = np.array([o.delta_s for o in outcomes])
    span = cfg.half_width * cfg.s_step
    outside = int(np.count_nonzero(np.abs(moves) > span))
    if outside:
        _log.warning(
            "%d of %d scenario moves exceed the stencil span |dS| <= %g; "
            "their hedges extrapolate the derivative ladder",
            outside, n_scenarios, span,
        )
    book = _Book(
        cfg=cfg, market=market, table=table, ladder=ladder, moments=moments,
        scenario=HedgeScenario(
            s_t=cfg.s0, delta_s=cfg.delta_s[0], delta_t=cfg.delta_t, r=cfg.r,
            alpha_tol=cfg.alpha_tol,
        ),
        coeffs={i: ladder.derivative(i) / math.factorial(i) for i in range(2, q + 1)},
        outcomes=outcomes,
        moves=moves,
    )
    exact = market.values_later(opt, cfg.s0 + moves) - price_t
    multi_jump = sum(1 for o in outcomes if o.n_jumps > 1)

    rows = []
    summaries = []
    for name in cfg.strategies:
        residuals = exact - _STRATEGIES[name](book)
        rows.extend(
            (idx, name, o.delta_s, residuals[idx], o.n_jumps, cfg.hash)
            for idx, o in enumerate(outcomes)
        )
        summaries.append(
            (
                name,
                float(residuals.mean()),
                float(residuals.std(ddof=1)) if n_scenarios > 1 else 0.0,
                multi_jump if name in _ONE_JUMP else 0,
                n_scenarios,
                cfg.hash,
            )
        )
    header = ("scenario", "strategy", "delta_s", "residual", "n_jumps", "config_hash")
    sum_header = ("strategy", "mean", "sd", "regime_violations", "n_scenarios", "config_hash")
    return header, rows, sum_header, summaries
