"""Batch experiments: q tables, term-by-term convergence, hedging P&L.

Every run is a pure function of (config, seed): paths derive from one
seeded generator and its spawned streams, one per chunk of a factor draw
(the chunks are fixed, whatever the worker count), accumulation is
single-threaded and ordered, and CSV
floats are printed through one fixed format, so identical inputs yield
byte-identical outputs.  Each row carries the config hash.

All randomness goes through ``models.relative_factors``: ``Market`` makes
at most one factor draw, on the ``mc.steps`` barrier monitoring grid when
an option monitors a barrier and one cell per date otherwise.  Its columns
are the post-move paths, preceded by the period's own cell only for
``converge``, the one run that reports the valuation-date price.  A q
error and a P&L residual each read the post-move curve alone, since that
price cancels from both, so ``qtable`` and ``pnl`` draw only the post-move
cells, and nothing when the period reaches maturity and the post-move
curve is the payoff.  The P&L scenarios are one more draw of one period
with jump records, held as one scenario set (``ScenarioOutcome``).  Every
P&L strategy marks the whole set in one call, and ``write_csv`` formats
column by column, each per-scenario column once for every strategy's
rows.  A malformed run raises ``ConfigError`` naming the config field.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from collections.abc import Sequence
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
from .stencil import build_lookup_table
from .swaps import RealizedHistory, SwapSpec, moment_swap_basket
from .taylor import HedgeScenario, assemble_ledger, bank_growth, find_q, taylor_sums

__all__ = ["run_qtable", "run_converge", "run_pnl", "write_csv"]

_log = logging.getLogger(__name__)

FLOAT_FMT = "{:.12g}"

# Benchmark q values for the canonical S0 = K = 5000 grid (tolerance 0.01,
# moves 10..70, up barrier 5050, down barrier 4950), emitted next to the
# computed values.  With delta_t = T (the criterion-6 config) the curve is
# the payoff, and every q it computes equals its reference, whatever the seed.
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
# The contract REFERENCE_Q describes, per kind its barrier, and the stencil
# (half_width, p_max, s_step) its q values were computed on.
_REFERENCE_BARRIER = {"european_call": None, "up_and_out": 5050.0, "up_and_in": 5050.0,
                      "down_and_out": 4950.0, "down_and_in": 4950.0}
_REFERENCE_STENCIL = (20, 39, 10.0)


def _reference_q(cfg: ExperimentConfig, option: OptionSpec, delta_s: float):
    """REFERENCE_Q's q for one row, or None unless the row is the canonical
    contract on its stencil: S0 = K = 5000, the kind's barrier, tolerance
    0.01, a period reaching maturity, and a move of exactly 10, 20, .., 70."""
    canonical = (
        cfg.s0 == option.strike == 5000.0
        and option.kind in _REFERENCE_BARRIER
        and option.barrier == _REFERENCE_BARRIER[option.kind]
        and cfg.alpha_tol == 0.01
        and cfg.delta_t == option.maturity
        and (cfg.half_width, cfg.p_max, cfg.s_step) == _REFERENCE_STENCIL
        and delta_s == int(delta_s)
    )
    return REFERENCE_Q.get((option.kind, int(delta_s))) if canonical else None


def _fmt(value) -> str:
    """The CSV cell of one value."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT.format(float(value))
    return str(value)


def _cells(values) -> list:
    """The CSV cell of each value; a float or an integer array is formatted
    in one pass."""
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind == "f":
        return list(map(FLOAT_FMT.format, values.tolist()))
    if kind in ("i", "u"):
        return list(map(str, values.tolist()))
    return list(map(_fmt, values))


@dataclass(frozen=True)
class Column:
    """One CSV column held compactly: each of ``values`` repeated ``repeat``
    times in a row, and that run written ``tile`` times over."""

    values: Sequence
    repeat: int = 1
    tile: int = 1

    def __len__(self) -> int:
        return len(self.values) * self.repeat * self.tile

    def __getitem__(self, row: int):
        return self.values[row // self.repeat % len(self.values)]

    def cells(self) -> list:
        """Every row's cell, each distinct value formatted once."""
        cells = _cells(self.values)
        if self.repeat > 1:
            cells = [cell for cell in cells for _ in range(self.repeat)]
        return cells * self.tile


class Table(Sequence):
    """Rows held as ``Column``s of equal length; indexing and iterating give
    row tuples, and ``write_csv`` formats it column by column."""

    def __init__(self, columns: list):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, row: int) -> tuple:
        row = range(len(self))[row]
        return tuple(column[row] for column in self.columns)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows``, a sequence of row tuples or a
    ``Table``, formatting one column at a time: a ``Table`` column formats
    each of its values once, and a float or integer array in one pass."""
    columns = rows.columns if isinstance(rows, Table) else [Column(c) for c in zip(*rows)]
    lines = [",".join(header), *map(",".join, zip(*(c.cells() for c in columns)))]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class Market:
    """Shared paths for one experiment, so every option and every spot is
    priced with common random numbers.

    The post-move date's cells are max(1, steps - 1) equal steps over the
    remaining life maturity - delta_t.  A market asked at construction for
    the valuation date (``valuation_date``; only ``run_converge`` asks)
    makes one draw on [delta_t, then the post-move cells]: the
    valuation-date bundle is all of it and the post-move bundle its columns
    after the first, so both dates share draws and barrier dates and d1
    sees only the period's move.  Any other market draws the post-move
    cells alone.  A period reaching maturity values the post-move date by
    payoffs and logs so at INFO: the valuation date is then ``steps``
    equal steps, and a market that does not ask for it draws nothing.  The
    factor matrix is never kept.  ``steps`` is ``mc.steps`` when an option
    monitors a barrier, and 1 otherwise: a European reads only the factor
    over each date's cell, and every sampler is exact over a cell of any
    length, so the draw does not depend on ``mc.steps``; a larger
    ``mc.steps`` is logged at INFO as unused.  Each bundle's count of
    paths absorbed at zero is logged, at WARNING when it is not zero.  The
    stencil table, of the grid's ``half_width`` and ``p_max``, is built
    here.
    """

    def __init__(self, cfg: ExperimentConfig, rng: np.random.Generator,
                 valuation_date: bool = False):
        self.cfg = cfg
        n = cfg.half_width
        self.grid = cfg.s0 + cfg.s_step * np.arange(-n, n + 1)
        self.table = build_lookup_table(n, cfg.p_max)
        self.maturity = maturity = cfg.options[0].maturity
        # an option holds a barrier exactly when its kind monitors one
        steps = cfg.steps if any(o.barrier is not None for o in cfg.options) else 1
        remaining = maturity - cfg.delta_t
        if remaining > 0:
            later = max(1, steps - 1)
            dts = [cfg.delta_t] + [remaining / later] * later
        else:
            _log.info("post-move date is expiry: its curve is the payoff, and no paths "
                      "were drawn for it")
            dts = [maturity / steps] * steps
        if cfg.steps > len(dts):
            _log.info("mc.steps = %d is not used: no option monitors a barrier, "
                      "so each date draws one cell", cfg.steps)
        if not valuation_date:  # the post-move cells alone
            dts = dts[1:] if remaining > 0 else []
        self.bundle_full = self.bundle_later = None
        if dts:
            factors = relative_factors(cfg.model, np.array(dts), len(dts), cfg.n_paths, rng,
                                       cfg.antithetic)
            if valuation_date:
                self.bundle_full = PathBundle(factors, maturity)
            if remaining > 0:
                self.bundle_later = PathBundle(factors[:, -later:], remaining)
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
            return payoff(option, spots)
        return self.bundle_later.values(option, spots, self.cfg.r)

    def ladder(self, option: OptionSpec) -> tuple[DerivativeLadder, float]:
        """(ladder, V_later(s0)): the stencil ladder of the post-move curve
        on ``grid``, with d1 = 0, and the curve's centre cell.  A change
        measured from that cell, V_later(s0 + dS) - V_later(s0), is what the
        ladder's Taylor sums approximate: the valuation-date price would
        enter both the change and d1 dt, and cancel."""
        cfg = self.cfg
        curve = self.values_later(option, self.grid)
        return (derivative_ladder(curve, self.table, cfg.p_max, cfg.s_step),
                float(curve[cfg.half_width]))


def run_qtable(cfg: ExperimentConfig):
    """One row per (option, delta_s): the truncation order q meeting the
    tolerance and the error it achieved.  Returns (header, rows, ok).

    Each error reads the post-move curve alone (``Market.ladder``): the
    exact change is V_later(s0 + dS) - V_later(s0).  The run never prices
    the valuation date; at an expired post-move date the curve is the
    payoff and the run draws no paths.
    """
    market = Market(cfg, np.random.default_rng(cfg.seed))
    rows = []
    ok = True
    for opt in cfg.options:
        ladder, base = market.ladder(opt)
        changes = market.values_later(opt, cfg.s0 + np.asarray(cfg.delta_s)) - base
        try:
            qs, errors = find_q(ladder, cfg.delta_t, cfg.delta_s, changes, cfg.alpha_tol)
        except NeedsHigherOrderError as exc:
            ok = False
            qs, errors = exc.best_order, exc.best_error
        for ds, q, err in zip(cfg.delta_s, qs.tolist(), errors.tolist()):
            met = err <= cfg.alpha_tol  # an unmet move's order is its least error's
            rows.append((opt.kind, ds, q if met else None, err, _reference_q(cfg, opt, ds),
                         cfg.hash))
    header = ("option", "delta_s", "q", "achieved_error", "q_reference", "config_hash")
    return header, rows, ok


def _lone_option(cfg: ExperimentConfig, run: str) -> OptionSpec:
    """The config's one option; ``ConfigError`` when a ``run`` run gets more."""
    if len(cfg.options) != 1:
        raise ConfigError(f"config field 'options' holds {len(cfg.options)} options; "
                          f"a {run} run uses one")
    return cfg.options[0]


def run_converge(cfg: ExperimentConfig):
    """Term-by-term convergence for a single option and a single move:
    rows (i, D2^i, cumulative approximation), Table-style.

    The only run that reports the valuation-date price: its exact change is
    V_later(s0 + dS) - price_t and d1 the forward difference
    (V_later(s0) - price_t) / dt over the period."""
    opt = _lone_option(cfg, "convergence")
    if len(cfg.delta_s) != 1:
        raise ConfigError(f"config field 'scenario.delta_s' holds {len(cfg.delta_s)} moves; "
                          "a convergence run uses one")
    market = Market(cfg, np.random.default_rng(cfg.seed), valuation_date=True)
    ds = cfg.delta_s[0]
    price_t, se_t = market.bundle_full.price(opt, cfg.s0, cfg.r)
    ladder, base = market.ladder(opt)
    ladder = dataclasses.replace(ladder, d1=(base - price_t) / cfg.delta_t)
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


def _simulate_outcomes(cfg: ExperimentConfig, rng: np.random.Generator) -> ScenarioOutcome:
    """One-period scenarios drawn from the model, as one scenario set: the
    moves, each scenario's jump count, and the jumps as relative jumps
    dS/S_- (the spec turns a variance-gamma log-jump x into e^x - 1),
    listed by scenario and then time.  A scenario absorbed at zero raises
    ``BankruptcyError``: no hedge is defined past default."""
    factors, jumps = relative_factors(cfg.model, cfg.delta_t, 1, cfg.n_scenarios, rng,
                                      records=True)
    moves = cfg.s0 * (factors[:, 0] - 1.0)
    bankrupt = int(np.count_nonzero(factors[:, 0] == 0.0))
    if bankrupt:
        raise BankruptcyError(f"{bankrupt} of {cfg.n_scenarios} scenarios hit a jump <= -1")
    order = np.lexsort((jumps.time, jumps.path))
    spec = cfg.model.jump_spec
    sizes = jumps.size[order] if spec is None else spec.relative_jump(jumps.size[order])
    return ScenarioOutcome(delta_s=moves, jump_times=jumps.time[order], jump_sizes=sizes,
                           n_jumps=np.bincount(jumps.path, minlength=cfg.n_scenarios))


@dataclass(frozen=True)
class _Book:
    """What every strategy hedges: the option's ladder on the shared market,
    its Taylor coefficients C_i for i = 2..q, the run's settings and the
    scenario set."""

    cfg: ExperimentConfig
    market: Market
    ladder: DerivativeLadder
    moments: MomentVector
    scenario: HedgeScenario
    coeffs: dict
    outcomes: ScenarioOutcome

    @property
    def moves(self) -> np.ndarray:
        return self.outcomes.delta_s

    def delta_leg(self, delta_s):
        """Bank and stock: the time decay d1 dt plus the linear term D1 dS."""
        return self.ladder.d1 * self.cfg.delta_t + self.ladder.derivative(1) * delta_s

    def swap_spec(self, order: int) -> SwapSpec:
        cfg = self.cfg
        return SwapSpec(order=order, delta_s=cfg.delta_t, n=3, strike=cfg.swap_strike,
                        unit_price=cfg.swap_unit_price)


def _taylor_swaps(book: _Book):
    history = RealizedHistory(sums={k: 0.0 for k in book.coeffs})
    ledger = assemble_ledger(book.ladder, book.scenario, book.cfg.pnl_q, lambda i, c_i:
                             moment_swap_basket(c_i, book.scenario, book.swap_spec(i), history))
    return ledger.change_of_value(book.outcomes)


def _taylor_pja(book: _Book):
    state = PathState(t=0.0)
    ledger = assemble_ledger(book.ladder, book.scenario, book.cfg.pnl_q, lambda i, c_i:
                             pja_basket_general(c_i, book.scenario, i, state, book.moments))
    return ledger.change_of_value(book.outcomes)


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
    return book.delta_leg(book.moves) + sum(leg.change_of_value(book.outcomes) for leg in legs)


def _delta(book: _Book):
    # naive benchmark: bank + stock only, no higher-term hedging
    return book.delta_leg(book.moves)


def _moment_neutral(book: _Book):
    market = book.market
    instruments = []
    for strike in book.cfg.neutral_strikes:
        opt = OptionSpec(kind=EUROPEAN_CALL, strike=strike, maturity=market.maturity)
        instruments.append((opt, *market.ladder(opt)))
    orders = range(1, len(instruments) + 1)
    system = solve_neutrality(
        np.array([book.ladder.derivative(j) for j in orders]),
        [np.array([lad.derivative(j) for j in orders]) for _, lad, _ in instruments],
    )
    # realized change of the hedge side: -sum w_i dF_i, each instrument's
    # change read off its post-move curve as the option's is
    spots = book.cfg.s0 + book.moves
    total = 0.0
    for w, (opt, _, base) in zip(system.weights, instruments):
        total = total - w * (market.values_later(opt, spots) - base)
    return total


# Each strategy maps the scenario set to the hedge side's change of value,
# one entry per scenario; config.STRATEGY_NAMES lists the same names.
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

    residual = (option change) - (hedge change); the option change
    V_later(s0 + dS) - V_later(s0) depends on the scenario alone, so every
    scenario spot is repriced once per run and shared by every strategy.
    Every hedge is built on ``Market.ladder``, with d1 = 0: a bank leg
    paying d1 dt = V_later(s0) - price_t would only add back the
    valuation-date price the change leaves out, so the run never draws or
    prices the valuation date.  One-jump-regime violations are counted,
    never dropped, and moves beyond the stencil span are logged.  Returns
    (header, rows, summary_header, summary_rows).
    """
    opt = _lone_option(cfg, "pnl")
    q = cfg.pnl_q
    try:  # the hedges need a two-sided measure, which a sigma = 0 variance gamma lacks
        moments = moment_vector(cfg.model, max(q + 2, 3))
    except DegenerateModelError as err:
        raise ConfigError(f"config field 'model.vg_sigma' must be > 0 for a pnl run: "
                          f"{err}") from None
    n_scenarios = cfg.n_scenarios
    rng = np.random.default_rng(cfg.seed)
    market = Market(cfg, rng)
    ladder, base = market.ladder(opt)
    outcomes = _simulate_outcomes(cfg, rng)
    moves = outcomes.delta_s
    span = cfg.half_width * cfg.s_step
    outside = int(np.count_nonzero(np.abs(moves) > span))
    if outside:
        _log.warning(
            "%d of %d scenario moves exceed the stencil span |dS| <= %g; "
            "their hedges extrapolate the derivative ladder",
            outside, n_scenarios, span,
        )
    book = _Book(
        cfg=cfg, market=market, ladder=ladder, moments=moments,
        scenario=HedgeScenario(
            s_t=cfg.s0, delta_s=cfg.delta_s[0], delta_t=cfg.delta_t, r=cfg.r,
        ),
        coeffs={i: ladder.derivative(i) / math.factorial(i) for i in range(2, q + 1)},
        outcomes=outcomes,
    )
    exact = market.values_later(opt, cfg.s0 + moves) - base
    multi_jump = int(np.count_nonzero(outcomes.n_jumps > 1))

    names = list(cfg.strategies)
    residuals = [exact - _STRATEGIES[name](book) for name in names]
    summaries = [
        (
            name,
            float(res.mean()),
            float(res.std(ddof=1)) if n_scenarios > 1 else 0.0,
            multi_jump if name in _ONE_JUMP else 0,
            n_scenarios,
            cfg.hash,
        )
        for name, res in zip(names, residuals)
    ]
    # the scenario columns are shared by every strategy's block of rows
    each = len(names)
    rows = Table([
        Column(np.arange(n_scenarios), tile=each),
        Column(names, repeat=n_scenarios),
        Column(moves, tile=each),
        Column(np.concatenate(residuals)),
        Column(outcomes.n_jumps, tile=each),
        Column([cfg.hash], repeat=n_scenarios * each),
    ])
    header = ("scenario", "strategy", "delta_s", "residual", "n_jumps", "config_hash")
    sum_header = ("strategy", "mean", "sd", "regime_violations", "n_scenarios", "config_hash")
    return header, rows, sum_header, summaries
