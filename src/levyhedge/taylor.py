"""Double Taylor decomposition of a price change and the hedge ledger.

The price change over one hedging period splits into a deterministic
time series D1^i F (dt)^i / i! and a spot series D2^i F (dS)^i / i!.
The time series is replicated by one bank deposit; the linear spot term
by stock; each higher term i by C_i = D2^i F / i! units of a basket
P^(i) whose change of value is exactly (dS)^i.  ``find_q`` measures how
many spot terms a tolerance demands, for a whole set of moves in one
pass over an (orders x moves) array of partial sums, the array
``taylor_sums`` reads too; a ``HedgeLedger`` marks the terms on one
period, the moves or a ``ScenarioOutcome`` holding them.

Every bank leg in the library accrues by ``bank_growth(r, dt)`` =
e^{r dt} - 1 and is sized by dividing through it: it needs r != 0, and a
negative rate finances a deposit like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IncompleteMarketError, LadderOrderError, NeedsHigherOrderError, ZeroRateError
from .pricing import DerivativeLadder

__all__ = [
    "HedgeScenario",
    "HedgeLedger",
    "taylor_sums",
    "find_q",
    "bank_growth",
    "bank_term",
    "assemble_ledger",
]


@dataclass(frozen=True)
class HedgeScenario:
    """One hedging experiment: spot, move, period, rate."""

    s_t: float
    delta_s: float
    delta_t: float
    r: float

    def __post_init__(self):
        if not self.delta_t > 0:
            raise ValueError("delta_t must be > 0")
        if not (math.isfinite(self.delta_s) and math.isfinite(self.r)):
            raise ValueError(f"delta_s and r must be finite, got {self.delta_s} and {self.r}")
        if not (self.s_t > 0 and self.s_t + self.delta_s > 0):
            raise ValueError("spot must stay positive over the move")


def _partial_sums(ladder: DerivativeLadder, delta_t, moves, p: int) -> np.ndarray:
    """The (p + 1) x len(moves) array of partial sums: row k holds
    D1^1 F dt + sum_{i<=k} D2^i F (dS)^i / i! for every move.

    Each term is (D2^i F * dS^i) / i!, with dS^i Python's ``float ** int``
    (numpy's power rounds some of them differently), and ``np.cumsum``
    adds the orders one at a time, so every sum equals a loop over the
    orders of one move, bit for bit."""
    if p > ladder.order():
        raise LadderOrderError(f"ladder carries orders 1..{ladder.order()}, asked {p}")
    moves = [float(ds) for ds in moves]
    orders = range(1, p + 1)
    terms = np.empty((p + 1, len(moves)))
    terms[0] = ladder.d1 * delta_t
    if p:
        powers = np.array([ds**i for i in orders for ds in moves]).reshape(p, len(moves))
        factorials = np.array([float(math.factorial(i)) for i in orders])
        terms[1:] = np.array(ladder.d2[:p])[:, None] * powers / factorials[:, None]
    return np.cumsum(terms, axis=0)


def taylor_sums(ladder: DerivativeLadder, delta_t, delta_s, p: int) -> list:
    """Partial Taylor sums D1^1 F dt + sum_{i<=k} D2^i F (dS)^i / i!, k = 0..p.

    ``delta_s`` is one move (each sum a float) or an array of moves (each
    sum an array of its own, one entry per move)."""
    if np.ndim(delta_s) == 0:
        return _partial_sums(ladder, delta_t, [delta_s], p)[:, 0].tolist()
    return list(_partial_sums(ladder, delta_t, delta_s, p))


def find_q(ladder: DerivativeLadder, delta_t: float, moves, exact_changes, alpha_tol: float):
    """Per move, the smallest truncation order q >= 1 whose Taylor sum lands
    within ``alpha_tol`` of that move's repriced change; returns the arrays
    (q, achieved_error), one entry per move.

    The moves are searched together: one (orders x moves) array of partial
    sums (``_partial_sums``), one comparison with the tolerance and one
    first-met order per column.  A lone move is a set of one.

    The changes and the ladder's d1 must share one base price: the time
    term d1 dt is part of every sum.  ``run_qtable`` passes the post-move
    curve's own changes V(s0 + dS) - V(s0) and its ``Market.ladder``, whose
    d1 is 0, so no valuation-date price enters the error; ``run_pnl``
    measures every residual against the same change and ladder.

    Raises ``NeedsHigherOrderError`` when some move meets the tolerance at
    no order of the ladder.  Its ``best_order`` and ``best_error`` hold,
    per move, q and its error where the tolerance is met and the order of
    least error and that error where it is not; a move is met exactly when
    its ``best_error`` is within ``alpha_tol``.  A ladder with no orders
    raises ``LadderOrderError``, and changes that are not one per move
    raise ``ValueError``.
    """
    p = ladder.order()
    if p < 1:
        raise LadderOrderError("a q search needs a ladder of order 1 or more")
    changes = np.asarray(exact_changes, dtype=float)
    if changes.shape != (len(moves),):
        raise ValueError(f"find_q needs one change per move: {len(moves)} moves, "
                         f"changes of shape {changes.shape}")
    errors = np.abs(changes - _partial_sums(ladder, delta_t, moves, p)[1:])
    within = errors <= alpha_tol
    met = within.any(axis=0)
    order = np.where(met, within.argmax(axis=0), errors.argmin(axis=0))
    error = errors[order, np.arange(errors.shape[1])]
    if met.all():
        return order + 1, error
    raise NeedsHigherOrderError(
        f"tolerance {alpha_tol} unreachable within ladder of length {p} for moves "
        f"{np.asarray(moves)[~met].tolist()}; best errors {error[~met].tolist()} at orders "
        f"{(order[~met] + 1).tolist()}",
        best_error=error,
        best_order=order + 1,
    )


def bank_growth(r: float, delta_t: float) -> float:
    """e^{r dt} - 1, the interest on one unit of deposit; r = 0 raises."""
    if r == 0:
        raise ZeroRateError("a bank leg needs r != 0: it is sized by dividing by e^{r dt} - 1")
    return math.exp(r * delta_t) - 1.0


def bank_term(d1_terms, scenario: HedgeScenario) -> float:
    """Deposit replicating the deterministic time series D1^1 F, D1^2 F, ...

    deposit * (e^{r dt} - 1) = sum_i D1^i F (dt)^i / i!, so the accrued
    interest pays out exactly the time decay.
    """
    required = sum(
        term * scenario.delta_t**i / math.factorial(i)
        for i, term in enumerate(d1_terms, start=1)
    )
    return required / bank_growth(scenario.r, scenario.delta_t)


@dataclass(frozen=True)
class HedgeLedger:
    """Replicating positions for one hedging period.

    ``scenario`` gives the rate and period the bank leg accrues over;
    ``term_positions[i]`` is the basket holding C_i (its ``coefficient``)
    units of P^(i), whose ``change_of_value`` reproduces C_i (dS)^i.
    """

    bank_cash: float
    stock_units: float
    scenario: HedgeScenario
    term_positions: dict[int, object] = field(default_factory=dict)

    def change_of_value(self, period):
        """Mark the ledger on a realized period: a move (the mark is a
        float), an array of moves or a ``ScenarioOutcome`` (a mark per move
        or scenario).  The stock leg reads the moves (``period.delta_s`` of
        an outcome) and every basket is marked on ``period`` itself, so
        swap and jump baskets may share a ledger."""
        sc = self.scenario
        delta_s = getattr(period, "delta_s", period)
        total = self.bank_cash * bank_growth(sc.r, sc.delta_t) + self.stock_units * delta_s
        for basket in self.term_positions.values():
            total += basket.change_of_value(period)
        return total


def assemble_ledger(
    ladder: DerivativeLadder,
    scenario: HedgeScenario,
    q: int,
    basket_provider=None,
) -> HedgeLedger:
    """Build the full hedge: bank deposit for the time term, D2^1 F units
    of stock, and C_i = D2^i F / i! units of basket i for i = 2..q.

    ``basket_provider(i, c_i)`` must return the basket holding C_i units
    of P^(i) for each required order, which the ledger keeps as
    ``term_positions[i]``; returning None raises ``IncompleteMarketError``
    naming the missing order.
    """
    if q < 0 or q > ladder.order():
        raise ValueError(f"q={q} outside ladder range 0..{ladder.order()}")
    cash = bank_term((ladder.d1,), scenario)
    stock = ladder.derivative(1) if q >= 1 else 0.0
    positions: dict[int, object] = {}
    for i in range(2, q + 1):
        c_i = ladder.derivative(i) / math.factorial(i)
        basket = basket_provider(i, c_i) if basket_provider is not None else None
        if basket is None:
            raise IncompleteMarketError(
                f"no basket available for Taylor term {i}", order=i
            )
        positions[i] = basket
    return HedgeLedger(
        bank_cash=cash,
        stock_units=stock,
        term_positions=positions,
        scenario=scenario,
    )
