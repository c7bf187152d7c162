"""Double Taylor decomposition of a price change and the hedge ledger.

The price change over one hedging period splits into a deterministic
time series D1^i F (dt)^i / i! and a spot series D2^i F (dS)^i / i!.
The time series is replicated by one bank deposit; the linear spot term
by stock; each higher term i by C_i = D2^i F / i! units of a basket
P^(i) whose change of value is exactly (dS)^i.  ``find_q`` measures how
many spot terms a tolerance demands.

Every bank leg in the library accrues by ``bank_growth(r, dt)`` =
e^{r dt} - 1 and is sized by dividing through it: it needs r != 0, and a
negative rate finances a deposit like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import IncompleteMarketError, NeedsHigherOrderError, ZeroRateError
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
    """One hedging experiment: spot, move, period, rate, tolerance."""

    s_t: float
    delta_s: float
    delta_t: float
    r: float
    alpha_tol: float = 0.01

    def __post_init__(self):
        if not self.delta_t > 0:
            raise ValueError("delta_t must be > 0")
        if not self.alpha_tol > 0:
            raise ValueError("alpha_tol must be > 0")
        if not (math.isfinite(self.delta_s) and math.isfinite(self.r)):
            raise ValueError(f"delta_s and r must be finite, got {self.delta_s} and {self.r}")
        if not (self.s_t > 0 and self.s_t + self.delta_s > 0):
            raise ValueError("spot must stay positive over the move")


def taylor_sums(ladder: DerivativeLadder, delta_t, delta_s, p: int) -> list:
    """Partial Taylor sums D1^1 F dt + sum_{i<=k} D2^i F (dS)^i / i!, k = 0..p."""
    total = ladder.d1 * delta_t
    sums = [total]
    for i in range(1, p + 1):
        total += ladder.derivative(i) * delta_s**i / math.factorial(i)
        sums.append(total)
    return sums


def find_q(ladder: DerivativeLadder, scenario: HedgeScenario, exact_change: float):
    """Smallest truncation order q >= 1 whose Taylor sum lands within
    alpha_tol of the repriced change; returns (q, achieved_error).

    Raises ``NeedsHigherOrderError`` carrying the best error seen when no
    order within the ladder qualifies.
    """
    sums = taylor_sums(ladder, scenario.delta_t, scenario.delta_s, ladder.order())
    errors = [abs(exact_change - total) for total in sums]
    for p in range(1, len(errors)):
        if errors[p] <= scenario.alpha_tol:
            return p, errors[p]
    best = min(range(1, len(errors)), key=errors.__getitem__)
    raise NeedsHigherOrderError(
        f"tolerance {scenario.alpha_tol} unreachable within ladder of length "
        f"{ladder.order()}; best error {errors[best]:.6g} at order {best}",
        best_error=errors[best],
        best_order=best,
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
    ``term_positions[i]`` pairs the Taylor coefficient C_i with the basket
    fragment whose ``change_of_value`` reproduces (dS)^i per unit.
    """

    bank_cash: float
    stock_units: float
    scenario: HedgeScenario
    term_positions: dict[int, tuple[float, object]] = field(default_factory=dict)

    def change_of_value(self, delta_s: float, outcome=None) -> float:
        """Mark the ledger against a realized move.

        Swap fragments only need the move; jump baskets need the full
        ``outcome`` (jump records).  Fragments see ``outcome`` when they
        accept one.
        """
        sc = self.scenario
        total = self.bank_cash * bank_growth(sc.r, sc.delta_t) + self.stock_units * delta_s
        for _, fragment in self.term_positions.values():
            if outcome is not None and _accepts_outcome(fragment):
                total += fragment.change_of_value(outcome)
            else:
                total += fragment.change_of_value(delta_s)
        return total


def _accepts_outcome(fragment) -> bool:
    return hasattr(fragment, "pja_units") or hasattr(fragment, "pji_units")


def assemble_ledger(
    ladder: DerivativeLadder,
    scenario: HedgeScenario,
    q: int,
    basket_provider=None,
) -> HedgeLedger:
    """Build the full hedge: bank deposit for the time term, D2^1 F units
    of stock, and C_i = D2^i F / i! units of basket i for i = 2..q.

    ``basket_provider(i, c_i)`` must return the unit basket fragment for
    each required order; returning None raises ``IncompleteMarketError``
    naming the missing order.
    """
    if q < 0 or q > ladder.order():
        raise ValueError(f"q={q} outside ladder range 0..{ladder.order()}")
    cash = bank_term((ladder.d1,), scenario)
    stock = ladder.derivative(1) if q >= 1 else 0.0
    positions: dict[int, tuple[float, object]] = {}
    for i in range(2, q + 1):
        c_i = ladder.derivative(i) / math.factorial(i)
        fragment = basket_provider(i, c_i) if basket_provider is not None else None
        if fragment is None:
            raise IncompleteMarketError(
                f"no basket available for Taylor term {i}", order=i
            )
        positions[i] = (c_i, fragment)
    return HedgeLedger(
        bank_cash=cash,
        stock_units=stock,
        term_positions=positions,
        scenario=scenario,
    )
