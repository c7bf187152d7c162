"""Realized-moment accounting and exact swap replication baskets.

A k-th moment swap is a forward on the annualised realized k-th moment of
returns over fixed sampling points s_1 < ... < s_n spaced by ds.  When the
last two sampling points bracket the hedging period (s_{n-1} = t,
s_n = t + dt) a static position in the swap plus a bank deposit changes
value by exactly C_k (Delta S)^k, whatever Delta S turns out to be.  The
baskets here implement those positions; k = 2 is the variance swap.

Returns are actual returns R_i = (S_{i+1} - S_i)/S_i: only a swap on
them pays a power of dS (a log-return swap responds to log(1 + dS/S)).

The deposit accrues by ``taylor.bank_growth``, so a basket needs r != 0;
negative rates are fine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError
from .taylor import bank_growth

__all__ = [
    "SwapSpec",
    "RealizedHistory",
    "SwapBasket",
    "variance_swap_basket",
    "moment_swap_basket",
]


@dataclass(frozen=True)
class SwapSpec:
    """Contract terms of a k-th moment swap (k = 2: variance swap).

    ``delta_s`` is the sampling spacing in years, ``n`` the number of
    sampling points (>= 3), ``strike`` the delivery level of the
    annualised moment, ``unit_price`` the quoted price P of one unit and
    ``notional`` the payoff scale per unit.
    """

    order: int
    delta_s: float
    n: int
    strike: float
    unit_price: float
    notional: float = 1.0

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"swap order must be >= 2, got {self.order}")
        if not self.delta_s > 0:
            raise ValueError("sampling spacing must be > 0")
        if self.n < 3:
            raise ValueError("need at least 3 sampling points")
        if not (math.isfinite(self.strike) and math.isfinite(self.unit_price)):
            raise ValueError(f"swap strike and unit price must be finite, got {self.strike} "
                             f"and {self.unit_price}")
        if not self.notional > 0:
            raise ValueError(f"swap notional must be > 0, got {self.notional}")

    @property
    def annualizer(self) -> float:
        """ds (n - 2), the divisor of the realized-moment definition.

        The printed definition sums n-1 returns but divides by n-2; the
        formulas are implemented exactly as stated and the off-by-one is
        deliberate, not a bug.
        """
        return self.delta_s * (self.n - 2)


@dataclass(frozen=True)
class RealizedHistory:
    """Running sums of past actual-return powers, known at the hedge date.

    ``sums[k]`` holds sum_{i=1..n-2} R_i^k for each order in use.
    """

    sums: dict[int, float]

    def power_sum(self, k: int) -> float:
        try:
            return self.sums[k]
        except KeyError:
            raise KeyError(f"history carries no order-{k} power sum") from None


@dataclass(frozen=True)
class SwapBasket:
    """Static swap-plus-cash position replicating C_k (Delta S)^k.

    ``swap_units`` of the swap are bought at ``spec.unit_price``;
    ``bank_cash`` accrues at r over [t, t + dt].  ``change_of_value``
    marks the basket against the realized price move.
    """

    coefficient: float
    spec: SwapSpec
    swap_units: float
    bank_cash: float
    s_t: float
    r: float
    delta_t: float
    history_power_sum: float

    def change_of_value(self, period):
        """Mark the basket against one move (a float), an array of moves or
        a ``ScenarioOutcome``'s moves.  Each mark adds its three legs exactly
        (``math.fsum``): they are orders of magnitude above their sum.

        The power of the return is libm's ``pow``: ``math.pow`` on a float
        move, ``np.float_power`` on an array, so a move marks to the same
        bits either way (numpy's ``**`` on an array rounds differently)."""
        spec = self.spec
        delta_s = getattr(period, "delta_s", period)
        scalar = getattr(delta_s, "ndim", 0) == 0
        ret = delta_s / self.s_t
        power = math.pow(ret, spec.order) if scalar else np.float_power(ret, spec.order)
        realized = (power + self.history_power_sum) / spec.annualizer
        swap_leg = self.swap_units * ((realized - spec.strike) * spec.notional)
        cost = -self.swap_units * spec.unit_price
        interest = self.bank_cash * bank_growth(self.r, self.delta_t)
        if scalar:
            return math.fsum((swap_leg, cost, interest))
        return np.array([math.fsum((leg, cost, interest)) for leg in swap_leg.reshape(-1).tolist()])


def moment_swap_basket(
    coefficient: float, scenario, swap: SwapSpec, history: RealizedHistory
) -> SwapBasket:
    """Moment-swap basket: ds(n-2) S_t^k swap units per unit coefficient
    plus the bank deposit that cancels the known legs of the payoff."""
    if not math.isclose(swap.delta_s, scenario.delta_t, rel_tol=1e-9, abs_tol=1e-15):
        raise AlignmentError(
            f"swap sampling spacing {swap.delta_s} must equal the hedging period "
            f"{scenario.delta_t} (last two sampling points are t and t+dt)"
        )
    k = swap.order
    s_t = scenario.s_t
    ann = swap.annualizer
    s_pow = s_t**k
    growth = bank_growth(scenario.r, scenario.delta_t)
    past = history.power_sum(k)
    units = coefficient * ann * s_pow / swap.notional
    cash = (units * swap.notional * (swap.strike - past / ann) + units * swap.unit_price) / growth
    return SwapBasket(
        coefficient=coefficient,
        spec=swap,
        swap_units=units,
        bank_cash=cash,
        s_t=s_t,
        r=scenario.r,
        delta_t=scenario.delta_t,
        history_power_sum=past,
    )


def variance_swap_basket(
    coefficient: float, scenario, swap: SwapSpec, history: RealizedHistory
) -> SwapBasket:
    """Variance-swap basket: the order-2 specialization of the moment swap."""
    if swap.order != 2:
        raise ValueError(f"variance swap basket needs order 2, got {swap.order}")
    return moment_swap_basket(coefficient, scenario, swap, history)
