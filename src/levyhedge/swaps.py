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
    "realized_moment",
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

    @classmethod
    def from_prices(cls, prices, orders) -> "RealizedHistory":
        prices = np.asarray(prices, dtype=float)
        if np.any(prices <= 0):
            raise ValueError("prices must be positive")
        rets = np.diff(prices) / prices[:-1]
        return cls(sums={k: float(np.sum(rets**k)) for k in orders})

    def power_sum(self, k: int) -> float:
        try:
            return self.sums[k]
        except KeyError:
            raise KeyError(f"history carries no order-{k} power sum") from None


def realized_moment(
    history: RealizedHistory, new_return: float, k: int, delta_s: float, n: int
) -> float:
    """Annualised realized k-th moment once ``new_return`` completes the
    sampling schedule: (new_return^k + past power sum) / (ds (n - 2))."""
    if n < 3 or delta_s <= 0:
        raise ValueError("need n >= 3 and delta_s > 0")
    return (new_return**k + history.power_sum(k)) / (delta_s * (n - 2))


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

    def initial_cost(self) -> float:
        return self.swap_units * self.spec.unit_price + self.bank_cash

    def change_of_value(self, delta_s: float) -> float:
        spec = self.spec
        realized = ((delta_s / self.s_t) ** spec.order + self.history_power_sum) / spec.annualizer
        payoff = (realized - spec.strike) * spec.notional
        # fsum: the legs are orders of magnitude above their cancelling sum
        return math.fsum(
            [
                self.swap_units * payoff,
                -self.swap_units * spec.unit_price,
                self.bank_cash * bank_growth(self.r, self.delta_t),
            ]
        )


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
