"""Minimal-variance portfolios when the replication baskets are not traded.

When only the bank account and the stock (and possibly a variance swap)
are available, the higher Taylor terms sum_i C_i S^i (dX)^i cannot be
replicated; the best mean-square substitute projects the jump risk onto
the available instruments.  The simplified formulas hold in the
negligible-dt regime and use the bare moments m_i dt; the general
variants replace them with the chaos constants C^(i) and the
left-endpoint predictable weights.  Every book takes its Taylor
coefficients as a dict {order i: C_i}.  Every stock weight is one
projection, ``mvp_weight``.  The bank leg accrues by
``taylor.bank_growth``, so it needs r != 0; negative rates are fine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .chaos import constant_terms, phi_from_constants
from .errors import DegenerateModelError
from .models import MomentVector
from .swaps import RealizedHistory, SwapBasket, SwapSpec, moment_swap_basket
from .taylor import HedgeScenario, bank_growth

__all__ = [
    "MinVarWeights",
    "mvp_weight",
    "mvp_bank_stock",
    "mvp_with_varswap",
    "mvp_general",
]


@dataclass(frozen=True)
class MinVarWeights:
    """Portfolio weights: stock units, bank cash, optional variance-swap leg.

    The book changes by ``bank_cash * (e^{r dt} - 1) + stock_units * dS``
    plus ``swap.change_of_value(dS)`` when a swap is held.  With a variance
    swap the stock leg and ``bank_cash`` are zero: ``swap`` holds the swap
    units and the whole bank deposit, so no deposit is counted twice.
    """

    stock_units: float
    bank_cash: float
    swap: SwapBasket | None = None


def mvp_weight(f1_val, x_f2_integral, x2_nu_integral, sigma, s) -> float:
    """General projection weight of one security:

    phi = [f1 sigma + int x f2 nu(dx)] / [(sigma^2 + int x^2 nu(dx)) S].
    """
    denom = (sigma**2 + x2_nu_integral) * s
    if denom == 0:
        raise DegenerateModelError("no diffusive or jump variance to project onto")
    return (f1_val * sigma + x_f2_integral) / denom


def mvp_bank_stock(coefficients, s_t, moments: MomentVector, delta_t, r) -> MinVarWeights:
    """Bank + stock only (negligible dt): deposit the compensator legs and
    hold sum_i C_i S^{i-1} m_{i+1} / (sigma^2 + m_2) units of stock."""
    items = sorted(coefficients.items())
    bank = sum(c * s_t**i * moments[i] * delta_t for i, c in items) / bank_growth(r, delta_t)
    # the target's jump integrand is f2(x) = sum_i C_i S^i x^i, with no Brownian part
    x_f2 = sum(c * s_t**i * moments[i + 1] for i, c in items)
    stock = mvp_weight(0.0, x_f2, moments[2], moments.brownian_sigma, s_t)
    return MinVarWeights(stock_units=stock, bank_cash=bank)


def _varswap_book(
    phi_numer,
    legs,
    s_t,
    moments: MomentVector,
    delta_t,
    r,
    swap: SwapSpec,
    history: RealizedHistory | None,
) -> MinVarWeights:
    """Bank + variance-swap book carrying phi = phi_numer / m_2 on the swap.

    The swap leg is the order-2 swap basket at coefficient phi: phi ann
    S^2 / notional units plus the deposit cancelling its known legs.  The
    deposit also funds ``legs`` (the target's compensators) less the swap's
    expected jump leg phi S^2 m_2 dt.  The whole deposit sits in the swap
    basket; the returned ``bank_cash`` is zero.
    """
    if swap.order != 2:
        raise ValueError(f"variance-swap leg needs an order-2 swap, got order {swap.order}")
    if history is None:
        raise DegenerateModelError("variance-swap leg needs a realized history")
    m2 = moments[2]
    if m2 == 0:
        raise DegenerateModelError("m_2 = 0: variance swap carries no jump variance")
    phi = phi_numer / m2
    scenario = HedgeScenario(s_t=s_t, delta_s=0.0, delta_t=delta_t, r=r)
    leg = moment_swap_basket(phi, scenario, swap, history)
    bank = (legs - phi * s_t**2 * m2 * delta_t) / bank_growth(r, delta_t) + leg.bank_cash
    return MinVarWeights(stock_units=0.0, bank_cash=0.0, swap=replace(leg, bank_cash=bank))


def mvp_with_varswap(
    coefficients,
    s_t,
    moments: MomentVector,
    delta_t,
    r,
    swap: SwapSpec,
    history: RealizedHistory,
) -> MinVarWeights:
    """Bank + stock + variance swap (negligible dt), orders i >= 3.

    The swap carries all the weight, phi = sum_i C_i S^{i-2} m_i / m_2,
    and the stock leg is zero; the bank leg funds the compensators and the
    known swap legs.
    """
    items = sorted(coefficients.items())
    if any(i < 3 for i, _ in items):
        raise ValueError("variance-swap minimal variance hedges orders i >= 3")
    legs = sum(c * s_t**i * moments[i] * delta_t for i, c in items)
    phi_numer = sum(c * s_t ** (i - 2) * moments[i] for i, c in items)
    return _varswap_book(phi_numer, legs, s_t, moments, delta_t, r, swap, history)


def mvp_general(
    coefficients,
    s_t,
    moments: MomentVector,
    delta_t,
    r,
    swap: SwapSpec | None = None,
    history: RealizedHistory | None = None,
) -> MinVarWeights:
    """General-case weights via the chaos constants and phi extraction,
    all read from one ``constant_terms`` pass up to the highest order.

    The bank leg swaps m_i dt for the full constants C^(i).  The target's
    stochastic part aggregates to Phi_j = sum_i C_i phi_j^(i) per
    power-jump direction j (left-endpoint weights), so the stock leg
    projects [sigma^2 Phi_1 + sum_j Phi_j m_{j+1}] onto the stock and the
    swap leg, when present, carries sum_j Phi_j m_j / (m_2 S^2) as printed
    in the simplified case.
    """
    items = sorted(coefficients.items())
    consts = constant_terms(max((i for i, _ in items), default=0), moments, delta_t)
    legs = sum(c * s_t**i * consts[i] for i, c in items)
    phi_total: dict[int, float] = {}
    for i, c in items:
        for j, val in phi_from_constants(i, consts, s_t).items():
            phi_total[j] = phi_total.get(j, 0.0) + c * val
    if swap is not None:
        phi_numer = sum(val * moments[j] for j, val in phi_total.items()) / s_t**2
        return _varswap_book(phi_numer, legs, s_t, moments, delta_t, r, swap, history)
    # Brownian integrand sigma Phi_1, jump integrand f2(x) = sum_j Phi_j x^j
    sigma = moments.brownian_sigma
    stock = mvp_weight(
        sigma * phi_total.get(1, 0.0),
        sum(val * moments[j + 1] for j, val in phi_total.items()),
        moments[2], sigma, s_t,
    )
    return MinVarWeights(stock_units=stock, bank_cash=legs / bank_growth(r, delta_t))
