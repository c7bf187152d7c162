"""Monte Carlo option pricing and the stencil derivative ladder.

Because the dynamics are multiplicative and state-independent, one matrix
of per-step factors prices every initial spot: a path started at s is
s times the cumulative product of the factors.  ``PathBundle`` caches the
terminal factor and the running extrema per path, which makes pricing a
whole spot grid (and repricing at an arbitrary bumped spot) share the same
draws -- common random numbers by construction, which is what keeps the
high-order differences alive.

Many spots are priced in one pass: ``PathBundle.values`` prices each
distinct spot once, and ``price`` and ``price_many`` share its kernel,
which prices one spot at a time through reused one-float-per-path buffers
with in-place ufuncs; a barrier kind builds only the running extremum it
monitors.  The P&L harness reprices all its scenario spots this way once
per run and shares them across strategies.

Barrier monitoring is discrete on the simulation grid.  An expired option
(zero remaining maturity) is valued by its payoff with the barrier checked
against the evaluation state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .errors import GridError, LadderOrderError, PricingFailedError
from .models import LevyModel, relative_factors
from .stencil import StencilTable, apply_stencil

__all__ = [
    "OptionSpec",
    "PathBundle",
    "DerivativeLadder",
    "payoff",
    "mc_price",
    "price_curve",
    "derivative_ladder",
    "black_scholes_price",
    "black_scholes_delta",
    "black_scholes_gamma",
]

EUROPEAN_CALL = "european_call"
EUROPEAN_PUT = "european_put"
UP_AND_OUT = "up_and_out"
UP_AND_IN = "up_and_in"
DOWN_AND_OUT = "down_and_out"
DOWN_AND_IN = "down_and_in"

_KINDS = (EUROPEAN_CALL, EUROPEAN_PUT, UP_AND_OUT, UP_AND_IN, DOWN_AND_OUT, DOWN_AND_IN)
# Each barrier kind: the running extremum it monitors and the test on the
# spot-scaled extremum under which the call pays (``payoff``'s complement).
_BARRIER_PAYS = {
    UP_AND_OUT: ("running_max", np.less),
    UP_AND_IN: ("running_max", np.greater_equal),
    DOWN_AND_OUT: ("running_min", np.greater),
    DOWN_AND_IN: ("running_min", np.less_equal),
}


@dataclass(frozen=True)
class OptionSpec:
    """Payoff contract: vanilla European call/put or a barrier call."""

    kind: str
    strike: float
    maturity: float
    barrier: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown option kind {self.kind!r}")
        if self.strike <= 0 or self.maturity <= 0:
            raise ValueError("strike and maturity must be > 0")
        if self.kind in _BARRIER_PAYS:
            if self.barrier is None or self.barrier <= 0:
                raise ValueError(f"{self.kind} needs a positive barrier")
        elif self.barrier is not None:
            raise ValueError(f"{self.kind} takes no barrier")

    def check_barrier_side(self, s0: float) -> None:
        """Up barriers must sit above the running spot, down barriers below."""
        if self.kind in (UP_AND_OUT, UP_AND_IN) and self.barrier <= s0:
            raise ValueError(f"up barrier {self.barrier} must exceed spot {s0}")
        if self.kind in (DOWN_AND_OUT, DOWN_AND_IN) and self.barrier >= s0:
            raise ValueError(f"down barrier {self.barrier} must be below spot {s0}")


def payoff(option: OptionSpec, s_terminal, s_max=None, s_min=None):
    """Terminal payoff; barrier state defaults to the terminal value."""
    st = np.asarray(s_terminal, dtype=float)
    smax = st if s_max is None else np.asarray(s_max, dtype=float)
    smin = st if s_min is None else np.asarray(s_min, dtype=float)
    if option.kind == EUROPEAN_PUT:
        return np.maximum(option.strike - st, 0.0)
    call = np.maximum(st - option.strike, 0.0)
    if option.kind == EUROPEAN_CALL:
        return call
    h = option.barrier
    if option.kind == UP_AND_OUT:
        return np.where(smax >= h, 0.0, call)
    if option.kind == UP_AND_IN:
        return np.where(smax >= h, call, 0.0)
    if option.kind == DOWN_AND_OUT:
        return np.where(smin <= h, 0.0, call)
    return np.where(smin <= h, call, 0.0)


class PathBundle:
    """Simulated relative paths reduced to what payoffs need.

    Built from a (paths x steps) matrix of per-step factors (see
    ``relative_factors``) over ``horizon``.  Holds, per path, the terminal
    relative level R_T and the running max/min of the relative path (both
    clipped to include the start level 1), so any spot s prices as
    payoff(s*R_T, s*Rmax, s*Rmin).  Paths bankrupted by a jump <= -1 (NaN
    factors) are dropped and counted.
    """

    def __init__(self, factors: np.ndarray, horizon: float):
        rel = np.cumprod(factors, axis=1)
        alive = ~np.isnan(rel[:, -1])
        self.n_requested = len(factors)
        self.n_bankrupt = int(self.n_requested - alive.sum())
        if not alive.any():
            raise PricingFailedError("every simulated path went bankrupt")
        self.terminal = rel[alive, -1]
        self.running_max = np.maximum(rel.max(axis=1)[alive], 1.0)
        self.running_min = np.minimum(rel.min(axis=1)[alive], 1.0)
        self.horizon = horizon

    @property
    def n_paths(self) -> int:
        return len(self.terminal)

    def values(self, option: OptionSpec, spots, r: float) -> np.ndarray:
        """Discounted expected payoff at every spot, each distinct spot
        priced once; no standard error."""
        unique, inverse = np.unique(np.asarray(spots, dtype=float), return_inverse=True)
        prices, _ = self._reduce(option, unique, r, with_se=False)
        return prices[inverse]

    def price(self, option: OptionSpec, s0: float, r: float):
        """Discounted expected payoff started at s0; returns (price, se)."""
        prices, ses = self._reduce(option, np.array([s0], dtype=float), r, with_se=True)
        return prices[0], ses[0]

    def price_many(self, option: OptionSpec, spots, r: float):
        """(prices, standard errors) at every spot, in the order given."""
        return self._reduce(option, np.asarray(spots, dtype=float), r, with_se=True)

    def _reduce(self, option: OptionSpec, spots: np.ndarray, r: float, with_se: bool):
        """Discounted mean payoff per spot and, with ``with_se``, its
        standard error (zeros otherwise), one spot at a time through
        buffers of one float per path that every spot reuses."""
        disc = math.exp(-r * self.horizon)
        n = self.n_paths
        means = np.empty(len(spots))
        sds = np.zeros(len(spots))
        out = np.empty(n)
        level = np.empty(n) if option.kind in _BARRIER_PAYS else None
        for j, s in enumerate(spots):
            pay = self._payoff_at(option, s, out, level)
            means[j] = pay.mean()
            if with_se and n > 1:
                sds[j] = pay.std(ddof=1)
        return disc * means, disc * sds / math.sqrt(n)

    def _payoff_at(self, option: OptionSpec, s: float, out: np.ndarray, level) -> np.ndarray:
        """Every path's payoff from spot s, written into ``out`` by in-place
        ufuncs in ``payoff``'s order of operations, so each value is the
        same to the bit.  A barrier kind builds only the extremum it
        monitors, in ``level``, as a 1.0/0.0 factor on the payoff."""
        np.multiply(self.terminal, s, out=out)
        if option.kind == EUROPEAN_PUT:
            np.subtract(option.strike, out, out=out)
        else:
            np.subtract(out, option.strike, out=out)
        np.maximum(out, 0.0, out=out)
        if level is not None:
            extremum, pays = _BARRIER_PAYS[option.kind]
            np.multiply(getattr(self, extremum), s, out=level)
            pays(level, option.barrier, out=level)
            np.multiply(out, level, out=out)
        return out


def _fresh_bundle(model, horizon, n_paths, steps, seed, rng, antithetic) -> PathBundle:
    """A bundle drawn over ``horizon`` in ``steps`` equal steps."""
    if n_paths < 1000:
        raise ValueError("Monte Carlo pricing needs at least 1000 paths")
    if steps < 1:
        raise ValueError("need steps >= 1")
    if rng is None:
        rng = np.random.default_rng(seed)
    factors = relative_factors(model, horizon / steps, steps, n_paths, rng, antithetic)
    return PathBundle(factors, horizon)


def _expired_value(option: OptionSpec, s0: float) -> float:
    return float(payoff(option, np.array([s0]))[0])


def mc_price(
    model: LevyModel,
    option: OptionSpec,
    s0: float,
    r: float,
    t: float = 0.0,
    n_paths: int = 100_000,
    steps: int = 1,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    antithetic: bool = False,
):
    """Price the option at date t and spot s0; returns (price, std_error)."""
    if s0 <= 0:
        raise ValueError("spot must be > 0")
    option.check_barrier_side(s0)
    remaining = option.maturity - t
    if remaining <= 0:
        return _expired_value(option, s0), 0.0
    bundle = _fresh_bundle(model, remaining, n_paths, steps, seed, rng, antithetic)
    return bundle.price(option, s0, r)


def price_curve(
    model: LevyModel,
    option: OptionSpec,
    s_values,
    r: float,
    t: float = 0.0,
    n_paths: int = 100_000,
    steps: int = 1,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    antithetic: bool = False,
):
    """MC prices across a uniform spot grid with common random numbers.

    Returns (prices, standard_errors).  Expired options yield the exact
    payoff curve with zero error.
    """
    s_values = np.asarray(s_values, dtype=float)
    if len(s_values) > 1:
        steps_arr = np.diff(s_values)
        if np.any(steps_arr <= 0) or not np.allclose(
            steps_arr, steps_arr[0], rtol=1e-9, atol=1e-9
        ):
            raise GridError("spot grid must be uniform and increasing")
    remaining = option.maturity - t
    if remaining <= 0:
        prices = np.array([_expired_value(option, s) for s in s_values])
        return prices, np.zeros_like(prices)
    bundle = _fresh_bundle(model, remaining, n_paths, steps, seed, rng, antithetic)
    return bundle.price_many(option, s_values, r)


@dataclass(frozen=True)
class DerivativeLadder:
    """Spot derivatives d2[i] = D2^i F(t+dt, S_t), i = 1..p_max, plus the
    first time derivative d1 = D1^1 F(t, S_t) and the grid step used."""

    d2: tuple[float, ...]
    d1: float
    s_step: float

    def order(self) -> int:
        return len(self.d2)

    def derivative(self, i: int) -> float:
        if not 1 <= i <= len(self.d2):
            raise LadderOrderError(f"ladder carries orders 1..{len(self.d2)}, asked {i}")
        return self.d2[i - 1]


def derivative_ladder(
    curve,
    table: StencilTable,
    p_max: int,
    s_step: float,
    d1: float = 0.0,
) -> DerivativeLadder:
    """Differentiate a price curve sampled on the stencil grid.

    ``curve`` must hold 2N+1 prices centred on the evaluation spot with
    spacing ``s_step``; ``d1`` is the externally supplied time derivative
    (a two-point forward difference upstream).
    """
    if p_max > table.p_max:
        raise LadderOrderError(
            f"p_max={p_max} exceeds table orders 1..{table.p_max}"
        )
    n = table.half_width
    if len(curve) != 2 * n + 1:
        raise GridError(f"curve must have {2 * n + 1} points for half-width {n}")
    d2 = tuple(apply_stencil(curve, p, s_step, table) for p in range(1, p_max + 1))
    return DerivativeLadder(d2=d2, d1=d1, s_step=s_step)


# ---------------------------------------------------------------------------
# Black-Scholes closed forms (pure-Brownian oracle)
# ---------------------------------------------------------------------------


def _d1d2(s, k, t, r, sigma, dividend):
    vol = sigma * math.sqrt(t)
    d1 = (math.log(s / k) + (r - dividend + 0.5 * sigma**2) * t) / vol
    return d1, d1 - vol


def black_scholes_price(s, k, t, r, sigma, dividend=0.0, kind=EUROPEAN_CALL):
    if t <= 0:
        intrinsic = max(s - k, 0.0) if kind == EUROPEAN_CALL else max(k - s, 0.0)
        return intrinsic
    d1, d2 = _d1d2(s, k, t, r, sigma, dividend)
    if kind == EUROPEAN_CALL:
        return s * math.exp(-dividend * t) * norm.cdf(d1) - k * math.exp(-r * t) * norm.cdf(d2)
    if kind == EUROPEAN_PUT:
        return k * math.exp(-r * t) * norm.cdf(-d2) - s * math.exp(-dividend * t) * norm.cdf(-d1)
    raise ValueError(f"no closed form for {kind!r}")


def black_scholes_delta(s, k, t, r, sigma, dividend=0.0):
    d1, _ = _d1d2(s, k, t, r, sigma, dividend)
    return math.exp(-dividend * t) * norm.cdf(d1)


def black_scholes_gamma(s, k, t, r, sigma, dividend=0.0):
    d1, _ = _d1d2(s, k, t, r, sigma, dividend)
    return math.exp(-dividend * t) * norm.pdf(d1) / (s * sigma * math.sqrt(t))
