"""Monte Carlo option pricing and the stencil derivative ladder.

Because the dynamics are multiplicative and state-independent, one matrix
of per-step factors prices every initial spot: a path started at s is
s times the cumulative product of the factors.  ``PathBundle`` caches the
terminal factor and the running extrema per path, which makes pricing a
whole spot grid (and repricing at an arbitrary bumped spot) share the same
draws -- common random numbers by construction, which is what keeps the
high-order differences alive.

Many spots are priced in one call: ``PathBundle.values``, ``price`` and
``price_many`` price each distinct spot once, and the call's own spots
choose the kernel.  A European call or put at more than one spot is priced
from the bundle's terminal factors R sorted once and cached: at spot s a
call pays on the paths with s R > K, a suffix of the sorted R, so its mean
payoff is (s sum R - K c)/n over that suffix, and a put reads the matching
prefix.  The sums come from exact fixed-point prefix sums, so a price is
within about an ulp of disc s mean(R) of the exactly rounded mean payoff,
and each spot costs one binary search.  A lone spot and every barrier kind
(whose pay region is two-dimensional) take the per-path kernel: one payoff
vector per spot, the lone European spot through ``payoff`` bit for bit,
a barrier kind through reused one-float-per-path buffers, building only
the running extremum it monitors.  The P&L harness reprices all its
scenario spots this way once per run and shares them across strategies.

Barrier monitoring is discrete on the simulation grid.  An expired option
(zero remaining maturity) is valued by its payoff with the barrier checked
against the evaluation state.

``price_curve`` is the one call that draws a fresh bundle and prices it,
a lone spot as a grid of one.  The Black-Scholes closed forms (the
pure-Brownian oracle) read the normal law from ``models``, as the normal
jump law's absorbed mean does, so pricing loads nothing beyond numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, LadderOrderError
from .models import LevyModel, norm_cdf, norm_pdf, relative_factors
from .stencil import StencilTable, apply_stencil

__all__ = [
    "OptionSpec",
    "PathBundle",
    "DerivativeLadder",
    "payoff",
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

OPTION_KINDS = (EUROPEAN_CALL, EUROPEAN_PUT, UP_AND_OUT, UP_AND_IN, DOWN_AND_OUT, DOWN_AND_IN)
# Each barrier kind: the running extremum it monitors (a ``PathBundle``
# attribute) and the test on that extremum under which the call pays.
# ``payoff`` and the bundle kernel both read this table.
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
        if self.kind not in OPTION_KINDS:
            raise ValueError(f"unknown option kind {self.kind!r}")
        if not (self.strike > 0 and self.maturity > 0):
            raise ValueError("strike and maturity must be > 0")
        if self.kind in _BARRIER_PAYS:
            if self.barrier is None or not self.barrier > 0:
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
    if option.kind == EUROPEAN_PUT:
        return np.maximum(option.strike - st, 0.0)
    call = np.maximum(st - option.strike, 0.0)
    if option.kind not in _BARRIER_PAYS:
        return call
    extremum, pays = _BARRIER_PAYS[option.kind]
    level = {"running_max": s_max, "running_min": s_min}[extremum]
    level = st if level is None else np.asarray(level, dtype=float)
    return np.where(pays(level, option.barrier), call, 0.0)


class PathBundle:
    """Simulated relative paths reduced to what payoffs need.

    Built from a (paths x steps) matrix of per-step factors (see
    ``relative_factors``) over ``horizon``.  Holds, per path, the terminal
    relative level R_T and the running max/min of the relative path (both
    clipped to include the start level 1), so any spot s prices as
    payoff(s*R_T, s*Rmax, s*Rmin).  A path absorbed at zero by a jump
    <= -1 prices at S_T = 0 like any other; ``n_bankrupt`` counts them.
    """

    def __init__(self, factors: np.ndarray, horizon: float):
        with np.errstate(invalid="ignore"):  # 0 * inf: a NaN for the check below
            rel = np.cumprod(factors, axis=1)
        self.terminal = rel[:, -1].copy()  # a view would keep all of rel alive
        if not np.isfinite(self.terminal).all():  # a NaN or inf factor carries to the end
            raise ValueError("path factors must be finite")
        self.n_bankrupt = int(np.count_nonzero(self.terminal == 0.0))
        # column by column: a pass over every path per step, not a reduction per short row
        self.running_max = np.maximum(functools.reduce(np.maximum, rel.T), 1.0)
        self.running_min = np.minimum(functools.reduce(np.minimum, rel.T), 1.0)
        self.horizon = horizon

    @property
    def n_paths(self) -> int:
        return len(self.terminal)

    @functools.cached_property
    def _ranked(self) -> _RankedLevels:
        """The terminal factors sorted once, for every European spot set."""
        return _RankedLevels(self.terminal)

    def values(self, option: OptionSpec, spots, r: float) -> np.ndarray:
        """Discounted expected payoff at every spot, each distinct spot
        priced once (see ``_reduce``); no standard error."""
        return self._reduce(option, spots, r, with_se=False)[0]

    def price(self, option: OptionSpec, s0: float, r: float):
        """Discounted expected payoff started at s0; returns (price, se)."""
        prices, ses = self._reduce(option, [s0], r, with_se=True)
        return prices[0], ses[0]

    def price_many(self, option: OptionSpec, spots, r: float):
        """(prices, standard errors) at every spot, in the order given."""
        return self._reduce(option, spots, r, with_se=True)

    def _reduce(self, option: OptionSpec, spots, r: float, with_se: bool):
        """Discounted mean payoff per spot and, with ``with_se``, its
        standard error (zeros otherwise), each distinct spot priced once.

        A European kind at more than one distinct spot is priced from the
        sorted terminal factors (``_sorted_moments``); a lone spot and every
        barrier kind from one payoff vector per spot (``_path_moments``).
        """
        unique, inverse = np.unique(np.asarray(spots, dtype=float), return_inverse=True)
        if option.kind in _BARRIER_PAYS or len(unique) == 1:
            means, sds = self._path_moments(option, unique, with_se)
        else:
            means, sds = self._sorted_moments(option, unique, with_se)
        disc = math.exp(-r * self.horizon)
        return (disc * means)[inverse], (disc * sds / math.sqrt(self.n_paths))[inverse]

    def _path_moments(self, option: OptionSpec, spots: np.ndarray, with_se: bool):
        """Mean and sample sd of every path's payoff, one spot at a time; a
        barrier kind reuses buffers of one float per path across spots."""
        n = self.n_paths
        means = np.empty(len(spots))
        sds = np.zeros(len(spots))
        if option.kind in _BARRIER_PAYS:
            out, level = np.empty(n), np.empty(n)
            pays = (self._payoff_at(option, s, out, level) for s in spots)
        else:
            pays = (payoff(option, self.terminal * s) for s in spots)
        for j, pay in enumerate(pays):
            means[j] = pay.mean()
            if with_se and n > 1:
                sds[j] = pay.std(ddof=1)
        return means, sds

    def _payoff_at(self, option: OptionSpec, s: float, out: np.ndarray, level) -> np.ndarray:
        """Every path's barrier-call payoff from spot s, written into ``out``
        by in-place ufuncs in ``payoff``'s order of operations, so each
        value is the same to the bit.  Only the extremum the barrier
        monitors is built, in ``level``, as a 1.0/0.0 factor on the payoff."""
        np.multiply(self.terminal, s, out=out)
        np.subtract(out, option.strike, out=out)
        np.maximum(out, 0.0, out=out)
        extremum, pays = _BARRIER_PAYS[option.kind]
        np.multiply(getattr(self, extremum), s, out=level)
        pays(level, option.barrier, out=level)
        return np.multiply(out, level, out=out)

    def _sorted_moments(self, option: OptionSpec, spots: np.ndarray, with_se: bool):
        """Mean and sample sd of a European payoff at every spot from the
        sorted terminal factors R.

        At spot s the paying paths are a run [a, b) of the sorted R (a
        suffix for a call, a prefix for a put), the same paths on which
        ``payoff`` is positive.  With c = b - a paths, S their sum of R and
        Q their sum of R^2, the payoff sum is P = +-(s S - K c), and the
        payoffs' sum of squared deviations splits into the spread of R
        inside the run and the gap between the run's mean payoff and the
        zeros outside it: s^2 (Q - S^2/c) + P^2 (n - c)/(n c).
        """
        ranked = self._ranked
        n, k = self.n_paths, option.strike
        call = option.kind == EUROPEAN_CALL
        split = ranked.split(spots, k, call)
        a, b = (split, np.full_like(split, n)) if call else (np.zeros_like(split), split)
        c = b - a
        total = ranked.sums.between(a, b)
        pay = spots * total - k * c if call else k * c - spots * total
        # every path in the run pays > 0, so only rounding can make the sum negative
        pay = np.maximum(pay, 0.0)
        sds = np.zeros(len(spots))
        if with_se and n > 1:
            runs = np.maximum(c, 1)  # an empty run has S = Q = P = 0
            spread = np.maximum(ranked.square_sums.between(a, b) - total * (total / runs), 0.0)
            # a run of one tied level has no spread, which rounding would hide
            tied = ranked.levels[np.minimum(a, n - 1)] == ranked.levels[np.maximum(b - 1, 0)]
            spread[tied] = 0.0
            squares = spots**2 * spread + pay**2 * ((n - c) / (n * runs))
            sds = np.sqrt(squares / (n - 1))
        return pay / n, sds


class _RankedLevels:
    """Terminal factors in ascending order with exact prefix sums of R and,
    built on first use by a standard error, of R^2."""

    def __init__(self, terminal: np.ndarray):
        self.levels = np.sort(terminal)
        self.sums = _PrefixSums(self.levels)

    @functools.cached_property
    def square_sums(self) -> _PrefixSums:
        return _PrefixSums(self.levels * self.levels)

    def split(self, spots: np.ndarray, strike: float, call: bool) -> np.ndarray:
        """Per spot s, the number of paths with s R <= K (call) or s R < K
        (put), as floats compare them: where a call's paying suffix or a
        put's paying prefix ends.

        A binary search for K/s can land an ulp off that comparison, so
        the split then steps over whole runs of tied levels until the
        level below it is on the low side and the level at it is not.
        """
        r = self.levels
        n = len(r)
        low = np.less_equal if call else np.less
        j = np.searchsorted(r, strike / spots, side="right" if call else "left")
        while True:
            down = (j > 0) & ~low(spots * r[np.maximum(j - 1, 0)], strike)
            up = (j < n) & low(spots * r[np.minimum(j, n - 1)], strike)
            if not (down.any() or up.any()):
                return j
            j = np.where(down, np.searchsorted(r, r[np.maximum(j - 1, 0)], side="left"), j)
            j = np.where(up, np.searchsorted(r, r[np.minimum(j, n - 1)], side="right"), j)


class _PrefixSums:
    """Sums of any run x[a:b] of a float array to within about an ulp.

    Each x splits exactly into a high part on the grid 2^-exp, summed
    exactly as int64 prefix sums, and the float remainder below the grid.
    The scale keeps every prefix sum below 2^62 (n max|x| 2^exp < 2^62),
    and the remainders then add up to at most n 2^-exp <= n^2 max|x| 2^-60,
    so their plain float cumsum loses no digit that counts.
    """

    def __init__(self, x: np.ndarray):
        n = len(x)
        _, k = math.frexp(float(np.abs(x).max()))  # max|x| < 2^k
        self.exp = 62 - n.bit_length() - k
        high = np.floor(np.ldexp(x, self.exp))
        self.high = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(high.astype(np.int64), out=self.high[1:])
        self.low = np.zeros(n + 1)
        np.cumsum(x - np.ldexp(high, -self.exp), out=self.low[1:])

    def between(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The sum of x[a:b] for every pair of indices a <= b."""
        high = (self.high[b] - self.high[a]).astype(float)
        return np.ldexp(high, -self.exp) + (self.low[b] - self.low[a])


def price_curve(
    model: LevyModel,
    option: OptionSpec,
    s_values,
    r: float,
    t: float = 0.0,
    n_paths: int = 100_000,
    steps: int = 1,
    seed: int | None = None,
    antithetic: bool = False,
):
    """MC prices at date t across a uniform spot grid (a lone spot s0 is
    ``[s0]``), with common random numbers drawn in ``steps`` equal steps.

    Returns (prices, standard_errors).  Expired options yield the exact
    payoff curve with zero error.
    """
    s_values = np.asarray(s_values, dtype=float)
    if s_values.ndim != 1:
        raise ValueError(f"spots must be a 1-D grid, got shape {s_values.shape}")
    if np.any(s_values <= 0):
        raise ValueError("spot must be > 0")
    for s in s_values:
        option.check_barrier_side(s)
    gaps = np.diff(s_values)  # none for a lone spot
    if np.any(gaps <= 0) or not np.allclose(gaps, gaps[:1], rtol=1e-9, atol=1e-9):
        raise GridError("spot grid must be uniform and increasing")
    remaining = option.maturity - t
    if remaining <= 0:
        prices = payoff(option, s_values)
        return prices, np.zeros_like(prices)
    if n_paths < 1000:
        raise ValueError("Monte Carlo pricing needs at least 1000 paths")
    if steps < 1:
        raise ValueError("need steps >= 1")
    rng = np.random.default_rng(seed)
    factors = relative_factors(model, remaining / steps, steps, n_paths, rng, antithetic)
    return PathBundle(factors, remaining).price_many(option, s_values, r)


@dataclass(frozen=True)
class DerivativeLadder:
    """Spot derivatives d2[i] = D2^i F(t+dt, S_t), i = 1..p_max, plus the
    first time derivative d1 = D1^1 F(t, S_t)."""

    d2: tuple[float, ...]
    d1: float

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
    return DerivativeLadder(d2=d2, d1=d1)


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
        return s * math.exp(-dividend * t) * norm_cdf(d1) - k * math.exp(-r * t) * norm_cdf(d2)
    if kind == EUROPEAN_PUT:
        return k * math.exp(-r * t) * norm_cdf(-d2) - s * math.exp(-dividend * t) * norm_cdf(-d1)
    raise ValueError(f"no closed form for {kind!r}")


def black_scholes_delta(s, k, t, r, sigma, dividend=0.0):
    d1, _ = _d1d2(s, k, t, r, sigma, dividend)
    return math.exp(-dividend * t) * norm_cdf(d1)


def black_scholes_gamma(s, k, t, r, sigma, dividend=0.0):
    d1, _ = _d1d2(s, k, t, r, sigma, dividend)
    return math.exp(-dividend * t) * norm_pdf(d1) / (s * sigma * math.sqrt(t))
