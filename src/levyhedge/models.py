"""Levy asset models: jump specifications, moments, and simulation.

The asset follows dS = b S dt + S dX where X is a Levy process made of an
optional Brownian part and a jump part.  Each jump specification owns its
law: its cell sampler, its jump-size convention, its log-drift rule and mean
growth, and two moment families:

* ``nu_moment(i)``, the i-th moment of the Levy measure of X, which the
  sampler and ``increment_cumulants`` read;
* ``hedge_moment(i)``, the i-th moment of the relative jumps dS/S_- against
  it.  The hedge formulas are written for dS = S_- dX, so ``moment_vector``
  and every formula downstream read these.

``CompoundPoisson`` is finite activity.  Paths evolve by the stochastic
exponential, so a jump J multiplies the price by (1 + J) and is its own
relative jump: both moment families agree.  A jump J <= -1 absorbs the
price at zero: its cell factor is 0.  ``VarianceGamma`` is infinite
activity, sampled exactly through the gamma time change.  Paths evolve in
exponential form S -> S exp(b dt + dX), so a jump x is a log-jump and moves
the price by e^x - 1.  Its jump records come from Bondesson's series for
a gamma process on each side of its Levy measure, cut at the scale
``truncation_eps``: numpy draws them, and the part of the measure the cut
leaves out has mean zero.

``relative_factors`` is the one sampler of the model's moves: per-step
factors S_{k+1}/S_k on any grid of steps, with flat jump records on request.
It draws the paths in chunks of about ``CHUNK_CELLS`` cells, each from its
own stream spawned off the caller's generator, on a thread pool; the result
depends on the seed and the draw's shape, not on the worker count.  Without
records a chunk's compound-Poisson jumps are drawn in blocks of whole cells,
at most ``JUMP_BLOCK`` jumps each, so its memory does not grow with the jumps
per cell; the blocks move no bit of the factors.
``one_jump_increments`` samples a different law on purpose: the
at-most-one-jump reading of a short period in which the hedge weights are
derived."""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModelError, UnsupportedOrderError

__all__ = [
    "NormalJumps",
    "FixedJumps",
    "CompoundPoisson",
    "VarianceGamma",
    "LevyModel",
    "MomentVector",
    "moment_vector",
    "increment_cumulants",
    "JumpRecords",
    "relative_factors",
    "risk_neutral_drift",
]


def norm_cdf(x: float) -> float:
    """The standard normal law N(x), accurate in both tails."""
    return 0.5 * math.erfc(-x * math.sqrt(0.5))


def norm_pdf(x: float) -> float:
    """Its density phi(x) = exp(-x^2/2)/sqrt(2 pi)."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Jump-size laws for compound-Poisson models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalJumps:
    """Normally distributed jump sizes J ~ N(mean, std^2)."""

    mean: float = 0.0
    std: float = 0.1

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"jump mean must be finite, got {self.mean}")
        if not self.std >= 0:
            raise ValueError(f"jump std must be >= 0, got {self.std}")

    def moment(self, i: int) -> float:
        """Raw moment E[J^i], via the binomial expansion over central moments."""
        if i < 0:
            raise UnsupportedOrderError(f"moment order must be >= 0, got {i}")
        total = 0.0
        for j in range(0, i + 1, 2):
            # E[(J-mean)^j] = std^j (j-1)!!
            central = self.std**j * math.prod(range(j - 1, 0, -2))
            total += math.comb(i, j) * central * self.mean ** (i - j)
        return total

    def absorbed_mean(self) -> float:
        """E[max(J, -1)]: E[J] + (c - mean) Phi(z) + std phi(z), z = (c - mean)/std,
        c = -1.  A jump below -1 moves the price by -1, to zero."""
        if self.std == 0:
            return max(self.mean, -1.0)
        z = (-1.0 - self.mean) / self.std
        return self.mean + (-1.0 - self.mean) * norm_cdf(z) + self.std * norm_pdf(z)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mean, self.std, n)


@dataclass(frozen=True)
class FixedJumps:
    """Degenerate jump law: every jump has the same size."""

    size: float = 0.05

    def __post_init__(self):
        if not math.isfinite(self.size):
            raise ValueError(f"jump size must be finite, got {self.size}")

    def moment(self, i: int) -> float:
        if i < 0:
            raise UnsupportedOrderError(f"moment order must be >= 0, got {i}")
        return self.size**i

    def absorbed_mean(self) -> float:
        """E[max(J, -1)]: a jump below -1 moves the price by -1, to zero."""
        return max(self.size, -1.0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.size)


# ---------------------------------------------------------------------------
# Jump specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompoundPoisson:
    """Jumps arrive at rate ``intensity`` per year with i.i.d. sizes J, each
    multiplying the price by (1 + J)."""

    intensity: float
    law: NormalJumps | FixedJumps = field(default_factory=NormalJumps)

    def __post_init__(self):
        if not self.intensity > 0:
            raise ValueError(f"intensity must be > 0, got {self.intensity}")

    def nu_moment(self, i: int) -> float:
        """m_i of the Levy measure: intensity * E[J^i]."""
        if i < 1:
            raise UnsupportedOrderError(f"moment order must be >= 1, got {i}")
        return self.intensity * self.law.moment(i)

    def hedge_moment(self, i: int) -> float:
        """m_i of the relative jumps, which are the jumps J themselves."""
        return self.nu_moment(i)

    @staticmethod
    def log_jump(size: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """ln(1 + max(J, -1)): -inf for J <= -1, which absorbs the price at 0.
        ``out=size`` takes it in place."""
        with np.errstate(divide="ignore"):
            return np.log1p(np.maximum(size, -1.0, out=out), out=out)

    @staticmethod
    def relative_jump(size: np.ndarray) -> np.ndarray:
        return size

    @staticmethod
    def log_drift(drift_b: float, brownian_sigma: float) -> float:
        """Stochastic exponential: the Brownian part pays its Ito term."""
        return drift_b - 0.5 * brownian_sigma**2

    def mean_growth(self, brownian_sigma: float) -> float:
        """What the jumps add to b in ln E[S_T / S_0] / T: intensity
        E[max(J, -1)], since a jump J <= -1 absorbs the price at zero (its
        factor is 0, not 1 + J).  It is intensity E[J] when J >= -1."""
        return self.intensity * self.law.absorbed_mean()

    def sample_cells(self, dts: np.ndarray, shape, rng: np.random.Generator, records: bool):
        """Log-factor of each cell's jumps and, with ``records``, the jumps."""
        return _poisson_cells(self.intensity, self.law.sample, self.log_jump, dts, shape, rng,
                              records)


@dataclass(frozen=True)
class VarianceGamma:
    """Variance-gamma process: Brownian motion with drift on a gamma clock.

    Parameters follow the (theta, nu, sigma) convention: theta is the
    drift of the subordinated Brownian motion, nu the variance rate of the
    gamma subordinator, sigma its volatility.  Its jumps x are log-jumps.
    Jump records come from Bondesson's series cut at the scale
    ``truncation_eps``, which must stay below 1/max(G, M).
    """

    theta: float
    nu: float
    sigma: float
    truncation_eps: float = 1e-6

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if not self.nu > 0:
            raise ValueError(f"nu must be > 0, got {self.nu}")
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not self.truncation_eps > 0:
            raise ValueError(f"truncation_eps must be > 0, got {self.truncation_eps}")
        if self.sigma > 0:  # sigma = 0 leaves one side without jumps, and no (C, G, M)
            _, g, m = self.cgm()
            if self.truncation_eps * max(g, m) >= 1:
                raise ValueError(f"truncation_eps must be < 1/max(G, M) = {1 / max(g, m):.6g}, "
                                 f"got {self.truncation_eps}")

    def cgm(self) -> tuple[float, float, float]:
        """(C, G, M) parameters of the two-sided gamma representation.

        Raises ``DegenerateModelError`` for sigma = 0: one side of the Levy
        measure is then empty, and its decay rate infinite.
        """
        if self.sigma == 0:
            raise DegenerateModelError("variance gamma with sigma = 0 leaves a side of its "
                                       "Levy measure empty: no (C, G, M)")
        root = math.sqrt(self.theta**2 * self.nu**2 / 4 + self.sigma**2 * self.nu / 2)
        half = self.theta * self.nu / 2
        return 1.0 / self.nu, 1.0 / (root - half), 1.0 / (root + half)

    def nu_moment(self, i: int) -> float:
        """m_i via the two-sided gamma density: C (i-1)! (M^-i + (-1)^i G^-i)."""
        if i < 1:
            raise UnsupportedOrderError(f"moment order must be >= 1, got {i}")
        if i == 1:
            return self.theta
        c, g, m = self.cgm()
        return c * math.factorial(i - 1) * (m**-i + (-1) ** i * g**-i)

    def hedge_moment(self, i: int) -> float:
        """m_i of the relative jumps: the integral of (e^x - 1)^i nu(dx).

        Each side is C times I(a), the integral of (1 - e^-u)^i / u e^{-a u}
        over u > 0, with a = M - i upwards and a = G downwards (times
        (-1)^i); ``_gamma_gap`` sums the two for even i, and for odd i takes
        I(M - i) - I(G) in one piece, so the sides do not cancel digits.
        It holds 1e-13 relative while min(M - i, G) >= i / 1000; orders
        closer to M, where the moment stops existing, raise.
        """
        c, g, m = self.cgm()
        if i < 1 or min(m - i, g) < i / 1000:
            raise UnsupportedOrderError(f"moment order {i} needs min(M - i, G) >= i/1000, "
                                        f"with M = {m:.6g} and G = {g:.6g}")
        if i % 2:
            return c * _gamma_gap(m - i, g, i)
        return c * (_gamma_gap(m - i, math.inf, i) + _gamma_gap(g, math.inf, i))

    @staticmethod
    def log_jump(size: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return size

    @staticmethod
    def relative_jump(size: np.ndarray) -> np.ndarray:
        """e^x - 1, the move dS/S_- of a log-jump x."""
        return np.expm1(size)

    @staticmethod
    def log_drift(drift_b: float, brownian_sigma: float) -> float:
        """Exponential form: S -> S exp(b dt + sigma dW + dX)."""
        return drift_b

    def mean_growth(self, brownian_sigma: float) -> float:
        """What the Brownian and VG parts add to b in ln E[S_T / S_0] / T."""
        return brownian_sigma**2 / 2 - self.martingale_correction()

    def martingale_correction(self) -> float:
        """omega with E[exp(X_t + omega t)] = 1 (exponential-form drift fix)."""
        x = self.theta * self.nu + self.sigma**2 * self.nu / 2
        if x >= 1:
            raise ValueError("VG exponential moment does not exist for these parameters")
        return math.log1p(-x) / self.nu  # log1p: theta nu and sigma^2 nu are often small

    def sample_cells(self, dts: np.ndarray, shape, rng: np.random.Generator, records: bool):
        """Log-factor of each cell's jumps: exact through the gamma clock, or
        with ``records`` from the truncated series, returning its jumps too."""
        if not records:
            g = rng.gamma(dts / self.nu, self.nu, shape)
            return self.theta * g + self.sigma * np.sqrt(g) * rng.standard_normal(shape), None
        return _poisson_cells(*self._truncated(), self.log_jump, dts, shape, rng, True)

    def _truncated(self):
        """Jump records as a compound Poisson: (rate, size sampler).

        Bondesson's series for a gamma process cut at u < lam eps: each side
        (lam = M upwards, G downwards) makes jumps at rate C ln(1/(lam eps))
        with sizes |x| = (lam eps)^U E / lam, U uniform and E exponential.
        They hold exactly C (e^{-lam |x|} - e^{-|x|/eps}) / |x| of the Levy
        measure on each side; the part dropped, C e^{-|x|/eps} / |x| on
        both sides, has mean zero, so no drift makes up for it.
        """
        eps = self.truncation_eps
        c, g, m = self.cgm()
        up, down = -c * math.log(m * eps), -c * math.log(g * eps)

        def sample(rng: np.random.Generator, n: int) -> np.ndarray:
            # draws: each jump's side, then all the U, then all the E
            negative = rng.random(n) < down / (up + down)
            lam = np.where(negative, g, m)
            size = (lam * eps) ** rng.random(n) * rng.standard_exponential(n) / lam
            return np.where(negative, -size, size)

        return up + down, sample


@functools.cache
def _legendre_rule():
    """Nodes and weights of the 64-node Gauss-Legendre rule on (0, 1)."""
    from numpy.polynomial.legendre import leggauss  # only VG hedge moments need it

    x, w = leggauss(64)
    return (x + 1) / 2, w / 2


def _gamma_gap(a: float, b: float, i: int) -> float:
    """I(a) - I(b) for I(a) = the integral of (1 - e^-u)^i / u e^{-a u} over u > 0.

    Since dI/da = -B(a, i + 1), the gap is the integral over a < s < b of
    i! / (s (s + 1) ... (s + i)); s = a / t^2 makes it the integral over
    sqrt(a / b) < t < 1 of 2 / t times the product over j = 1..i of
    j t^2 / (j t^2 + a), which is positive and smooth (its nearest poles
    sit at t^2 = -a / i), for the Gauss-Legendre rule.  ``b`` may be inf.
    """
    if a > b:
        return -_gamma_gap(b, a, i)
    # the lower end and 1 minus it, without cancelling digits when a nears b
    t0, width = (0.0, 1.0) if b == math.inf else (math.sqrt(a / b),
                                                  (b - a) / (b + math.sqrt(a * b)))
    x, w = _legendre_rule()
    t = t0 + width * x
    jt2 = np.outer(t * t, np.arange(1, i + 1))
    return float(width * (w @ (2 / t * np.prod(jt2 / (jt2 + a), axis=1))))


# ---------------------------------------------------------------------------
# The model proper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyModel:
    """Asset dynamics dS = b S dt + S dX; the jump spec owns the law of X's jumps."""

    drift_b: float = 0.0
    brownian_sigma: float = 0.0
    jump_spec: CompoundPoisson | VarianceGamma | None = None

    def __post_init__(self):
        if not math.isfinite(self.drift_b):
            raise ValueError(f"drift_b must be finite, got {self.drift_b}")
        if not self.brownian_sigma >= 0:
            raise ValueError(f"brownian_sigma must be >= 0, got {self.brownian_sigma}")


@dataclass(frozen=True)
class MomentVector:
    """Hedge moments m_1..m_imax (of the relative jumps) plus the
    Brownian-adjusted m2'."""

    m: tuple[float, ...]
    brownian_sigma: float = 0.0

    def __getitem__(self, i: int) -> float:
        if not 1 <= i <= len(self.m):
            raise UnsupportedOrderError(f"moment m_{i} not available (have 1..{len(self.m)})")
        return self.m[i - 1]

    def prime(self, i: int) -> float:
        """m'_i: equal to m_i except m'_2 = m_2 + sigma^2."""
        return self[2] + self.brownian_sigma**2 if i == 2 else self[i]

    @property
    def order(self) -> int:
        return len(self.m)


def moment_vector(model: LevyModel, i_max: int) -> MomentVector:
    """m_i = integral of (dS/S_-)^i against the Levy measure, i = 1..i_max:
    the jump spec's ``hedge_moment``, which every hedge formula reads."""
    spec = model.jump_spec
    return MomentVector(
        m=tuple(0.0 if spec is None else spec.hedge_moment(i) for i in range(1, i_max + 1)),
        brownian_sigma=model.brownian_sigma,
    )


def increment_cumulants(model: LevyModel, dt: float, k_max: int) -> tuple[float, ...]:
    """Cumulants of X_{t+dt} - X_t for the X the sampler draws: kappa_q =
    m'_q dt from the Levy measure of X (the spec's ``nu_moment``), where
    m'_q = m_q except m'_2 = m_2 + sigma^2."""
    spec = model.jump_spec
    nu = MomentVector(
        m=tuple(0.0 if spec is None else spec.nu_moment(q) for q in range(1, k_max + 1)),
        brownian_sigma=model.brownian_sigma,
    )
    return tuple(nu.prime(q) * dt for q in range(1, k_max + 1))


def risk_neutral_drift(model: LevyModel, r: float, dividend: float = 0.0) -> float:
    """Drift b making the dividend-adjusted discounted asset driftless: r -
    dividend less the jump spec's mean growth."""
    spec = model.jump_spec
    return r - dividend - (0.0 if spec is None else spec.mean_growth(model.brownian_sigma))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpRecords:
    """Every jump of one factor draw, ordered by path and then step: its
    path and step index, its size in the spec's convention (a log-jump for
    variance-gamma; ``relative_jump`` gives dS/S_-) and its time from the
    start of the grid."""

    path: np.ndarray
    step: np.ndarray
    size: np.ndarray
    time: np.ndarray


_NO_JUMPS = JumpRecords(np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0), np.empty(0))

# Cells (paths x steps) per chunk of a factor draw.  A constant, so that a
# draw's chunks and streams do not depend on the machine.  Measured on the
# benchmark's draws: 2^14 cells fault fresh memory into the workers on every
# chunk of a 5-jumps-per-cell draw and lose to a serial draw on one core;
# 2^13 cells do not, and cost about 0.1 ms per chunk in spawning and handoff.
# A chunk's count of jumps is not bounded by its cells, so without records its
# compound-Poisson jumps are drawn in blocks of whole cells, each of at most
# JUMP_BLOCK jumps unless one cell holds more: a chunk's memory then does not
# grow with the jumps per cell, and the blocks move no bit of its factors.
CHUNK_CELLS = 2**13
JUMP_BLOCK = 2**14
_POOL = None  # see _pool
_POOL_LOCK = threading.Lock()


def _poisson_cells(rate: float, sample, log_jump, dts: np.ndarray, shape,
                   rng: np.random.Generator, records: bool):
    """Jumps arriving at ``rate`` with sizes from ``sample`` in every cell of
    ``shape`` (paths by steps of lengths ``dts``): the log-factor of each
    cell's jumps and, with ``records``, the jumps themselves.

    Without records the cells are taken in blocks of consecutive cells,
    cut on the cumulative counts so that a block holds at most
    ``JUMP_BLOCK`` jumps unless one cell holds more.  Each block draws its
    sizes, takes their logs in place and sums them into its cells.  The
    draws follow one another as in a single call, and each cell adds its
    jumps in the same order, so the blocks move no bit."""
    counts = rng.poisson(rate * dts, shape)
    if records:
        sizes = sample(rng, int(counts.sum()))
        log_sizes = log_jump(sizes)  # before the cell index: a lower memory peak
        cells = np.repeat(np.arange(counts.size), counts.ravel())
        jump_log = np.bincount(cells, log_sizes, counts.size).reshape(shape)
        path, step = np.divmod(cells, shape[1])
        start = np.cumsum(dts) - dts
        times = start[step] + dts[step] * rng.random(len(sizes))
        return jump_log, JumpRecords(path, step, sizes, times)
    counts = counts.ravel()
    ends = np.cumsum(counts)  # jumps up to and including each cell
    jump_log = np.zeros(counts.size)
    first, done = 0, 0  # the block's first cell, and the jumps before it
    while done < ends[-1]:
        stop = max(first + 1, int(np.searchsorted(ends, done + JUMP_BLOCK, side="right")))
        block = counts[first:stop]
        sizes = sample(rng, int(ends[stop - 1]) - done)
        log_sizes = log_jump(sizes, out=sizes)
        cells = np.repeat(np.arange(block.size), block)
        jump_log[first:stop] = np.bincount(cells, log_sizes, block.size)
        first, done = stop, int(ends[stop - 1])
    return jump_log.reshape(shape), None


def relative_factors(
    model: LevyModel,
    dt,
    steps: int,
    n_paths: int,
    rng: np.random.Generator,
    antithetic: bool = False,
    records: bool = False,
):
    """Multiplicative per-step factors S_{k+1}/S_k, shape (n_paths, steps).

    The library's one sampler of the model's moves; ``dt`` is one step
    length or one per step.  Each factor is exp(log drift * dt + sigma dW)
    times the jump spec's cell factor, the log drift being the spec's rule
    (b - sigma^2/2 without jumps).  The factors do not depend on the price
    level, so one draw prices every initial condition (the common-random-
    numbers backbone).  A cell hit by a jump <= -1 has factor 0: the price
    is absorbed at zero and every later product keeps it there.

    The paths are drawn in chunks of an even number of rows, about
    ``CHUNK_CELLS`` cells each: chunk 0 from ``rng`` itself, chunk k >= 1
    from ``rng.spawn(n_chunks - 1)[k - 1]``.  A draw of one chunk runs
    inline and makes exactly the calls of an unchunked draw on ``rng``;
    larger ones run on a thread pool, and are a pure function of rng's
    seed and the arguments, whatever the worker count.  With
    ``antithetic`` the Gaussian draws of the second half of each chunk
    mirror its first half (jump counts and sizes are shared pairwise);
    an odd last chunk drops the mirror of its last row.  The rows are then
    not independent, which every SE's i.i.d. per-path formula assumes (see
    ``pricing.price_curve``).

    With ``records`` the result is ``(factors, JumpRecords)``; VG jumps then
    come from the truncated series of its Levy measure, so that individual
    jumps exist.
    """
    if steps < 1 or n_paths < 1:
        raise ValueError("need steps >= 1 and n_paths >= 1")
    if records and antithetic:
        raise ValueError("jump records are drawn without antithetic pairing")
    dts = np.broadcast_to(np.asarray(dt, dtype=float), (steps,))
    if not np.all(np.isfinite(dts) & (dts >= 0)):
        raise ValueError("dt must be finite and >= 0")
    rows = max(2, CHUNK_CELLS // (2 * steps) * 2)
    starts = range(0, n_paths, rows)
    rngs = [rng, *rng.spawn(len(starts) - 1)] if len(starts) > 1 else [rng]
    factors = np.empty((n_paths, steps))

    def draw(k: int) -> JumpRecords:
        out = factors[starts[k]:starts[k] + rows]
        return _draw_chunk(model, dts, out, rngs[k], antithetic, records)

    jumps = [draw(0)] if len(starts) == 1 else list(_pool().map(draw, range(len(starts))))
    if not records:
        return factors
    fields = zip(*((j.path + start, j.step, j.size, j.time) for j, start in zip(jumps, starts)))
    return factors, JumpRecords(*map(np.concatenate, fields))


def _draw_chunk(model: LevyModel, dts: np.ndarray, out: np.ndarray, rng: np.random.Generator,
                antithetic: bool, records: bool) -> JumpRecords:
    """One chunk of ``relative_factors``: writes the factors of the rows of
    ``out`` and returns their jumps, with paths counted from its first row."""
    n_paths, steps = out.shape
    spec, b, sigma = model.jump_spec, model.drift_b, model.brownian_sigma
    rows = (n_paths + 1) // 2 if antithetic else n_paths
    # the log-factors sigma sqrt(dt) z + log drift * dt + jumps, built in place
    # in ``out``: the same operations on the same operands as in fresh arrays
    rng.standard_normal(out=out[:rows])
    np.negative(out[:n_paths - rows], out=out[rows:])  # empty unless antithetic
    log_drift = b - 0.5 * sigma**2 if spec is None else spec.log_drift(b, sigma)
    out *= sigma * np.sqrt(dts)
    out += log_drift * dts
    jump_log, jumps = (None, _NO_JUMPS) if spec is None else spec.sample_cells(
        dts, (rows, steps), rng, records)
    if jump_log is not None:
        out[:rows] += jump_log
        out[rows:] += jump_log[:n_paths - rows]
    np.exp(out, out=out)
    return jumps


def _pool():
    """The thread pool of multi-chunk draws, one worker per usable core,
    made on the first such draw."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor  # single-chunk draws never load it

            cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count())
            _POOL = ThreadPoolExecutor(max_workers=cores or 1)
        return _POOL


def _forget_pool():
    """A forked child has none of its parent's threads: neither the pool's
    workers nor one that may have held the lock."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def one_jump_increments(
    model: LevyModel, dt: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Increments under the at-most-one-jump reading of a short period:
    dX = sigma sqrt(dt) Z + J B with B ~ Bernoulli(intensity * dt).

    This is the regime in which the power-jump decompositions and the
    minimal-variance weights are derived (dS = S dX, one jump at most); it
    backs the optimality diagnostics that compare those weights with
    empirical minimizers.
    """
    if not isinstance(model.jump_spec, CompoundPoisson):
        raise ValueError("one-jump regime sampling needs a compound-Poisson model")
    spec = model.jump_spec
    p = spec.intensity * dt
    if p >= 1:
        raise ValueError(f"intensity*dt = {p:.3g} is not a one-jump regime")
    z = rng.standard_normal(n)
    jump_on = rng.random(n) < p
    jumps = spec.law.sample(rng, n) * jump_on
    return model.brownian_sigma * math.sqrt(dt) * z + jumps
