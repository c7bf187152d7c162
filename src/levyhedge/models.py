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
relative jump: both moment families agree.  ``VarianceGamma`` is infinite
activity, sampled exactly through the gamma time change.  Paths evolve in
exponential form S -> S exp(b dt + dX), so a jump x is a log-jump and moves
the price by e^x - 1.  Its jump records come from the compound-Poisson
approximation keeping the jumps with |x| > ``truncation_eps``, the small
jumps' mean folded into the drift.  Their tail rates and sizes need the
exponential integral E1, the one use of scipy in the package:
``scipy.special`` is imported there, on first use.

``relative_factors`` is the one sampler of the model's moves: per-step
factors S_{k+1}/S_k on any grid of steps, with flat jump records on request.
``one_jump_increments`` samples a different law on purpose: the
at-most-one-jump reading of a short period in which the hedge weights are
derived."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedOrderError

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
    "log_mean_growth",
    "risk_neutral_drift",
]


# ---------------------------------------------------------------------------
# Jump-size laws for compound-Poisson models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalJumps:
    """Normally distributed jump sizes J ~ N(mean, std^2)."""

    mean: float = 0.0
    std: float = 0.1

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

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mean, self.std, n)


@dataclass(frozen=True)
class FixedJumps:
    """Degenerate jump law: every jump has the same size."""

    size: float = 0.05

    def moment(self, i: int) -> float:
        if i < 0:
            raise UnsupportedOrderError(f"moment order must be >= 0, got {i}")
        return self.size**i

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
        if self.intensity <= 0:
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
    def log_jump(size: np.ndarray) -> np.ndarray:
        """ln(1 + J), NaN for J <= -1 (a bankrupt cell)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(size <= -1.0, np.nan, np.log1p(size))

    @staticmethod
    def relative_jump(size: np.ndarray) -> np.ndarray:
        return size

    @staticmethod
    def log_drift(drift_b: float, brownian_sigma: float) -> float:
        """Stochastic exponential: the Brownian part pays its Ito term."""
        return drift_b - 0.5 * brownian_sigma**2

    def mean_growth(self, brownian_sigma: float) -> float:
        """What the jumps add to b in ln E[S_T / S_0] / T."""
        return self.intensity * self.law.moment(1)

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
    Jump records come from the compound-Poisson approximation keeping the
    jumps with |x| > ``truncation_eps``.
    """

    theta: float
    nu: float
    sigma: float
    truncation_eps: float = 1e-6

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError(f"nu must be > 0, got {self.nu}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.truncation_eps <= 0:
            raise ValueError(f"truncation_eps must be > 0, got {self.truncation_eps}")

    def cgm(self) -> tuple[float, float, float]:
        """(C, G, M) parameters of the two-sided gamma representation."""
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

        Each side is C times the integral of (1 - e^-u)^i / u e^{-a u} over
        u > 0, with a = M - i upwards and a = G downwards (times (-1)^i);
        t = a u makes it a 32-node Gauss-Laguerre sum.  The integrand is
        bounded and of one sign, so no digit cancels as in the binomial sum
        over exponential moments.  It exists for i < M only, and loses
        digits as i nears M (3e-14 relative at M - i = 2.6, 1e-5 at 0.6).
        """
        c, g, m = self.cgm()
        if not 1 <= i < m:
            raise UnsupportedOrderError(f"moment order must be in [1, M = {m:.6g}), got {i}")
        t, w = _laguerre_rule()
        up, down = (w @ ((-np.expm1(-t / a)) ** i / t) for a in (m - i, g))
        return float(c * (up + (-1) ** i * down))

    @staticmethod
    def log_jump(size: np.ndarray) -> np.ndarray:
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

    def levy_density(self, x: float) -> float:
        c, g, m = self.cgm()
        if x == 0:
            return math.inf
        rate = m if x > 0 else g
        return c / abs(x) * math.exp(-rate * abs(x))

    def martingale_correction(self) -> float:
        """omega with E[exp(X_t + omega t)] = 1 (exponential-form drift fix)."""
        arg = 1.0 - self.theta * self.nu - self.sigma**2 * self.nu / 2
        if arg <= 0:
            raise ValueError("VG exponential moment does not exist for these parameters")
        return math.log(arg) / self.nu

    def sample_cells(self, dts: np.ndarray, shape, rng: np.random.Generator, records: bool):
        """Log-factor of each cell's jumps: exact through the gamma clock, or
        with ``records`` from the truncated measure, returning its jumps too."""
        if not records:
            g = rng.gamma(dts / self.nu, self.nu, shape)
            return self.theta * g + self.sigma * np.sqrt(g) * rng.standard_normal(shape), None
        rate, sample, drift = self._truncated()
        jump_log, jumps = _poisson_cells(rate, sample, self.log_jump, dts, shape, rng, True)
        return jump_log + drift * dts, jumps

    def _truncated(self):
        """The ``truncation_eps``-truncated compound-Poisson approximation of
        the Levy measure as (rate, size sampler, drift).

        Jumps with |x| > eps arrive at the exponential-integral tail rates
        C E1(M eps) upwards and C E1(G eps) downwards; the mean of the dropped
        small jumps, the integral of x nu(dx) over |x| <= eps, becomes a drift.
        """
        from scipy.special import exp1  # only VG jump records need E1

        eps = self.truncation_eps
        c, g, m = self.cgm()
        up, down = c * exp1(m * eps), c * exp1(g * eps)
        drift = c * ((1 - math.exp(-m * eps)) / m - (1 - math.exp(-g * eps)) / g)

        def sample(rng: np.random.Generator, n: int) -> np.ndarray:
            # each jump picks a side, then inverts that side's tail
            # E1(lam x) = (1 - u) E1(lam eps)
            negative = rng.random(n) < down / (up + down)
            lam = np.where(negative, g, m)
            target = (1.0 - rng.random(n)) * exp1(lam * eps)
            return np.where(negative, -1.0, 1.0) * _e1_tail_inverse(lam, target, eps)

        return up + down, sample, drift


@functools.cache
def _laguerre_rule():
    """Nodes and weights of the 32-node Gauss-Laguerre rule."""
    from numpy.polynomial.laguerre import laggauss  # only VG hedge moments need it

    return laggauss(32)


def _e1_tail_inverse(lam: np.ndarray, target: np.ndarray, eps: float) -> np.ndarray:
    """x >= eps with E1(lam x) = target, elementwise, for 0 < target <= E1(lam eps).

    Newton on y = ln x solves ln E1(lam e^y) = ln target, whose slope in y
    is -e^-z / E1(z) at z = lam e^y.  It starts from the small-z asymptote
    E1(z) ~ -gamma - ln z above a target of 1/2 and from the large-z one
    E1(z) ~ e^-z / z below it, and keeps the bracket [ln eps, hi] from the
    sign of E1(z) - target (E1(z) <= e^-z for z >= 1 gives hi): a step that
    leaves the bracket falls back to its midpoint.  Six sweeps reach
    machine precision from those starts.
    """
    from scipy.special import exp1

    log_t = np.log(target)
    w = np.maximum(-log_t, math.log(2.0))  # -ln target wherever the large-z start is used
    z0 = np.where(target > 0.5, np.exp(-np.euler_gamma - target), w - np.log(w))
    lo = np.full(len(target), math.log(eps))
    hi = np.log(np.maximum(np.maximum(1.0, w) / lam, eps))
    y = np.clip(np.log(z0 / lam), lo, hi)
    for _ in range(6):
        z = lam * np.exp(y)
        e1 = exp1(z)
        above = e1 > target  # the root lies above y
        lo = np.where(above, y, lo)
        hi = np.where(above, hi, y)
        step = y + (np.log(e1) - log_t) * e1 * np.exp(z)
        # inclusive: a converged step lands on the bracket end it just set
        y = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
    return np.exp(y)


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
        if self.brownian_sigma < 0:
            raise ValueError("brownian_sigma must be >= 0")


@dataclass(frozen=True)
class MomentVector:
    """Hedge moments m_1..m_imax (of the relative jumps) plus the
    Brownian-adjusted m2'."""

    m: tuple[float, ...]
    brownian_sigma: float = 0.0

    @property
    def m2_prime(self) -> float:
        return self.m[1] + self.brownian_sigma**2

    def __getitem__(self, i: int) -> float:
        if not 1 <= i <= len(self.m):
            raise UnsupportedOrderError(f"moment m_{i} not available (have 1..{len(self.m)})")
        return self.m[i - 1]

    def prime(self, i: int) -> float:
        """m'_i: equal to m_i except m'_2 = m_2 + sigma^2."""
        return self.m2_prime if i == 2 else self[i]

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


def _jump_growth(model: LevyModel) -> float:
    spec = model.jump_spec
    return 0.0 if spec is None else spec.mean_growth(model.brownian_sigma)


def log_mean_growth(model: LevyModel) -> float:
    """gamma with E[S_T] = S_0 exp(gamma T): b plus the jump spec's mean growth."""
    return model.drift_b + _jump_growth(model)


def risk_neutral_drift(model: LevyModel, r: float, dividend: float = 0.0) -> float:
    """Drift b making the dividend-adjusted discounted asset driftless."""
    return r - dividend - _jump_growth(model)


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


def _poisson_cells(rate: float, sample, log_jump, dts: np.ndarray, shape,
                   rng: np.random.Generator, records: bool):
    """Jumps arriving at ``rate`` with sizes from ``sample`` in every cell of
    ``shape`` (paths by steps of lengths ``dts``): the log-factor of each
    cell's jumps and, with ``records``, the jumps themselves."""
    counts = rng.poisson(rate * dts, shape)
    sizes = sample(rng, int(counts.sum()))
    log_sizes = log_jump(sizes)  # before the cell index: a lower memory peak
    cells = np.repeat(np.arange(counts.size), counts.ravel())
    jump_log = np.bincount(cells, log_sizes, counts.size).reshape(shape)
    if not records:
        return jump_log, None
    path, step = np.divmod(cells, shape[1])
    start = np.cumsum(dts) - dts
    times = start[step] + dts[step] * rng.random(len(sizes))
    return jump_log, JumpRecords(path, step, sizes, times)


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
    numbers backbone).  Cells hit by a jump <= -1 carry NaN factors and are
    discarded downstream.  With ``antithetic`` the Gaussian draws of the
    second half mirror the first half (jump counts and sizes are shared
    pairwise).

    With ``records`` the result is ``(factors, JumpRecords)``; VG jumps then
    come from the truncated compound-Poisson approximation of its Levy
    measure, so that individual jumps exist.
    """
    if steps < 1 or n_paths < 1:
        raise ValueError("need steps >= 1 and n_paths >= 1")
    if records and antithetic:
        raise ValueError("jump records are drawn without antithetic pairing")
    dts = np.broadcast_to(np.asarray(dt, dtype=float), (steps,))
    if np.any(dts < 0):
        raise ValueError("dt must be >= 0")
    spec, b, sigma = model.jump_spec, model.drift_b, model.brownian_sigma
    rows = (n_paths + 1) // 2 if antithetic else n_paths
    z = rng.standard_normal((rows, steps))
    if antithetic:
        z = np.concatenate([z, -z], axis=0)[:n_paths]
    log_drift = b - 0.5 * sigma**2 if spec is None else spec.log_drift(b, sigma)
    log_f = log_drift * dts + sigma * np.sqrt(dts) * z
    jump_log, jumps = (None, _NO_JUMPS) if spec is None else spec.sample_cells(
        dts, (rows, steps), rng, records)
    if jump_log is not None:
        if antithetic:
            jump_log = np.concatenate([jump_log, jump_log], axis=0)[:n_paths]
        log_f += jump_log
    factors = np.exp(log_f, out=log_f)
    return (factors, jumps) if records else factors


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
