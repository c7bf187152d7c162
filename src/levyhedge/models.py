"""Levy asset models: jump specifications, moments, and simulation.

The asset follows dS = b S dt + S dX where X is a Levy process made of an
optional Brownian part and a jump part.  Two jump specifications are
supported:

* ``CompoundPoisson`` -- finite activity.  Paths evolve by the stochastic
  exponential, so each jump J multiplies the price by (1 + J) and every
  jump can be recorded for power-jump bookkeeping.
* ``VarianceGamma`` -- infinite activity, sampled exactly through the
  gamma time change.  Individual jumps are unobservable, so paths evolve
  in exponential form S -> S * exp(b*dt + dX); when explicit jump records
  are required an epsilon-truncated compound-Poisson approximation of the
  VG Levy measure is used, with the truncated small-jump mass folded into
  the drift.

``relative_factors`` is the one sampler of the model's moves: per-step
factors S_{k+1}/S_k on any grid of steps, with flat jump records on
request.  Path bundles, single paths (``simulate_path``) and the P&L's
one-period scenarios are all drawn through it.  ``one_jump_increments``
samples a different law on purpose: the at-most-one-jump reading of a
short period in which the hedge weights are derived.

Moments m_i = integral of x^i against the Levy measure are analytic for
both families and are the raw inputs to every hedging formula downstream."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import BankruptcyError, MissingJumpRecordsError, UnsupportedOrderError

__all__ = [
    "NormalJumps",
    "FixedJumps",
    "CompoundPoisson",
    "VarianceGamma",
    "LevyModel",
    "MomentVector",
    "PathGrid",
    "levy_moment",
    "moment_vector",
    "increment_cumulants",
    "JumpRecords",
    "relative_factors",
    "simulate_path",
    "power_jump_path",
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
            central = self.std**j * _double_factorial(j - 1)
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


def _double_factorial(n: int) -> int:
    if n <= 0:
        return 1
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# ---------------------------------------------------------------------------
# Jump specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompoundPoisson:
    """Jumps arrive at rate ``intensity`` per year with i.i.d. sizes."""

    intensity: float
    law: NormalJumps | FixedJumps = field(default_factory=NormalJumps)

    def __post_init__(self):
        if self.intensity <= 0:
            raise ValueError(f"intensity must be > 0, got {self.intensity}")

    def nu_moment(self, i: int) -> float:
        """m_i of the Levy measure: intensity * E[J^i]."""
        return self.intensity * self.law.moment(i)


@dataclass(frozen=True)
class VarianceGamma:
    """Variance-gamma process: Brownian motion with drift on a gamma clock.

    Parameters follow the (theta, nu, sigma) convention: theta is the
    drift of the subordinated Brownian motion, nu the variance rate of the
    gamma subordinator, sigma its volatility.
    """

    theta: float
    nu: float
    sigma: float

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError(f"nu must be > 0, got {self.nu}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

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


# ---------------------------------------------------------------------------
# The model proper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyModel:
    """Asset dynamics dS = b S dt + S dX.

    ``jump_eps`` is the truncation threshold below which infinite-activity
    jumps are folded into drift when explicit jump records are requested.
    """

    drift_b: float = 0.0
    brownian_sigma: float = 0.0
    jump_spec: CompoundPoisson | VarianceGamma | None = None
    jump_eps: float = 1e-6

    def __post_init__(self):
        if self.brownian_sigma < 0:
            raise ValueError("brownian_sigma must be >= 0")
        if self.jump_eps <= 0:
            raise ValueError("jump_eps must be > 0")

    @property
    def exponential_form(self) -> bool:
        """True when paths evolve as S*exp(b dt + dX) rather than the
        stochastic exponential; used for infinite-activity jumps."""
        return isinstance(self.jump_spec, VarianceGamma)


@dataclass(frozen=True)
class MomentVector:
    """Levy-measure moments m_1..m_imax plus the Brownian-adjusted m2'."""

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


def levy_moment(model: LevyModel, i: int) -> float:
    """m_i = int x^i nu(dx) for i >= 2; E[X_1] for i = 1."""
    if i < 1:
        raise UnsupportedOrderError(f"moment order must be >= 1, got {i}")
    if model.jump_spec is None:
        return 0.0
    return model.jump_spec.nu_moment(i)


def moment_vector(model: LevyModel, i_max: int) -> MomentVector:
    return MomentVector(
        m=tuple(levy_moment(model, i) for i in range(1, i_max + 1)),
        brownian_sigma=model.brownian_sigma,
    )


def increment_cumulants(model: LevyModel, dt: float, k_max: int) -> tuple[float, ...]:
    """Cumulants of X_{t+dt} - X_t: kappa_1 = m_1 dt, kappa_2 = (m_2 + sigma^2) dt,
    kappa_q = m_q dt for q >= 3."""
    mom = moment_vector(model, k_max)
    out = [mom[1] * dt, mom.m2_prime * dt] if k_max >= 2 else [mom[1] * dt]
    for q in range(3, k_max + 1):
        out.append(mom[q] * dt)
    return tuple(out[:k_max])


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpRecords:
    """Every jump of one factor draw, ordered by path and then step: its
    path and step index, its size (a log-jump for exponential-form models)
    and its time from the start of the grid."""

    path: np.ndarray
    step: np.ndarray
    size: np.ndarray
    time: np.ndarray


_NO_JUMPS = JumpRecords(np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0), np.empty(0))


def _log_drift(model: LevyModel) -> float:
    """Deterministic log-growth rate of a factor besides the jumps."""
    if model.exponential_form:
        return model.drift_b
    return model.drift_b - 0.5 * model.brownian_sigma**2


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
    length or one per step.  Compound-Poisson factors are the stochastic
    exponential exp((b - sigma^2/2) dt + sigma dW) prod(1 + J); exponential-
    form factors are exp(b dt + dX), with VG exact through the gamma time
    change.  The factors do not depend on the price level, so one draw
    prices every initial condition (the common-random-numbers backbone).
    Cells hit by a jump <= -1 carry NaN factors and are discarded
    downstream.  With ``antithetic`` the Gaussian draws of the second half
    mirror the first half (jump counts and sizes are shared pairwise).

    With ``records`` the result is ``(factors, JumpRecords)``; VG jumps then
    come from the eps-truncated compound-Poisson approximation of its Levy
    measure (``model.jump_eps``), so that individual jumps exist.
    """
    if steps < 1 or n_paths < 1:
        raise ValueError("need steps >= 1 and n_paths >= 1")
    if records and antithetic:
        raise ValueError("jump records are drawn without antithetic pairing")
    dts = np.broadcast_to(np.asarray(dt, dtype=float), (steps,))
    if np.any(dts < 0):
        raise ValueError("dt must be >= 0")
    rows = (n_paths + 1) // 2 if antithetic else n_paths
    z = rng.standard_normal((rows, steps))
    if antithetic:
        z = np.concatenate([z, -z], axis=0)[:n_paths]
    log_f = _log_drift(model) * dts + model.brownian_sigma * np.sqrt(dts) * z
    jump_log, jumps = _jump_part(model, dts, (rows, steps), rng, records)
    if jump_log is not None:
        if antithetic:
            jump_log = np.concatenate([jump_log, jump_log], axis=0)[:n_paths]
        log_f += jump_log
    factors = np.exp(log_f, out=log_f)
    return (factors, jumps) if records else factors


def _jump_part(model: LevyModel, dts: np.ndarray, shape, rng: np.random.Generator,
               records: bool):
    """Log-factor of each cell's jumps (None without a jump part) and, with
    ``records``, the jumps themselves."""
    spec = model.jump_spec
    if spec is None:
        return None, _NO_JUMPS
    if isinstance(spec, VarianceGamma) and not records:
        g = rng.gamma(dts / spec.nu, spec.nu, shape)
        return spec.theta * g + spec.sigma * np.sqrt(g) * rng.standard_normal(shape), None
    if isinstance(spec, CompoundPoisson):
        rate, sample, small_drift = spec.intensity, spec.law.sample, 0.0
    else:
        rate, sample, small_drift = _truncated_vg(spec, model.jump_eps)
    counts = rng.poisson(rate * dts, shape)
    sizes = sample(rng, int(counts.sum()))
    if model.exponential_form:
        logj = sizes
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            logj = np.where(sizes <= -1.0, np.nan, np.log1p(sizes))  # NaN: bankrupt
    cells = np.repeat(np.arange(counts.size), counts.ravel())
    jump_log = np.bincount(cells, logj, counts.size).reshape(shape)
    if small_drift:
        jump_log += small_drift * dts
    if not records:
        return jump_log, None
    path, step = np.divmod(cells, shape[1])
    start = np.cumsum(dts) - dts
    times = start[step] + dts[step] * rng.random(len(sizes))
    return jump_log, JumpRecords(path, step, sizes, times)


def _truncated_vg(spec: VarianceGamma, eps: float):
    """The eps-truncated compound-Poisson approximation of a VG Levy
    measure as (rate, size sampler, drift).

    Jumps with |x| > eps arrive at the exponential-integral tail rates
    C E1(M eps) upwards and C E1(G eps) downwards; the mean of the dropped
    small jumps, the integral of x nu(dx) over |x| <= eps, becomes a drift.
    """
    c, g, m = spec.cgm()
    up, down = c * special.exp1(m * eps), c * special.exp1(g * eps)
    drift = c * ((1 - math.exp(-m * eps)) / m - (1 - math.exp(-g * eps)) / g)

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        # each jump picks a side, then inverts that side's tail
        # E1(lam x) = (1 - u) E1(lam eps) by bisection on log x, all at once;
        # E1(z) <= exp(-z) for z >= 1 gives the upper bracket
        negative = rng.random(n) < down / (up + down)
        lam = np.where(negative, g, m)
        target = (1.0 - rng.random(n)) * special.exp1(lam * eps)
        lo = np.full(n, math.log(eps))
        hi = np.log(np.maximum(np.maximum(1.0, -np.log(target)) / lam, eps))
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            above = special.exp1(lam * np.exp(mid)) > target
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        return np.where(negative, -1.0, 1.0) * np.exp(hi)

    return up + down, sample, drift


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



# ---------------------------------------------------------------------------
# Paths with jump records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathGrid:
    """One simulated path: grid times, asset values, X values, jump records."""

    times: np.ndarray
    asset: np.ndarray
    x: np.ndarray
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    jumps_recorded: bool
    model: LevyModel

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(self.asset > 0):  # NaN too: a jump <= -1 on the way
            raise BankruptcyError("asset values must stay positive")
        if len(self.jump_times) and (
            self.jump_times.min() <= self.times[0] or self.jump_times.max() > self.times[-1]
        ):
            raise ValueError("jump records must lie inside (t0, tn]")


def simulate_path(
    model: LevyModel,
    s0: float,
    times: np.ndarray,
    rng: np.random.Generator,
    track_jumps: bool = True,
) -> PathGrid:
    """Simulate one asset path on a fixed time grid: one draw of
    ``relative_factors`` and its cumulative product.

    With ``track_jumps`` a VG model is replaced by its eps-truncated
    compound-Poisson approximation so that individual jumps exist; without
    it VG increments are exact but unrecorded.  X excludes the drift b: it
    is the Brownian part plus the jumps (plus, for truncated VG, the small
    jumps' drift).  A jump <= -1 raises ``BankruptcyError``.
    """
    times = np.asarray(times, dtype=float)
    dts = np.diff(times)
    if model.exponential_form and not track_jumps:
        factors, jumps = relative_factors(model, dts, len(dts), 1, rng), _NO_JUMPS
    else:
        factors, jumps = relative_factors(model, dts, len(dts), 1, rng, records=True)
    dx = np.log(factors[0]) - _log_drift(model) * dts
    if not model.exponential_form:
        with np.errstate(invalid="ignore", divide="ignore"):
            dx += np.bincount(jumps.step, jumps.size - np.log1p(jumps.size), len(dts))
    order = np.argsort(jumps.time)
    return PathGrid(
        times=times,
        asset=s0 * np.concatenate([[1.0], np.cumprod(factors[0])]),
        x=np.concatenate([[0.0], np.cumsum(dx)]),
        jump_times=times[0] + jumps.time[order],
        jump_sizes=jumps.size[order],
        jumps_recorded=track_jumps,
        model=model,
    )


def power_jump_path(path: PathGrid, i: int, r: float = 0.0):
    """Compensated power-jump series Y^(i) and the asset T^(i) = e^{rt} Y^(i).

    Y_t^(i) = sum of (jump size)^i over jumps up to t minus m_i t for
    i >= 2; the first-order series includes the continuous part, i.e.
    Y^(1) = X - m_1 t.
    """
    if i < 1:
        raise UnsupportedOrderError(f"power order must be >= 1, got {i}")
    if not path.jumps_recorded:
        raise MissingJumpRecordsError(
            "path carries no jump records; simulate with track_jumps=True"
        )
    m_i = levy_moment(path.model, i)
    rel = path.times - path.times[0]
    if i == 1:
        y = path.x - m_i * rel
    else:
        powers = path.jump_sizes**i
        y = np.array(
            [powers[path.jump_times <= t].sum() for t in path.times]
        ) - m_i * rel
        y[0] = 0.0
    t_asset = np.exp(r * path.times) * y
    return y, t_asset


# ---------------------------------------------------------------------------
# Drift conventions
# ---------------------------------------------------------------------------


def log_mean_growth(model: LevyModel) -> float:
    """gamma with E[S_T] = S_0 exp(gamma T) under the model's convention."""
    spec = model.jump_spec
    if spec is None:
        return model.drift_b
    if isinstance(spec, CompoundPoisson):
        return model.drift_b + spec.intensity * spec.law.moment(1)
    growth = model.drift_b + model.brownian_sigma**2 / 2 - spec.martingale_correction()
    return growth


def risk_neutral_drift(model: LevyModel, r: float, dividend: float = 0.0) -> float:
    """Drift b making the dividend-adjusted discounted asset driftless."""
    base = log_mean_growth(LevyModel(0.0, model.brownian_sigma, model.jump_spec, model.jump_eps))
    return r - dividend - base
