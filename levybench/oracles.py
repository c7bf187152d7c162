"""References the benchmark computes apart from the program under test.

Nothing here imports ``levyhedge``: each function is an independent
closed form or an exact identity that the program's outputs must satisfy.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# One-period scenario moves: Delta S = s0 (f - 1)
# ---------------------------------------------------------------------------


def _normal_raw_moment(mean, std, m):
    """E[J^m] for J ~ N(mean, std^2)."""
    total = 0.0
    for j in range(0, m + 1, 2):
        double_fact = math.prod(range(j - 1, 0, -2)) if j > 1 else 1
        total += math.comb(m, j) * std**j * double_fact * mean ** (m - j)
    return total


def cp_factor_moments(drift_b, sigma, intensity, jump_mean, jump_std, dt):
    """E[f^k], k = 1..4, for the product-form compound-Poisson move
    f = exp((b - sigma^2/2) dt + sigma sqrt(dt) Z) * prod_j (1 + J_j)
    with Poisson(intensity * dt) normal jumps."""
    out = []
    for k in range(1, 5):
        diffusive = k * (drift_b - 0.5 * sigma**2) * dt + 0.5 * k * k * sigma**2 * dt
        one_plus_j = sum(
            math.comb(k, m) * _normal_raw_moment(jump_mean, jump_std, m) for m in range(k + 1)
        )
        out.append(math.exp(diffusive + intensity * dt * (one_plus_j - 1.0)))
    return out


def vg_risk_neutral_drift(r, dividend, theta, nu, sigma):
    """Drift b with E[exp(b t + X_t)] = exp((r - q) t)."""
    omega = math.log(1.0 - theta * nu - sigma**2 * nu / 2.0) / nu
    return r - dividend + omega


def vg_factor_moments(drift_b, theta, nu, sigma, dt):
    """E[f^k], k = 1..4, for the exponential-form variance-gamma move
    f = exp(b dt + X_dt)."""
    out = []
    for k in range(1, 5):
        base = 1.0 - k * theta * nu - k * k * sigma**2 * nu / 2.0
        if base <= 0:
            raise ValueError(f"E[f^{k}] does not exist for these VG parameters")
        out.append(math.exp(k * drift_b * dt) * base ** (-dt / nu))
    return out


def move_moments(s0, factor_moments):
    """(mean, variance, fourth central moment) of Delta S = s0 (f - 1)."""
    e1, e2, e3, e4 = factor_moments
    var_f = e2 - e1 * e1
    mu4_f = e4 - 4.0 * e3 * e1 + 6.0 * e2 * e1 * e1 - 3.0 * e1**4
    return s0 * (e1 - 1.0), s0 * s0 * var_f, s0**4 * mu4_f


def moment_z_scores(sample, mean, var, mu4):
    """z-scores of the sample mean and the sample variance (ddof=1)
    against closed-form moments, with standard errors from the same closed
    forms: sqrt(var/n) and sqrt((mu4 - var^2)/n)."""
    n = len(sample)
    m = math.fsum(sample) / n
    s2 = math.fsum((x - m) ** 2 for x in sample) / (n - 1)
    z_mean = (m - mean) / math.sqrt(var / n)
    z_var = (s2 - var) / math.sqrt((mu4 - var * var) / n)
    return z_mean, z_var, m, s2


# ---------------------------------------------------------------------------
# Stencils
# ---------------------------------------------------------------------------


def stencil_moment_violations(entries, half_width, p_max):
    """Orders p whose row breaks sum_k d_k k^j = p! delta_{jp}, j = 0..2N.

    ``entries`` maps (p, k) to exact ``Fraction`` coefficients.  Each row
    is put over a common denominator so the sums are integer arithmetic.
    """
    n = half_width
    offsets = range(-n, n + 1)
    bad = []
    for p in range(1, p_max + 1):
        row = [Fraction(entries[(p, k)]) for k in offsets]
        den = math.lcm(*(c.denominator for c in row))
        nums = [c.numerator * (den // c.denominator) for c in row]
        powers = [1] * len(nums)
        for j in range(0, 2 * n + 1):
            total = sum(a * b for a, b in zip(nums, powers))
            want = math.factorial(p) * den if j == p else 0
            if total != want:
                bad.append(p)
                break
            powers = [pw * k for pw, k in zip(powers, offsets)]
    return bad


# ---------------------------------------------------------------------------
# Replication baskets
# ---------------------------------------------------------------------------


def iterated_integral_bound(theta, jump_sizes, moments_by_order, dt):
    """Upper bound on |S'_theta| over a period of length dt: the product of
    the total variations sum_j |x_j|^i + |m_i| dt of the integrators."""
    bound = 1.0
    for level in theta:
        bound *= math.fsum(abs(x) ** level for x in jump_sizes) + abs(moments_by_order[level]) * dt
    return bound
