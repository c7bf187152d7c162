import math
import os
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from levyhedge.jump_baskets import iterated_integrals
from levyhedge.models import norm_cdf, norm_pdf
from levyhedge.stencil import build_lookup_table
from levyhedge.taylor import bank_growth


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def package_env() -> dict:
    """This process's environment with the checkout's ``src`` first on
    PYTHONPATH, so a child Python imports the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def solve_rational(matrix, rhs):
    """Gaussian elimination over Fractions; independent linear-algebra oracle."""
    n = len(rhs)
    a = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def vandermonde_stencil(p, half_width):
    """Oracle: the unique coefficients with sum_k d_k k^j = p! delta_{jp},
    j = 0..2N, solved exactly."""
    n = half_width
    size = 2 * n + 1
    offsets = list(range(-n, n + 1))
    matrix = [[Fraction(k) ** j for k in offsets] for j in range(size)]
    rhs = [Fraction(math.factorial(p)) if j == p else Fraction(0) for j in range(size)]
    coeffs = solve_rational(matrix, rhs)
    return dict(zip(offsets, coeffs))


def _d1d2(s, k, t, r, sigma, dividend):
    vol = sigma * math.sqrt(t)
    d1 = (math.log(s / k) + (r - dividend + 0.5 * sigma**2) * t) / vol
    return d1, d1 - vol


def black_scholes_price(s, k, t, r, sigma, dividend=0.0, kind="european_call"):
    """Oracle: the Black-Scholes price of a European call or put, on the
    library's normal law ``models.norm_cdf``."""
    if t <= 0:
        return max(s - k, 0.0) if kind == "european_call" else max(k - s, 0.0)
    d1, d2 = _d1d2(s, k, t, r, sigma, dividend)
    if kind == "european_call":
        return s * math.exp(-dividend * t) * norm_cdf(d1) - k * math.exp(-r * t) * norm_cdf(d2)
    if kind == "european_put":
        return k * math.exp(-r * t) * norm_cdf(-d2) - s * math.exp(-dividend * t) * norm_cdf(-d1)
    raise ValueError(f"no closed form for {kind!r}")


def black_scholes_delta(s, k, t, r, sigma, dividend=0.0):
    d1, _ = _d1d2(s, k, t, r, sigma, dividend)
    return math.exp(-dividend * t) * norm_cdf(d1)


def black_scholes_gamma(s, k, t, r, sigma, dividend=0.0):
    d1, _ = _d1d2(s, k, t, r, sigma, dividend)
    return math.exp(-dividend * t) * norm_pdf(d1) / (s * sigma * math.sqrt(t))


def reference_mark(basket, outcome):
    """Oracle: ``basket.change_of_value(outcome)`` assembled column by
    column from the basket's public fields.  The stock leg (always, at
    offset 0) and one leg per T^(i), e^{rt1} units at offset m_i dt, are
    ``np.column_stack``ed over the move and each order's power sums
    (``bincount`` in list order); e^{r dt} times the U_theta units are
    joined by ``np.concatenate``, with S'_theta from each scenario's path
    stepped through the tree of the basket's own order
    (``iterated_integrals``); each scenario's legs, then the bank leg and
    the T-legs' frozen values, are added by ``math.fsum``."""
    t0, dt, r = basket.path_state.t, basket.delta_t, basket.r
    growth = bank_growth(r, dt)
    shared = [basket.bank_cash * growth]
    units, offsets = [basket.stock_units], [0.0]
    for i, n in basket.pja_units.items():
        shared.append(n * basket.path_state.y_value(i) * math.exp(r * t0) * growth)
        units.append(n * math.exp(r * (t0 + dt)))
        offsets.append(basket.moments[i] * dt)
    counts = np.atleast_1d(outcome.n_jumps)
    scenario = np.repeat(np.arange(len(counts)), counts)
    columns = [outcome.delta_s, *(np.bincount(scenario, outcome.jump_sizes**i, len(counts))
                                  for i in basket.pja_units)]
    legs = np.array(units) * (np.column_stack(columns) - np.array(offsets))
    pji_units = basket.pji_unit_array * math.exp(r * dt)
    if len(pji_units):
        s_vals = [iterated_integrals(basket.order, t, x, basket.moments, t0, t0 + dt)
                  for t, x in outcome.paths()]
        legs = np.concatenate([legs, pji_units * np.reshape(s_vals, (-1, len(pji_units)))], axis=1)
    return outcome.per_scenario([math.fsum(row + shared) for row in legs.tolist()])


@pytest.fixture(scope="session")
def table_n4():
    return build_lookup_table(4)


@pytest.fixture(scope="session")
def table_n6():
    return build_lookup_table(6)


@pytest.fixture(scope="session")
def table_n8():
    return build_lookup_table(8)
