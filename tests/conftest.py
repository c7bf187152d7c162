import math
import os
import pathlib
from fractions import Fraction

import pytest

from levyhedge.models import norm_cdf, norm_pdf
from levyhedge.stencil import build_lookup_table


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


@pytest.fixture(scope="session")
def table_n4():
    return build_lookup_table(4)


@pytest.fixture(scope="session")
def table_n6():
    return build_lookup_table(6)


@pytest.fixture(scope="session")
def table_n8():
    return build_lookup_table(8)
