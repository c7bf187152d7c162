import math
import os
import pathlib
from fractions import Fraction

import pytest

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


@pytest.fixture(scope="session")
def table_n4():
    return build_lookup_table(4)


@pytest.fixture(scope="session")
def table_n6():
    return build_lookup_table(6)


@pytest.fixture(scope="session")
def table_n8():
    return build_lookup_table(8)
