"""Combinatorics of powers of Levy increments.

The k-th power of an increment X_{t+dt} - X_t splits into iterated
stochastic integrals against the compensated power-jump processes Y^(j)
plus a deterministic constant.  This module enumerates the index sets,
evaluates the constants C^(0..k) (the increment's raw moments, from one
O(k^2) pass of the moment-from-cumulant recursion), the coefficient Pi
attached to each iterated integral, and the first-order predictable
integrands used by the minimal-variance portfolios.  Only the tuple set
I_k is exponential (2^k - 1 tuples), so only ``enumerate_compositions``
is capped at ``MAX_ORDER``.

All arithmetic is generic: feeding ``Fraction`` moments and times yields
exact rational values, floats yield floats.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import UnsupportedOrderError

__all__ = [
    "enumerate_compositions",
    "constant_terms",
    "constant_term",
    "pi_coefficient",
    "phi_from_constants",
]

MAX_ORDER = 12


@lru_cache(maxsize=None)
def enumerate_compositions(k: int) -> tuple[tuple[int, ...], ...]:
    """Ordered tuples of positive integers with component sum <= k (the set
    I_k).  There are 2^k - 1 of them, so k is capped at ``MAX_ORDER``."""
    if not 1 <= k <= MAX_ORDER:
        raise UnsupportedOrderError(f"order {k} outside supported range 1..{MAX_ORDER}")
    out = []

    def gen(prefix, total):
        if prefix:
            out.append(tuple(prefix))
        for nxt in range(1, k - total + 1):
            prefix.append(nxt)
            gen(prefix, total + nxt)
            prefix.pop()

    gen([], 0)
    return tuple(out)


def constant_terms(k: int, moments, t) -> list:
    """[C^(0) = 1, C^(1), ..., C^(k)], the raw moments of an increment over
    a period of length t, from its cumulants kappa_q = m'_q t by
    mu_n = sum_{j<n} binom(n-1, j) kappa_{j+1} mu_{n-1-j} (Smith 1995,
    "A recursive formulation of the old problem of obtaining moments from
    cumulants and vice versa", The American Statistician 49(2)).

    ``moments`` must expose ``prime(i)`` for i = 1..k (see
    ``MomentVector``); exact inputs give exact output.
    """
    if k < 0:
        raise UnsupportedOrderError(f"order {k} is negative")
    kappa = [moments.prime(q) * t for q in range(1, k + 1)]
    mu = [1]
    for n in range(1, k + 1):
        mu.append(sum(math.comb(n - 1, j) * kappa[j] * mu[n - 1 - j] for j in range(n)))
    return mu


def constant_term(k: int, moments, t):
    """Deterministic part C^(k) of (X_{t+dt} - X_t)^k, the k-th raw moment
    of the increment: the last entry of ``constant_terms``.

    Equivalently, C^(k) sums over the partitions of k: each partition
    (i_1 >= ... >= i_l) with multiplicities p_r contributes
    (1/l!) (i_1..i_l)! (p_1..p_k)! prod m'_{i_q} t^l, which collapses to
    k! / (prod i_q! prod p_r!) prod m'_{i_q} t^l.
    """
    return constant_terms(k, moments, t)[k]


def pi_coefficient(index_tuple, k: int, moments, t):
    """Coefficient Pi of the iterated integral indexed by ``index_tuple``
    inside (X_{t+dt} - X_t)^k: (i_1, ..., i_j, n)! C^(n) with
    n = k - sum(i_p) and C^(0) = 1, where the multinomial
    (i_1, ..., i_j, n)! = k! / (i_1! ... i_j! n!)."""
    s = sum(index_tuple)
    if s > k:
        raise UnsupportedOrderError(f"tuple {index_tuple} sums to {s} > order {k}")
    multinomial = math.factorial(k)
    for i in (*index_tuple, k - s):
        multinomial //= math.factorial(i)
    return multinomial * constant_term(k - s, moments, t)


def phi_from_constants(n: int, consts, s_t=1.0) -> dict:
    """Left-endpoint predictable integrands phi_j of the single-integral
    reduction of (Delta S)^n = sum_j int phi_j dY^(j) + S^n C^(n), from the
    constants C^(0..n) (``constant_terms`` of order n or more over the
    period dt).

    At the left endpoint every iterated integral of depth >= 2 starts from
    zero, so only the single-integral tuples (j) survive:
    phi_j = S_t^n Pi_{(j)}^{(n)} = S_t^n binom(n, j) C^(n-j).  Valid as the
    leading approximation for negligible dt; deeper tuples feed back
    path-dependent corrections that a one-shot ledger cannot carry.
    """
    return {j: s_t**n * (math.comb(n, j) * consts[n - j]) for j in range(1, n + 1)}
