"""Central-difference stencils of arbitrary order and their lookup table.

A derivative of order p is approximated from 2N+1 equally spaced samples
as f^(p) ~ (1/T^p) * sum_k d_k^(p) f_k.  Off-center coefficients come from

    d_k^(p) = (-1)^(k+c1) * p!/k^(1+c2) * C_{N,k} * e_c({1/y^2 : y = 1..N, y != |k|})

where C_{N,k} = N!^2 / ((N-k)! (N+k)!), c = floor((p-1)/2), c1 = 1 iff c
is even, c2 = 1 iff p is even, and e_c is the elementary symmetric
polynomial of degree c: the sum, over every length-c combination of the
other offsets, of 1/(product)^2.  The center coefficient is 0 for odd p
and -2 * sum_{k>0} d_k^(p) for even p.

The e_c never enumerate combinations.  One forward pass over y = 1..N
builds e_c of the whole set, e_c <- e_c + e_{c-1}/y^2, and each offset's
sums follow by deflation, e_c(not k) = e_c - e_{c-1}(not k)/k^2, so a table
of N offsets and orders up to 2N-1 costs O(N^2) exact rational operations.
Fornberg (1988), "Generation of finite difference formulas on arbitrarily
spaced grids", Math. Comp. 51, gives an equivalent recursion.  Everything
is accumulated in exact rational arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InsufficientNodesError, TableFormatError

__all__ = [
    "StencilTable",
    "stencil_coefficient",
    "build_lookup_table",
    "apply_stencil",
    "save_table",
    "load_table",
]

_FILE_VERSION = 1


def _c_params(p: int) -> tuple[int, int, int]:
    c = (p - 1) // 2
    c1 = 1 if c % 2 == 0 else 0
    c2 = 1 if p % 2 == 0 else 0
    return c, c1, c2


def _cnk(n: int, k: int) -> Fraction:
    return Fraction(math.factorial(n) ** 2, math.factorial(n - k) * math.factorial(n + k))


def _excluded_sums(n: int, c_max: int) -> list[list[Fraction]]:
    """sums[k][c] = e_c({1/y^2 : y = 1..n, y != k}) for k = 1..n, c = 0..c_max.

    Row 0 is unused.  Needs c_max <= n - 1, the size of each excluded set.
    """
    total = [Fraction(1)] + [Fraction(0)] * c_max
    for y in range(1, n + 1):
        inv = Fraction(1, y * y)
        for c in range(c_max, 0, -1):
            total[c] += total[c - 1] * inv
    sums: list[list[Fraction]] = [[]]
    for k in range(1, n + 1):
        inv = Fraction(1, k * k)
        row = [Fraction(1)]
        for c in range(1, c_max + 1):
            row.append(total[c] - row[c - 1] * inv)
        sums.append(row)
    return sums


def _stencil_row(p: int, n: int, sums: list[list[Fraction]]) -> dict[int, Fraction]:
    """d_k^(p) for k = -n..n from the excluded-offset sums."""
    c, c1, c2 = _c_params(p)
    row: dict[int, Fraction] = {}
    total = Fraction(0)
    for k in range(1, n + 1):
        d = (
            (-1) ** (k + c1)
            * Fraction(math.factorial(p), k ** (1 + c2))
            * _cnk(n, k)
            * sums[k][c]
        )
        row[k] = d
        row[-k] = -d if p % 2 == 1 else d
        total += d
    row[0] = Fraction(0) if p % 2 == 1 else -2 * total
    return row


def stencil_coefficient(p: int, half_width: int, k: int) -> Fraction:
    """Exact d_k^(p) for a single offset.

    Requires 2N >= p; at p = 2N the leading error order degenerates but the
    coefficients are still the classic ones (the three-point second
    derivative is the p = 2, N = 1 case).
    """
    n = half_width
    if 2 * n < p:
        raise InsufficientNodesError(f"order p={p} needs 2N >= p, got N={n}")
    if not -n <= k <= n:
        raise ValueError(f"offset k={k} outside [-{n}, {n}]")
    return _stencil_row(p, n, _excluded_sums(n, _c_params(p)[0]))[k]


@dataclass(frozen=True)
class StencilTable:
    """Precomputed d_k^(p) for p = 1..p_max, k = -N..N, exact rationals."""

    half_width: int
    p_max: int
    entries: dict[tuple[int, int], Fraction]

    def _check_order(self, p: int) -> None:
        if not 1 <= p <= self.p_max:
            raise InsufficientNodesError(
                f"order p={p} outside table range 1..{self.p_max}"
            )

    def coefficient(self, p: int, k: int) -> Fraction:
        self._check_order(p)
        return self.entries[(p, k)]

    @functools.cached_property
    def _float_rows(self) -> np.ndarray:
        """Every order's row as floats, shape (p_max, 2N+1), converted once
        per table and read-only."""
        n = self.half_width
        rows = np.array(
            [[float(self.entries[(p, k)]) for k in range(-n, n + 1)]
             for p in range(1, self.p_max + 1)],
            dtype=float,
        )
        rows.flags.writeable = False
        return rows

    def row(self, p: int) -> np.ndarray:
        """Float coefficients for offsets -N..N (a read-only view)."""
        self._check_order(p)
        return self._float_rows[p - 1]

    def row_exact(self, p: int) -> list[Fraction]:
        n = self.half_width
        return [self.coefficient(p, k) for k in range(-n, n + 1)]


def build_lookup_table(half_width: int, p_max: int | None = None) -> StencilTable:
    """Build the full coefficient table for p = 1..p_max.

    Every order p needs the degree-c elementary symmetric sums e_c of
    {1/y^2} with each offset k left out in turn, c = floor((p-1)/2).  They
    are built once for every c <= floor((p_max-1)/2): a forward pass gives
    e_c over all of 1..N, and deflation, e_c(not k) = e_c - e_{c-1}(not k)/k^2,
    gives each offset's row, so the cost is polynomial in N (Fornberg 1988
    reaches the same weights by an equivalent recursion).
    """
    n = half_width
    if n < 1:
        raise ValueError("half_width must be >= 1")
    if p_max is None:
        p_max = 2 * n - 1
    if not 1 <= p_max <= 2 * n - 1:
        raise InsufficientNodesError(
            f"p_max={p_max} outside 1..{2 * n - 1} for half_width {n}"
        )
    sums = _excluded_sums(n, _c_params(p_max)[0])
    entries: dict[tuple[int, int], Fraction] = {}
    for p in range(1, p_max + 1):
        for k, d in _stencil_row(p, n, sums).items():
            entries[(p, k)] = d
    return StencilTable(half_width=n, p_max=p_max, entries=entries)


def apply_stencil(samples, p: int, period: float, table: StencilTable):
    """(1/T^p) sum_k d_k^(p) f_k over samples f at t0 + k*T, k = -N..N.

    Accepts floats (returns float) or exact ``Fraction`` samples (returns
    ``Fraction``, with ``period`` coerced to an exact rational).
    """
    n = table.half_width
    if len(samples) != 2 * n + 1:
        raise ValueError(f"need {2 * n + 1} samples for half_width {n}, got {len(samples)}")
    if not period > 0:
        raise ValueError("sampling period must be > 0")
    exact = any(isinstance(s, Fraction) for s in samples)
    if exact:
        per = period if isinstance(period, Fraction) else Fraction(period)
        row = table.row_exact(p)
        return sum(d * s for d, s in zip(row, samples)) / per**p
    vals = np.asarray(samples, dtype=float)
    return float(table.row(p) @ vals) / period**p


# ---------------------------------------------------------------------------
# Persistence: plain text, exact rationals
# ---------------------------------------------------------------------------


def save_table(table: StencilTable, path) -> None:
    n = table.half_width
    with open(path, "w") as fh:
        fh.write(f"N={n} PMAX={table.p_max} V={_FILE_VERSION}\n")
        for p in range(1, table.p_max + 1):
            for k in range(-n, n + 1):
                frac = table.entries[(p, k)]
                fh.write(f"{p} {k} {frac.numerator}/{frac.denominator}\n")


def load_table(path) -> StencilTable:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise TableFormatError("empty table file", line=1)
    header = dict(
        item.split("=", 1) for item in lines[0].split() if "=" in item
    )
    if "N" not in header or "PMAX" not in header:
        raise TableFormatError("header must carry N=<n> PMAX=<p>", line=1)
    try:
        n, p_max, version = (int(header.get(key, -1)) for key in ("N", "PMAX", "V"))
    except ValueError as exc:
        raise TableFormatError(f"header fields must be integers: {exc}", line=1) from None
    if version != _FILE_VERSION:
        raise TableFormatError(
            f"unsupported table format version {header.get('V')!r}, expected {_FILE_VERSION}",
            line=1,
        )
    entries: dict[tuple[int, int], Fraction] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 3:
            raise TableFormatError(f"expected 'p k num/den', got {raw!r}", line=lineno)
        try:
            p, k = int(parts[0]), int(parts[1])
            num, den = parts[2].split("/")
            frac = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise TableFormatError(f"cannot parse row {raw!r}: {exc}", line=lineno) from None
        if not 1 <= p <= p_max:
            raise TableFormatError(f"order p={p} outside header PMAX={p_max}", line=lineno)
        if abs(k) > n:
            raise TableFormatError(f"offset k={k} outside header N={n}", line=lineno)
        if (p, k) in entries:
            raise TableFormatError(f"row p={p} k={k} appears twice", line=lineno)
        entries[(p, k)] = frac
    expected = p_max * (2 * n + 1)
    if len(entries) != expected:
        raise TableFormatError(
            f"table has {len(entries)} entries, expected {expected}", line=len(lines)
        )
    return StencilTable(half_width=n, p_max=p_max, entries=entries)
