"""Central-difference stencils of arbitrary order and their lookup table.

A derivative of order p is approximated from 2N+1 equally spaced samples
as f^(p) ~ (1/T^p) * sum_k d_k^(p) f_k.  Off-center coefficients are

    d_k^(p) = (-1)^(k+c1) * p! * k^(1-c2) * C(2N, N+k) * G_{N-1-c}(k) / (2N)!

where c = floor((p-1)/2), c1 = 1 iff c is even, c2 = 1 iff p is even, and
G_j(k) = e_j({y^2 : y = 1..N, y != k}) is the elementary symmetric
polynomial of degree j in the squares of the other offsets.  This is the
classic form (-1)^(k+c1) * p!/k^(1+c2) * N!^2/((N-k)!(N+k)!) * e_c({1/y^2 :
y != k}) rewritten through e_c(1/y^2) = e_{N-1-c}(y^2) / prod y^2, so every
coefficient is an integer over the one denominator (2N)!.  The center
coefficient is 0 for odd p and -2 * sum_{k>0} d_k^(p) for even p, and
d_{-k}^(p) = (-1)^p d_k^(p), so each row is known from offsets 0..N.

The G_j never enumerate combinations.  The coefficients E_j of
prod_y (1 + y^2 t) give e_j over all of 1..N, and each offset's sums
follow by deflation, G_j(k) = E_j - k^2 G_{j-1}(k); orders 2c+1 and 2c+2
read the same G_{N-1-c}.  A table of orders up to 2N-1 costs O(N^2)
integer operations and keeps only those half rows, its one exact form.
Its float rows are the half entries rounded once each and mirrored; an
exact caller's ``Fraction``s are a half row mirrored through ``_mirror``.
Fornberg (1988), "Generation of finite difference formulas on arbitrarily
spaced grids", Math. Comp. 51, gives an equivalent recursion.

A stencil is a weight matrix applied to samples, so float estimates of
orders 1..p are one product of the table's first p float rows with the
samples (``apply_stencils``, the one float kernel); ``apply_stencil`` reads
its order p from that product, and keeps the exact ``Fraction`` arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GridError, InsufficientNodesError, LadderOrderError

__all__ = [
    "StencilTable",
    "stencil_coefficient",
    "build_lookup_table",
    "apply_stencil",
    "apply_stencils",
]


def _scaled_rows(n: int, p_max: int) -> list[tuple[int, ...]]:
    """(2N)! * d_k^(p) at offsets k = 0..n for p = 1..p_max <= 2n.  Orders 2c+1 and
    2c+2 share col[k-1] = (-1)^(k+c1) C(2N, N+k) G_j(k) at j = N-1-c; its sign is
    (-1)^(k+N+j), which ``signed`` and ``alt`` carry, so the deflation adds."""
    alt = [1] + [0] * n  # (-1)^j E_j, the coefficients of prod_y (1 - y^2 t)
    for y in range(1, n + 1):
        for j in range(y, 0, -1):
            alt[j] -= y * y * alt[j - 1]
    offsets = range(1, n + 1)
    signed = [(-1 if (k + n) % 2 else 1) * math.comb(2 * n, n + k) for k in offsets]
    halves, col = [None] * p_max, signed
    for j in range(n):
        if j:  # G_j(k) = E_j - k^2 G_{j-1}(k), times (-1)^(k+N+j)
            col = [b * alt[j] + k * k * x for k, b, x in zip(offsets, signed, col)]
        c = n - 1 - j
        if 2 * c + 1 > p_max:
            continue
        fact = math.factorial(2 * c + 1)
        scaled = [fact * x for x in col]
        halves[2 * c] = (0, *[k * x for k, x in zip(offsets, scaled)])
        if 2 * c + 2 <= p_max:
            even = [(2 * c + 2) * x for x in scaled]
            halves[2 * c + 1] = (-2 * sum(even), *even)
    return halves


def _mirror(half, p: int) -> tuple[int, ...]:
    """The row at offsets -N..N from its half at 0..N: d_{-k} = (-1)^p d_k."""
    left = half[:0:-1]
    return (*(left if p % 2 == 0 else [-x for x in left]), *half)


def stencil_coefficient(p: int, half_width: int, k: int) -> Fraction:
    """Exact d_k^(p) for a single offset.

    Requires 1 <= p <= 2N; at p = 2N the leading error order degenerates but
    the coefficients are still the classic ones (the three-point second
    derivative is the p = 2, N = 1 case).
    """
    n = half_width
    if not 1 <= p <= 2 * n:
        raise InsufficientNodesError(f"order p={p} needs 1 <= p <= 2N, got N={n}")
    if not -n <= k <= n:
        raise ValueError(f"offset k={k} outside [-{n}, {n}]")
    return Fraction(_mirror(_scaled_rows(n, p)[-1], p)[k + n], math.factorial(2 * n))


@dataclass(frozen=True)
class StencilTable:
    """d_k^(p) for p = 1..p_max, k = -N..N, held exactly as half rows over
    the one denominator (2N)!: ``halves[p - 1][k]`` is (2N)! * d_k^(p) for
    k = 0..N, and d_{-k}^(p) = (-1)^p d_k^(p).  The half rows are the one
    exact form; floats and ``Fraction``s are made from them on demand."""

    half_width: int
    p_max: int
    halves: tuple[tuple[int, ...], ...]

    @property
    def denominator(self) -> int:
        return math.factorial(2 * self.half_width)

    def _check_order(self, p: int) -> None:
        if not 1 <= p <= self.p_max:
            raise LadderOrderError(f"order p={p} outside table range 1..{self.p_max}")

    @functools.cached_property
    def entries(self) -> dict[tuple[int, int], Fraction]:
        """Every exact d_k^(p) keyed by (p, k), made on first access."""
        return {(p, k): d for p in range(1, self.p_max + 1)
                for k, d in enumerate(self.row_exact(p), start=-self.half_width)}

    @functools.cached_property
    def _float_rows(self) -> np.ndarray:
        """Every order's row as floats, shape (p_max, 2N+1), converted once
        per table and read-only.  Each entry at offsets 0..N is the correctly
        rounded quotient numerator/(2N)! (what ``float(Fraction)`` computes);
        offset -k is that float times (-1)^p, as rounding commutes with negation."""
        n, den = self.half_width, self.denominator
        half = np.fromiter((num / den for row in self.halves for num in row), dtype=float,
                           count=self.p_max * (n + 1)).reshape(self.p_max, n + 1)
        rows = np.concatenate((half[:, :0:-1], half), axis=1)
        np.negative(rows[::2, :n], out=rows[::2, :n])  # odd orders
        rows.flags.writeable = False
        return rows

    def row(self, p: int) -> np.ndarray:
        """Float coefficients for offsets -N..N (a read-only view)."""
        self._check_order(p)
        return self._float_rows[p - 1]

    def row_exact(self, p: int) -> list[Fraction]:
        self._check_order(p)
        den = self.denominator
        return [Fraction(num, den) for num in _mirror(self.halves[p - 1], p)]


def build_lookup_table(half_width: int, p_max: int | None = None) -> StencilTable:
    """Build the table for p = 1..p_max (default 2N-1) from the half rows
    of ``_scaled_rows``: O(N^2) integer operations and no ``Fraction``."""
    n = half_width
    if n < 1:
        raise ValueError("half_width must be >= 1")
    if p_max is None:
        p_max = 2 * n - 1
    if not 1 <= p_max <= 2 * n - 1:
        raise InsufficientNodesError(f"p_max={p_max} outside 1..{2 * n - 1} "
                                     f"for half_width {n}")
    return StencilTable(half_width=n, p_max=p_max, halves=tuple(_scaled_rows(n, p_max)))


def apply_stencil(samples, p: int, period: float, table: StencilTable):
    """(1/T^p) sum_k d_k^(p) f_k over samples f at t0 + k*T, k = -N..N.

    Accepts floats (returns float) or exact ``Fraction`` samples (returns
    ``Fraction``, with ``period`` coerced to an exact rational).  A numeric
    array cannot hold a ``Fraction``, so only sequences and object arrays are
    scanned for one.  Float samples go through ``apply_stencils``, the one
    float kernel: the estimate is entry p of its orders 1..p.
    """
    exact = (not isinstance(samples, np.ndarray) or samples.dtype == object) and any(
        isinstance(s, Fraction) for s in samples)
    if not exact:
        return apply_stencils(samples, p, period, table)[p - 1]
    _check_samples(samples, period, table)
    per = period if isinstance(period, Fraction) else Fraction(period)
    row = table.row_exact(p)
    return sum(d * s for d, s in zip(row, samples)) / per**p


def apply_stencils(samples, p_max: int, period: float, table: StencilTable) -> list[float]:
    """Float (1/T^p) sum_k d_k^(p) f_k for every order p = 1..p_max, from
    one product of the table's first p_max float rows with the samples.
    A sample count other than 2N+1 raises ``GridError``, and a p_max
    outside the table's 1..p_max raises ``LadderOrderError``.

    ``np.vecdot`` adds each row's products as a lone ``row @ samples``
    does, bit for bit (numpy 2.4 on x86-64; the pricing tests check it), so
    order p does not depend on p_max; a matrix-vector product does not, and
    the high orders cancel enough for that to move a q table's errors.  Each
    T^p is Python's ``float ** int``, so every estimate equals
    ``float(row @ samples) / period**p``.
    """
    _check_samples(samples, period, table)
    table._check_order(p_max)
    sums = np.vecdot(table._float_rows[:p_max], np.asarray(samples, dtype=float))
    return [s / float(period**p) for p, s in enumerate(sums.tolist(), start=1)]


def _check_samples(samples, period, table: StencilTable) -> None:
    n = table.half_width
    if len(samples) != 2 * n + 1:
        raise GridError(f"need {2 * n + 1} samples for half_width {n}, got {len(samples)}")
    if not period > 0:
        raise ValueError("sampling period must be > 0")
