"""Replication baskets built from power-jump and power-jump-integral assets.

The i-th power jump asset T^(i) = e^{rt} Y^(i) marks the compensated
power-jump process to a bank-account numeraire.  Under the one-jump
regimes stated with each constructor, a static position in these assets
plus stock and cash changes value by exactly C_i (Delta S)^i (the cash
accrues by ``taylor.bank_growth``: r != 0, negative rates are fine):

* ``pja_basket_general``  -- sigma = 0, at most one jump, any i >= 2,
  through the closed-form sums of the binomial coefficients c_k^(i,j);
  with drift_b = 0 it is the negligible-dt basket.  ``pja_basket_simple``
  (drift_b = 0) and ``pja_basket_order2`` (i = 2) are its special cases,
  kept only as names.
* ``pji_basket``          -- infinite-activity case: positions in the
  power-jump-integral assets U_theta = e^{r dt} S'_theta indexed by the
  tuples of I_i, valid for negligible dt with any number of jumps.
* ``phi_hedge_basket``    -- the single-integral reduction traded through
  T^(j) assets with left-endpoint predictable weights; an O(dt)
  approximation by construction.

These are imaginary book entries: they are marked to the recorded jump
list of a simulated path, or of a whole ``ScenarioOutcome`` set at once,
never to market quotes.  Regime violations are
measured by ``replication_report``, not silently ignored.

A ``pji_basket`` of order i is marked through the iterated integrals
S'_theta of the tuples of I_i, which form a prefix tree: S'_theta
integrates S'_parent, its prefix, against the compensated power-jump
process Y^(l) of its last entry l.  Between jumps the whole tree moves by
a nilpotent linear drift step, solved exactly by a finite power series of
gathers through the parent index, taken at step n over the nodes of depth
>= n only, and up to the first jump, where the root alone is nonzero, over
those of depth n; at each jump time (runs of the stably sorted times)
every node gains the jump powers times its parent's left limit.  One
kernel (``_stepped``) steps every tree.

Everything a basket of order i reads about I_i is one table per order,
built on first use (``_order_table``): the tuples, each one's multinomial
i!/(theta! n!) and rest n, and the prefix tree with the node offset where
each depth starts.  A ``pji_basket``'s units are one array expression over
it, held as one read-only array in tuple order (``pji_units`` gives them
by tuple, built when first read).  I_i lies inside I_K for i <= K, and a
node's value depends only on the chain of its own prefixes, so one
stepping of the tree of I_K gives every lower order's S'_theta to the bit.
A ``ScenarioOutcome`` keeps one such pass per scenario, with
K = min(moments.order, ``chaos.MAX_ORDER``), for each moment vector and
period, and every pji mark on it reads that pass.  ``iterated_integrals``
steps one path through the tree of I_k, and ``iterated_integral`` through
the chain of one tuple's prefixes, with no order cap.

A mark assembles only the legs its basket holds: the stock and T-legs
from one table of the outcome's moves and power sums, the U-legs from its
S'_theta.  It adds each scenario's legs exactly, to the float
``math.fsum`` gives.  A leg array of 512 entries or more (scenarios x
legs), at 8 legs or more per scenario, is first reduced to a few floats
per scenario with the same real sum, by error-free extraction in a few
vectorised passes with one sigma each for the whole array (Rump, Ogita &
Oishi 2008, *Accurate floating-point summation part I*, SIAM J. Sci.
Comput. 31(1)).
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .chaos import MAX_ORDER, constant_terms, enumerate_compositions, phi_from_constants
from .errors import UnsupportedOrderError
from .models import MomentVector
from .taylor import bank_growth

__all__ = [
    "PathState",
    "ScenarioOutcome",
    "JumpBasket",
    "pja_basket_simple",
    "pja_basket_order2",
    "pja_basket_general",
    "pji_basket",
    "phi_hedge_basket",
    "iterated_integral",
    "iterated_integrals",
    "replication_report",
]


@dataclass(frozen=True)
class PathState:
    """Power-jump bookkeeping at the hedge date: current Y_t^(i) values."""

    t: float
    y: dict[int, float] = field(default_factory=dict)

    def y_value(self, i: int) -> float:
        return self.y.get(i, 0.0)

    def t_asset(self, i: int, r: float) -> float:
        return math.exp(r * self.t) * self.y_value(i)


@dataclass(frozen=True)
class ScenarioOutcome:
    """Realized moves over the hedging period [t, t + dt]: one scenario, or
    a set of them marked at once.

    One scenario has a float ``delta_s`` and lists its jumps in
    ``jump_times``/``jump_sizes``, held as 1-D float arrays of one length
    (else ``ValueError``).  A set has a 1-D array of moves, and
    ``n_jumps`` gives each scenario's jump count, a non-negative integer;
    its jumps are listed flat, scenario by scenario (else ``ValueError``).
    Jumps are relative jumps dS/S_-; the power-jump assets are marked from
    them.  Every mark treats one scenario as a set of one and returns a float
    for it, an array with one value per scenario for a set.  Baskets assuming
    sigma = 0 regimes are evaluated on jump-only outcomes.

    An outcome keeps what its marks read: its moves and power sums as one
    table (``_sum_rows``), and one stepping of each scenario's path per
    moment vector and period (``iterated_integrals``).  Its jumps must not
    change after a mark.
    """

    delta_s: float | np.ndarray
    jump_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    jump_sizes: np.ndarray = field(default_factory=lambda: np.empty(0))
    n_jumps: int | np.ndarray | None = None
    _sums: np.ndarray | tuple = field(default=(), init=False, repr=False, compare=False)
    _summed: set = field(default_factory=set, init=False, repr=False, compare=False)
    _integrals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        times, sizes = (np.asarray(x, dtype=float) for x in (self.jump_times, self.jump_sizes))
        if times.ndim != 1 or times.shape != sizes.shape:
            raise ValueError(f"{times.size} jump times for {sizes.size} sizes: both must be "
                             f"1-D, of one length")
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "jump_sizes", sizes)
        move = self.delta_s   # a number or a 0-d array is one scenario, a list a set
        if isinstance(move, (int, float)) or getattr(move, "ndim", 1) == 0:
            if self.n_jumps not in (None, len(self.jump_sizes)):
                raise ValueError(f"one scenario lists {len(self.jump_sizes)} jumps, "
                                 f"not n_jumps = {self.n_jumps}")
            object.__setattr__(self, "n_jumps", len(self.jump_sizes))
            return
        moves = np.asarray(move, dtype=float)
        counts = np.asarray([] if self.n_jumps is None else self.n_jumps)
        if (moves.ndim != 1 or counts.shape != moves.shape
                or (counts.size and counts.dtype.kind not in "iu") or np.any(counts < 0)
                or counts.sum() != len(self.jump_sizes)):
            raise ValueError("a scenario set needs a 1-D array of moves and one jump count per "
                             "move, a non-negative integer, adding up to the jumps listed")
        object.__setattr__(self, "delta_s", moves)
        object.__setattr__(self, "n_jumps", counts.astype(np.int64, copy=False))

    def per_scenario(self, values):
        """``values``, one per scenario, as a mark returns them: a float for
        one scenario, an array for a set."""
        return np.asarray(values) if isinstance(self.n_jumps, np.ndarray) else float(values[0])

    @functools.cached_property
    def _bounds(self) -> list:
        """The end of each scenario's run of jumps in the flat lists."""
        counts = self.n_jumps
        return np.cumsum(counts).tolist() if isinstance(counts, np.ndarray) else [counts]

    @functools.cached_property
    def _scenario(self) -> np.ndarray:
        """The scenario of each jump in the flat lists."""
        return np.repeat(np.arange(len(self._bounds)), self.n_jumps)

    def power_sums(self, i: int) -> np.ndarray:
        """sum x^i over each scenario's jumps for i >= 1, one per scenario:
        row i of ``_sum_rows``."""
        if i < 1:
            raise ValueError(f"power sums are kept for orders i >= 1, not {i}")
        return self._sum_rows((i,), i)[i]

    def _sum_rows(self, orders, top: int) -> np.ndarray:
        """A table of rows 0..top or more, one column per scenario: the
        moves in row 0 and, in row i for each order i in ``orders``, each
        scenario's sum of x^i over its jumps.  A row is summed when first
        read and kept, so every basket marked on this outcome reads the
        same sums; rows never read hold zeros.  The sums run in list order
        (``bincount``), as ``np.sum`` adds fewer than 8 terms."""
        n = len(self._bounds)
        if len(self._sums) <= top:
            table = np.zeros((top + 1, n))
            table[0] = self.delta_s
            for i in self._summed:
                table[i] = self._sums[i]
            object.__setattr__(self, "_sums", table)
        for i in orders:
            if i not in self._summed:
                self._sums[i] = np.bincount(self._scenario, self.jump_sizes**i, n)
                self._summed.add(i)
        return self._sums

    def iterated_integrals(self, k: int, moments: MomentVector, t0: float, t1: float) -> np.ndarray:
        """S'_theta over (t0, t1] for every theta of I_k, one row per scenario
        in table order, with the bits of ``iterated_integrals(k, ...)``.  Each
        scenario's path is stepped once through the tree of I_K, K =
        min(moments.order, ``MAX_ORDER``), kept per (moments, t0, t1) and read
        by every order up to K, so a lone order-2 read at K = 12 steps 4095
        tuples, not 3.  A jump outside (t0, t1] raises on every read."""
        top = max(k, min(moments.order, MAX_ORDER))   # k > K raises in the stepping
        key = (moments, t0, t1)
        values = self._integrals.get(key)
        if values is None:
            tree, steps = _order_steps(top, moments)
            rows = [_stepped(tree, steps, times, sizes, t0, t1) for times, sizes in self.paths()]
            values = self._integrals[key] = np.array(rows).reshape(-1, len(tree.parent))
        return values[:, _tree_nodes(k, top)]

    def paths(self) -> list:
        """Each scenario's (jump_times, jump_sizes)."""
        starts = [0, *self._bounds[:-1]]
        return [(self.jump_times[a:b], self.jump_sizes[a:b])
                for a, b in zip(starts, self._bounds)]


@dataclass(frozen=True)
class JumpBasket:
    """Positions replicating one Taylor term out of jump assets.

    ``pja_units[i]`` are units of T^(i); ``pji_unit_array`` holds the units
    of U_theta, one per tuple theta of I_i in ``enumerate_compositions(i)``
    order (empty when the basket holds none), read-only.  ``pji_units`` is
    the same units as a read-only mapping by tuple.  Plus stock and bank
    cash.
    """

    coefficient: float
    order: int
    s_t: float
    r: float
    delta_t: float
    path_state: PathState
    moments: MomentVector
    pja_units: dict[int, float] = field(default_factory=dict)
    pji_unit_array: np.ndarray = field(default_factory=lambda: np.empty(0), compare=False)
    stock_units: float = 0.0
    bank_cash: float = 0.0

    def __post_init__(self):
        units = np.array(self.pji_unit_array, dtype=float)
        if units.shape not in ((0,), (2**self.order - 1,)):
            raise ValueError(f"pji units must be held on the {2**self.order - 1} tuples of "
                             f"I_{self.order}, got an array of shape {units.shape}")
        units.flags.writeable = False
        object.__setattr__(self, "pji_unit_array", units)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (all(getattr(self, f.name) == getattr(other, f.name)
                    for f in fields(self) if f.compare)
                and np.array_equal(self.pji_unit_array, other.pji_unit_array))

    @functools.cached_property
    def pji_units(self) -> Mapping[tuple, float]:
        """Units of U_theta by tuple theta of I_i, in table order."""
        if not len(self.pji_unit_array):
            return MappingProxyType({})
        thetas = _order_table(self.order).thetas
        return MappingProxyType(dict(zip(thetas, self.pji_unit_array.tolist())))

    def change_of_value(self, outcome: ScenarioOutcome):
        """Mark the basket against ``outcome``: a float for one scenario, one
        mark per scenario for a set.

        Only the legs the basket holds are assembled.  The stock leg and one
        dy leg per T^(i) asset are one array over the outcome's moves and
        power sums (``ScenarioOutcome._sum_rows``), with the T-legs
        regrouped: e^{rt1}(y+dy) - e^{rt0}y is evaluated as y e^{rt0}(e^{r
        dt}-1) + e^{rt1} dy so no term dwarfs the total.  A basket holding
        U_theta units alone has no stock leg.  The power-jump-integral legs
        read S'_theta from ``outcome.iterated_integrals``: a first pji mark
        steps the tree of I_K, K = min(moments.order, ``MAX_ORDER``),
        whatever its order, and the other orders' marks step nothing.  Each
        scenario's legs are added exactly, to the float ``math.fsum`` gives
        (by error-free extraction first when the legs are many, see the
        module docstring and ``_extracted_row_sums``).
        """
        shared, rows, units, offsets, pji_units = self._mark_terms
        legs = []
        if rows is not None:
            moved = outcome._sum_rows(self.pja_units, self.moments.order)[rows]
            legs.append((units * (moved - offsets)).T)
        if len(pji_units):
            t0 = self.path_state.t
            s_vals = outcome.iterated_integrals(self.order, self.moments, t0, t0 + self.delta_t)
            legs.append(pji_units * s_vals)
        legs = legs[0] if len(legs) == 1 else np.concatenate(legs, axis=1)
        return outcome.per_scenario(_row_sums(legs, shared))

    @functools.cached_property
    def _mark_terms(self) -> tuple:
        """What every mark shares: the bank leg and the T-legs' frozen
        values (floats); the rows of the stock and T-legs in
        ``ScenarioOutcome._sum_rows`` (the moves, then each T^(i)'s power
        sums; None for a basket holding U_theta units alone), the units of
        the stock and e^{rt1} times those of each T^(i), and the offsets 0
        and m_i dt taken off the move and the power sums, as columns; and
        e^{r dt} times the units of each U_theta."""
        t0, dt, r = self.path_state.t, self.delta_t, self.r
        growth = bank_growth(r, dt)
        shared = [self.bank_cash * growth]
        units, offsets = [self.stock_units], [0.0]
        for i, n in self.pja_units.items():
            shared.append(n * self.path_state.y_value(i) * math.exp(r * t0) * growth)
            units.append(n * math.exp(r * (t0 + dt)))
            offsets.append(self.moments[i] * dt)
        pji_units = self.pji_unit_array * math.exp(r * dt)
        held = self.pja_units or self.stock_units or not len(pji_units)
        rows = np.array([0, *self.pja_units], dtype=np.intp) if held else None
        return shared, rows, np.array(units)[:, None], np.array(offsets)[:, None], pji_units


# Leg arrays of at least this many entries (rows x legs), in rows of at
# least this many legs, are summed after an error-free extraction.  Below
# either, ``tolist`` and ``math.fsum`` are faster.  An extraction costs about
# 13 us a call and fsum about 0.035 us a leg: a lone row of 256 legs takes
# 9 us by fsum and 15 by extraction, one of 512 17 by either, one of 4096
# 162 and 36.  Short rows gain little, as each row's pass sums still go to
# fsum: 200 rows of 4 legs take 64 us by fsum and 79 by extraction, of 8
# 97 and 90, and 64 rows of 8 take 28 and 38.
_EXTRACTION_MIN_LEGS = 512
_EXTRACTION_MIN_ROW = 8
# Extraction passes at most; what is left after them goes to ``math.fsum``.
_EXTRACTION_PASSES = 6


def _row_sums(legs: np.ndarray, shared: list) -> list:
    """``math.fsum`` of each row of ``legs`` followed by ``shared``, as a
    list of floats; a large array of long rows goes through
    ``_extracted_row_sums``."""
    if legs.size < _EXTRACTION_MIN_LEGS or legs.shape[1] < _EXTRACTION_MIN_ROW:
        return [math.fsum(row + shared) for row in legs.tolist()]
    return _extracted_row_sums(legs, shared)


def _extracted_row_sums(legs: np.ndarray, shared: list) -> list:
    """``math.fsum`` of each row of ``legs`` followed by ``shared``, bit for
    bit, with each row first reduced to a few floats of the same real sum
    by error-free extraction (Rump, Ogita & Oishi 2008; see the module).

    With n legs per row and 2^e bounding the array's largest |leg|, sigma =
    2^(ceil(log2(n + 2)) + e) splits each leg x into q = (sigma + x) - sigma,
    a multiple of ulp(sigma)/2, and the remainder x - q, both exactly; a
    row's q then add up exactly in any order.  Each remainder is at most
    2^-53 sigma, so the next pass repeats this on the remainders with sigma
    scaled by 2^(ceil(log2(n + 2)) - 53), one sigma per pass for the whole
    array.  ``fsum`` of a row's pass sums, any remainder still nonzero after
    the last pass and ``shared`` is the same correctly rounded float.  A row
    with a non-finite leg, or one so large that sigma would overflow, is
    summed from its legs, so infinities and NaN come out as ``fsum`` gives
    them; ``fsum`` gives +0.0 for every sum that is exactly zero.
    """
    left = np.array(legs, dtype=float)
    spread = math.ceil(math.log2(left.shape[1] + 2))
    limit = 2.0 ** (1023 - spread)
    high = np.abs(left)
    top = np.maximum.reduce(high, None)
    direct = []
    if not top < limit:   # rows whose sigma would not be finite keep all their legs for fsum
        wide = ~(np.maximum.reduce(high, 1) < limit)
        direct = np.flatnonzero(wide).tolist()
        left[wide] = 0.0
        top = np.maximum.reduce(np.abs(left, high), None)
    parts = np.empty((_EXTRACTION_PASSES, len(left)))
    sigma = math.ldexp(1.0, math.frexp(top)[1] + spread)
    shrink = math.ldexp(1.0, spread - 53)
    passes, rest = 0, top != 0
    while rest and passes < _EXTRACTION_PASSES:
        np.add(left, sigma, high)
        np.subtract(high, sigma, high)
        np.subtract(left, high, left)
        np.add.reduce(high, 1, out=parts[passes])
        passes += 1
        rest = np.count_nonzero(left)
        sigma *= shrink
    pass_sums = parts[:passes].T.tolist()
    sums = [math.fsum(row + shared) for row in pass_sums]
    if rest:
        for k in np.flatnonzero(left.any(1)).tolist():
            row = left[k]
            sums[k] = math.fsum(pass_sums[k] + row[row != 0].tolist() + shared)
    for k in direct:
        sums[k] = math.fsum(legs[k].tolist() + shared)
    return sums


def replication_report(basket: JumpBasket, outcome: ScenarioOutcome) -> dict:
    """Realized replication error of the basket against C_i (Delta S)^i,
    with regime violations (more than one jump in the period for the
    one-jump baskets) flagged so the harness can count rather than hide them.
    """
    target = basket.coefficient * outcome.delta_s**basket.order
    achieved = basket.change_of_value(outcome)
    one_jump_basket = not len(basket.pji_unit_array)
    return {
        "target": target,
        "achieved": achieved,
        "error": achieved - target,
        "regime_violated": (outcome.n_jumps > 1) & one_jump_basket,
    }


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def pja_basket_general(
    coefficient: float,
    scenario,
    i: int,
    path_state: PathState,
    moments: MomentVector,
    drift_b: float = 0.0,
) -> JumpBasket:
    """Power-jump basket for any order i >= 2, exact when sigma = 0 and at
    most one jump x lands in the period: Delta S = S_t (e^{b dt}(1 + x) - 1).

    Holds sum_j c_k^(i,j) e^{-r(t+dt)} units of T^(k) for k = 2..i, the
    Delta-S-linear coefficients as stock, and cash covering the constant
    legs plus the frozen T^(k) values and compensator drifts.  Cash at the
    hedge date cannot depend on the coming move, so the Delta-S-linear
    piece is carried as its equivalent stock position rather than as a
    deposit.  With drift_b = 0 (dt negligible) only the S_t^i e^{-r(t+dt)}
    units of T^(i) and the cash remain.
    """
    if i < 2:
        raise UnsupportedOrderError(f"PJA basket needs order >= 2, got {i}")
    s_t, r, dt = scenario.s_t, scenario.r, scenario.delta_t
    t = path_state.t
    disc_mat = math.exp(-r * (t + dt))
    scale = coefficient * s_t**i
    # the j-sums of the coefficient tables telescope through the binomial
    # identities sum_j C(i,j)C(j,k)(-1)^{i-j} x^j = C(i,k) x^k (x-1)^{i-k};
    # evaluating the closed forms avoids the huge alternating cancellations
    ebd = math.exp(drift_b * dt)
    em1 = math.expm1(drift_b * dt)
    weights = {k: math.comb(i, k) * ebd**k * em1 ** (i - k) for k in range(2, i + 1)}
    weights = {k: w for k, w in weights.items() if w}  # drift_b = 0 keeps only k = i
    cash_terms = [(1 - i) * em1**i]
    for k, w in weights.items():
        t_now = path_state.t_asset(k, r)
        cash_terms.append(w * (disc_mat * t_now - math.exp(-r * t) * t_now + moments[k] * dt))
    return JumpBasket(
        coefficient=coefficient,
        order=i,
        s_t=s_t,
        r=r,
        delta_t=dt,
        path_state=path_state,
        moments=moments,
        pja_units={k: scale * w * disc_mat for k, w in weights.items()},
        stock_units=coefficient * i * s_t ** (i - 1) * em1 ** (i - 1),
        bank_cash=scale * math.fsum(cash_terms) / bank_growth(r, dt),
    )


def pja_basket_simple(
    coefficient: float, scenario, i: int, path_state: PathState, moments: MomentVector
) -> JumpBasket:
    """``pja_basket_general`` at drift_b = 0 (dt negligible, at most one
    jump).  Kept as a name because the benchmark tracer
    (``levybench/tracer.py``) wraps it."""
    return pja_basket_general(coefficient, scenario, i, path_state, moments)


def pja_basket_order2(
    coefficient: float,
    scenario,
    path_state: PathState,
    moments: MomentVector,
    drift_b: float,
) -> JumpBasket:
    """``pja_basket_general`` at i = 2 (dt material, sigma = 0, one jump).
    Kept as a name because the benchmark tracer (``levybench/tracer.py``)
    wraps it."""
    return pja_basket_general(coefficient, scenario, 2, path_state, moments, drift_b)


def pji_basket(
    coefficient: float,
    scenario,
    i: int,
    moments: MomentVector,
    path_state: PathState | None = None,
) -> JumpBasket:
    """General-case basket: S_t^i Pi_theta e^{-r dt} units of the
    power-jump-integral asset U_theta for every tuple theta in I_i, plus
    S_t^i C^(i) / (e^{r dt} - 1) in cash.  Valid for negligible dt with
    any jump activity.

    Pi_theta = (theta, n)! C^(n) with n = i - sum(theta) (see
    ``chaos.pi_coefficient``).  The i + 1 constants C^(0..i) come from one
    ``chaos.constant_terms`` pass, and each tuple's multinomial
    i!/(theta! n!) and rest n from the per-order table of I_i
    (``_order_table``), so the units are one array expression over the
    2^i - 1 tuples.  The tuple set caps i at ``chaos.MAX_ORDER``."""
    s_t, r, dt = scenario.s_t, scenario.r, scenario.delta_t
    state = path_state if path_state is not None else PathState(t=0.0)
    disc = math.exp(-r * dt)
    consts = constant_terms(i, moments, dt)
    table = _order_table(i)
    pi = table.multinomial * np.array(consts, dtype=float)[table.rest]
    units = (coefficient * s_t**i) * pi * disc
    cash = coefficient * s_t**i * consts[i] / bank_growth(r, dt)
    return JumpBasket(
        coefficient=coefficient,
        order=i,
        s_t=s_t,
        r=r,
        delta_t=dt,
        path_state=state,
        moments=moments,
        pji_unit_array=units,
        bank_cash=cash,
    )


def phi_hedge_basket(
    coefficient: float,
    scenario,
    n: int,
    moments: MomentVector,
    path_state: PathState,
) -> JumpBasket:
    """Single-integral reduction traded through T^(j) assets.

    phi_j e^{-r dt} units of T^(j) for j = 1..n plus cash
    sum_j -e^{-2 r dt} T_t^(j) phi_j + S^n C^(n)/(e^{r dt} - 1), with the
    phi_j frozen at their left-endpoint values.  The dropped deeper
    iterated integrals make this exact only in the dt -> 0 limit.
    """
    s_t, r, dt = scenario.s_t, scenario.r, scenario.delta_t
    consts = constant_terms(n, moments, dt)
    phis = phi_from_constants(n, consts, s_t)
    disc = math.exp(-r * dt)
    units = {j: coefficient * phis[j] * disc for j in phis}
    cash = coefficient * (
        sum(-math.exp(-2 * r * dt) * path_state.t_asset(j, r) * phis[j] for j in phis)
        + s_t**n * consts[n] / bank_growth(r, dt)
    )
    return JumpBasket(
        coefficient=coefficient,
        order=n,
        s_t=s_t,
        r=r,
        delta_t=dt,
        path_state=path_state,
        moments=moments,
        pja_units=units,
        bank_cash=cash,
    )


# ---------------------------------------------------------------------------
# Iterated stochastic integrals on sigma = 0 jump paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _PrefixTree:
    """A tuple set closed under prefixes, one node per tuple, in order of
    depth.

    Node 0 is the empty tuple; every other node's ``parent`` is its prefix
    and ``level`` its last entry (0 for the root).  ``index[k]`` is the node
    of the k-th requested tuple.  The nodes of depth d start at
    ``starts[d]``; ``starts[-1]`` is the node count.  ``gathers[n - 1]``
    holds the parents of the nodes of depth >= n, counted from
    ``starts[n - 1]``, and ``top`` is the largest level.
    """

    parent: np.ndarray
    level: np.ndarray
    index: np.ndarray
    starts: tuple
    gathers: tuple
    top: int


def _build_prefix_tree(thetas: tuple) -> _PrefixTree:
    nodes = sorted({th[:d] for th in thetas for d in range(1, len(th) + 1)}, key=len)
    node_of = {(): 0}
    parent, level = [0], [0]
    for theta in nodes:
        node_of[theta] = len(parent)
        parent.append(node_of[theta[:-1]])
        level.append(theta[-1])
    depths = [0, *map(len, nodes)]
    starts = tuple(bisect.bisect_left(depths, d) for d in range(depths[-1] + 2))
    parent = np.array(parent, dtype=np.intp)
    return _PrefixTree(
        parent=parent,
        level=np.array(level, dtype=np.intp),
        index=np.array([node_of[th] for th in thetas], dtype=np.intp),
        starts=starts,
        gathers=tuple(parent[starts[n]:] - starts[n - 1] for n in range(1, len(starts) - 1)),
        top=max(level),
    )


class _OrderTable(NamedTuple):
    """What every pji basket of order i reads about I_i: the tuples
    (``enumerate_compositions(i)`` itself), the multinomial i!/(theta! n!)
    of each as a float, its rest n = i - sum(theta), and the prefix tree."""

    thetas: tuple
    multinomial: np.ndarray
    rest: np.ndarray
    tree: _PrefixTree


@functools.lru_cache(maxsize=None)
def _order_table(i: int) -> _OrderTable:
    thetas = enumerate_compositions(i)
    fact = [math.factorial(k) for k in range(i + 1)]
    rest = [i - sum(theta) for theta in thetas]
    multinomial = []
    for theta, n in zip(thetas, rest):
        denom = fact[n]
        for part in theta:
            denom *= fact[part]
        multinomial.append(fact[i] // denom)
    return _OrderTable(
        thetas=thetas,
        multinomial=np.array(multinomial, dtype=float),
        rest=np.array(rest, dtype=np.intp),
        tree=_build_prefix_tree(thetas),
    )


@functools.lru_cache(maxsize=None)
def _tree_nodes(k: int, top: int) -> np.ndarray:
    """The node of each tuple of I_k, in table order, in the tree of I_top."""
    table = _order_table(top)
    node_of = dict(zip(table.thetas, table.tree.index.tolist()))
    return np.array([node_of[theta] for theta in _order_table(k).thetas], dtype=np.intp)


def _drift_steps(tree: _PrefixTree, moments: MomentVector) -> tuple:
    """Two tuples of (n, start, stop, gather, drift), one per drift step n =
    1..depth: in the first, nodes start..stop are those of depth >= n; in
    the second, those of depth n alone.  ``gather`` finds their parents in
    the previous step's nodes, and ``drift`` holds their -m_l (l the last
    entry)."""
    drift = -np.array([0.0] + [moments[k] for k in range(1, tree.top + 1)])[tree.level]
    starts, deep, first = tree.starts, [], []
    for n, gather in enumerate(tree.gathers, 1):
        start, stop = starts[n], starts[n + 1]
        deep.append((n, start, starts[-1], gather, drift[start:]))
        first.append((n, start, stop, gather[:stop - start], drift[start:stop]))
    return tuple(deep), tuple(first)


@functools.lru_cache(maxsize=32)
def _order_steps(k: int, moments: MomentVector) -> tuple:
    """The tree of I_k and its drift steps, kept per order and moment vector."""
    tree = _order_table(k).tree
    return tree, _drift_steps(tree, moments)


def _jump_events(jump_times, jump_sizes, top: int) -> list:
    """(tau, p) for each distinct jump time tau, in time order, where p[l]
    sums x^l over the jumps at tau for l = 1..top and p[0] = 0.  Jumps that
    share a time are runs of the stably sorted times; their rows are added
    in list order."""
    if not len(jump_times):
        return []
    powers = jump_sizes[:, None] ** np.arange(top + 1)
    powers[:, 0] = 0.0
    times = jump_times.tolist()
    events = []
    for k in sorted(range(len(times)), key=times.__getitem__):
        if events and times[k] == events[-1][0]:
            events[-1][1] = events[-1][1] + powers[k]
        else:
            events.append([times[k], powers[k]])
    return events


def _stepped(tree: _PrefixTree, drift_steps: tuple, jump_times, jump_sizes, t0, t1):
    """S' on every node of ``tree`` at t1, from 1 at the root at t0, with
    ``drift_steps`` the tree's ``_drift_steps`` (the method is given at
    ``iterated_integrals``)."""
    if not t1 >= t0:
        raise ValueError(f"the period ({t0}, {t1}] must not end before it starts")
    jump_times = np.asarray(jump_times, dtype=float)
    jump_sizes = np.asarray(jump_sizes, dtype=float)
    if not all(t0 < tau <= t1 for tau in jump_times.tolist()):
        raise ValueError("jumps must lie inside (t0, t1]")
    parent, level = tree.parent, tree.level
    value = np.zeros(len(parent))
    value[0] = 1.0
    # step n adds its term in place to the nodes of depth >= n.  Up to the
    # first jump V = e_0, so A^n V is nonzero at depth n alone, and the
    # first interval steps those nodes only: the terms it skips are +-0.0
    # on values of 0.0, so every value keeps its bits (none is ever -0.0)
    deep, first = ([(n, value[start:stop], gather, drift)
                    for n, start, stop, gather, drift in steps] for steps in drift_steps)

    def advance(width, steps):
        term = value
        for n, reached, gather, drift in steps:
            term = (width / n) * drift * term[gather]
            reached += term

    now, steps = t0, first
    for tau, power in _jump_events(jump_times, jump_sizes, tree.top):
        advance(tau - now, steps)
        value += power[level] * value[parent]
        now, steps = tau, deep
    advance(t1 - now, steps)
    return value


def iterated_integrals(k: int, jump_times, jump_sizes, moments: MomentVector,
                       t0: float, t1: float) -> np.ndarray:
    """S'_theta for every theta in I_k at once, in ``enumerate_compositions(k)``
    order, on a finite-activity jump path with no Brownian part.

    S'_theta is the iterated integral of dY^(i_1) ... dY^(i_j) over
    t0 < s_j < ... < s_1 <= t1, so S'_theta = int S'_parent(s-) dY^(l)(s)
    with parent the prefix (i_1, ..., i_{j-1}) and l = i_j.  The whole
    family V on the tree of I_k (the root, the empty tuple, is 1) is stepped
    along the path:

    * between jumps dV_theta/ds = -m_l V_parent, a nilpotent linear system,
      so a width w advances V by exp(wA) V = sum_{n <= depth} (w^n/n!) A^n V
      exactly; each A^n term is one gather of the previous term through the
      parent index, taken over the nodes of depth >= n only (A^n V is 0 on
      shallower nodes, as the root's drift is 0);
    * at a jump time V_theta gains (sum of x^l over the jumps at that time)
      times the left limit V_parent(tau-), so jumps that share a time do not
      see each other.

    Jumps must lie in (t0, t1], in any order; a jump at t1 counts.  The
    period must not run backwards; t1 = t0 gives zeros.
    """
    tree, steps = _order_steps(k, moments)
    return _stepped(tree, steps, jump_times, jump_sizes, t0, t1)[tree.index]


def iterated_integral(theta, jump_times, jump_sizes, moments: MomentVector,
                      t0: float, t1: float) -> float:
    """S'_theta for one tuple, stepped on the chain of theta's own prefixes
    as ``iterated_integrals`` steps the tree of I_k (see there for the
    method and the conventions), so theta is not capped at ``MAX_ORDER``."""
    tree = _build_prefix_tree((tuple(theta),))
    values = _stepped(tree, _drift_steps(tree, moments), jump_times, jump_sizes, t0, t1)
    return float(values[tree.index[0]])
