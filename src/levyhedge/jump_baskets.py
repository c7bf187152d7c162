"""Replication baskets built from power-jump and power-jump-integral assets.

The i-th power jump asset T^(i) = e^{rt} Y^(i) marks the compensated
power-jump process to a bank-account numeraire.  Under the one-jump
regimes stated with each constructor, a static position in these assets
plus stock and cash changes value by exactly C_i (Delta S)^i:

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
list of a simulated path, never to market quotes.  Regime violations are
measured by ``replication_report``, not silently ignored.

A ``pji_basket`` is marked through the iterated integrals S'_theta of all
its tuples in one pass (``iterated_integrals``).  The tuples form a prefix
tree: S'_theta integrates S'_parent, its prefix, against the compensated
power-jump process Y^(l) of its last entry l.  Between jumps the whole tree
moves by a nilpotent linear drift step, solved exactly by a finite power
series of gathers through the parent index; at each jump time every node
gains the jump powers times its parent's left limit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .chaos import MAX_ORDER, constant_term, enumerate_compositions, multinomial, phi_extract
from .errors import UnsupportedOrderError
from .models import MomentVector

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
    """Realized move over the hedging period [t, t + dt].

    ``jump_times``/``jump_sizes`` list the jumps that landed inside the
    period; the power-jump assets are marked from them.  Baskets assuming
    sigma = 0 regimes are evaluated on jump-only outcomes.
    """

    delta_s: float
    jump_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    jump_sizes: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def n_jumps(self) -> int:
        return len(self.jump_sizes)

    def delta_y(self, i: int, moments: MomentVector, delta_t: float) -> float:
        """Realized increment of Y^(i) over the period (jump part only)."""
        return float(np.sum(self.jump_sizes**i)) - moments[i] * delta_t


@dataclass(frozen=True)
class JumpBasket:
    """Positions replicating one Taylor term out of jump assets.

    ``pja_units[i]`` are units of T^(i), ``pji_units[theta]`` units of
    U_theta, plus stock and bank cash.
    """

    coefficient: float
    order: int
    s_t: float
    r: float
    delta_t: float
    path_state: PathState
    moments: MomentVector
    pja_units: dict[int, float] = field(default_factory=dict)
    pji_units: dict[tuple, float] = field(default_factory=dict)
    stock_units: float = 0.0
    bank_cash: float = 0.0

    def initial_cost(self) -> float:
        t_leg = sum(
            units * self.path_state.t_asset(i, self.r) for i, units in self.pja_units.items()
        )
        # power-jump integrals start at zero value at the hedge date
        return t_leg + self.stock_units * self.s_t + self.bank_cash

    def change_of_value(self, outcome: ScenarioOutcome) -> float:
        t0 = self.path_state.t
        t1 = t0 + self.delta_t
        growth = math.exp(self.r * self.delta_t) - 1.0
        # fsum plus regrouped T-legs: e^{rt1}(y+dy) - e^{rt0}y is evaluated
        # as y e^{rt0}(e^{r dt}-1) + e^{rt1} dy so no term dwarfs the total
        terms = [self.bank_cash * growth, self.stock_units * outcome.delta_s]
        for i, units in self.pja_units.items():
            y_t = self.path_state.y_value(i)
            dy = outcome.delta_y(i, self.moments, self.delta_t)
            terms.append(units * y_t * math.exp(self.r * t0) * growth)
            terms.append(units * math.exp(self.r * t1) * dy)
        if self.pji_units:
            growth_full = math.exp(self.r * self.delta_t)
            s_vals = iterated_integrals(
                tuple(self.pji_units), outcome.jump_times, outcome.jump_sizes,
                self.moments, t0, t1,
            )
            units = np.fromiter(self.pji_units.values(), float, len(self.pji_units))
            terms += (units * growth_full * s_vals).tolist()
        return math.fsum(terms)


def replication_report(basket: JumpBasket, outcome: ScenarioOutcome) -> dict:
    """Realized replication error of the basket against C_i (Delta S)^i.

    Regime violations (more than one jump in the period for the one-jump
    baskets) are flagged here so the harness can quantify rather than hide
    them.
    """
    target = basket.coefficient * outcome.delta_s**basket.order
    achieved = basket.change_of_value(outcome)
    one_jump_basket = not basket.pji_units
    return {
        "target": target,
        "achieved": achieved,
        "error": achieved - target,
        "regime_violated": one_jump_basket and outcome.n_jumps > 1,
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
        bank_cash=scale * math.fsum(cash_terms) / (math.exp(r * dt) - 1.0),
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
    max_order: int = MAX_ORDER,
) -> JumpBasket:
    """General-case basket: S_t^i Pi_theta e^{-r dt} units of the
    power-jump-integral asset U_theta for every tuple theta in I_i, plus
    S_t^i C^(i) / (e^{r dt} - 1) in cash.  Valid for negligible dt with
    any jump activity.

    Pi_theta = (theta, n)! C^(n) with n = i - sum(theta) (see
    ``chaos.pi_coefficient``); the i + 1 constants C^(0..i) are computed
    once for all 2^i - 1 tuples."""
    s_t, r, dt = scenario.s_t, scenario.r, scenario.delta_t
    state = path_state if path_state is not None else PathState(t=0.0)
    disc = math.exp(-r * dt)
    consts = [constant_term(n, moments, dt, max_order) for n in range(i + 1)]
    units = {}
    for theta in enumerate_compositions(i, max_order):
        n = i - sum(theta)
        pi = multinomial(theta + (n,)) * consts[n]
        units[theta] = coefficient * s_t**i * pi * disc
    cash = coefficient * s_t**i * consts[i] / (math.exp(r * dt) - 1.0)
    return JumpBasket(
        coefficient=coefficient,
        order=i,
        s_t=s_t,
        r=r,
        delta_t=dt,
        path_state=state,
        moments=moments,
        pji_units=units,
        bank_cash=cash,
    )


def phi_hedge_basket(
    coefficient: float,
    scenario,
    n: int,
    moments: MomentVector,
    path_state: PathState,
    max_order: int = MAX_ORDER,
) -> JumpBasket:
    """Single-integral reduction traded through T^(j) assets.

    phi_j e^{-r dt} units of T^(j) for j = 1..n plus cash
    sum_j -e^{-2 r dt} T_t^(j) phi_j + S^n C^(n)/(e^{r dt} - 1), with the
    phi_j frozen at their left-endpoint values.  The dropped deeper
    iterated integrals make this exact only in the dt -> 0 limit.
    """
    s_t, r, dt = scenario.s_t, scenario.r, scenario.delta_t
    phis = phi_extract(n, moments, dt, s_t, max_order)
    disc = math.exp(-r * dt)
    units = {j: coefficient * phis[j] * disc for j in phis}
    cash = coefficient * (
        sum(-math.exp(-2 * r * dt) * path_state.t_asset(j, r) * phis[j] for j in phis)
        + s_t**n * constant_term(n, moments, dt, max_order) / (math.exp(r * dt) - 1.0)
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


@dataclass(frozen=True)
class _PrefixTree:
    """A tuple set closed under prefixes, one node per tuple.

    Node 0 is the empty tuple; every other node's ``parent`` is its prefix
    and ``level`` its last entry (0 for the root).  ``index[k]`` is the node
    of the k-th requested tuple.
    """

    parent: np.ndarray
    level: np.ndarray
    index: np.ndarray
    depth: int


@functools.lru_cache(maxsize=16)
def _prefix_tree(thetas: tuple) -> _PrefixTree:
    node_of = {(): 0}
    parent, level = [0], [0]
    for theta in sorted({th[:d] for th in thetas for d in range(1, len(th) + 1)}, key=len):
        node_of[theta] = len(parent)
        parent.append(node_of[theta[:-1]])
        level.append(theta[-1])
    return _PrefixTree(
        parent=np.array(parent, dtype=np.intp),
        level=np.array(level, dtype=np.intp),
        index=np.array([node_of[th] for th in thetas], dtype=np.intp),
        depth=max(map(len, thetas), default=0),
    )


def iterated_integrals(
    thetas,
    jump_times,
    jump_sizes,
    moments: MomentVector,
    t0: float,
    t1: float,
) -> np.ndarray:
    """S'_theta for every tuple of ``thetas`` at once, on a finite-activity
    jump path with no Brownian part.

    S'_theta is the iterated integral of dY^(i_1) ... dY^(i_j) over
    t0 < s_j < ... < s_1 <= t1, so S'_theta = int S'_parent(s-) dY^(l)(s)
    with parent the prefix (i_1, ..., i_{j-1}) and l = i_j.  The tuples are
    closed under prefixes into a tree whose root, the empty tuple, is 1,
    and the whole family V is stepped along the path:

    * between jumps dV_theta/ds = -m_l V_parent, a nilpotent linear system,
      so a width w advances V by exp(wA) V = sum_{n <= depth} (w^n/n!) A^n V
      exactly; each A^n term is one gather of the previous term through the
      parent index;
    * at a jump time V_theta gains (sum of x^l over the jumps at that time)
      times the left limit V_parent(tau-), so jumps that share a time do not
      see each other.

    Jumps must lie in (t0, t1]; a jump at t1 counts.  The result is exact up
    to float rounding and follows the order of ``thetas`` (tuples of ints).
    """
    tree = _prefix_tree(tuple(thetas))
    jump_times = np.asarray(jump_times, dtype=float)
    jump_sizes = np.asarray(jump_sizes, dtype=float)
    if len(jump_times) and (jump_times.min() <= t0 or jump_times.max() > t1):
        raise ValueError("jumps must lie inside (t0, t1]")
    top = int(tree.level.max())
    drift = -np.array([0.0] + [moments[k] for k in range(1, top + 1)])[tree.level]
    # power sums sum x^l of the jumps at each distinct time; l = 0 adds nothing
    times, group = np.unique(jump_times, return_inverse=True)
    powers = np.zeros((len(times), top + 1))
    np.add.at(powers, group, jump_sizes[:, None] ** np.arange(top + 1))
    powers[:, 0] = 0.0

    parent = tree.parent

    def advance(value, width):
        term = value
        for n in range(1, tree.depth + 1):
            term = (width / n) * drift * term[parent]
            value = value + term
        return value

    value = np.zeros(len(parent))
    value[0] = 1.0
    now = t0
    for tau, power in zip(times, powers):
        value = advance(value, tau - now)
        value = value + power[tree.level] * value[parent]
        now = tau
    return advance(value, t1 - now)[tree.index]


def iterated_integral(
    theta,
    jump_times,
    jump_sizes,
    moments: MomentVector,
    t0: float,
    t1: float,
) -> float:
    """S'_theta for one tuple: ``iterated_integrals`` on the tree of theta's
    prefixes (see there for the method and the conventions)."""
    return float(
        iterated_integrals((tuple(theta),), jump_times, jump_sizes, moments, t0, t1)[0]
    )
