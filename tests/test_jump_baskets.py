import dataclasses
import hashlib
import math
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import package_env, reference_mark, reference_powers
from levyhedge import jump_baskets
from levyhedge.chaos import (
    MAX_ORDER,
    constant_term,
    constant_terms,
    enumerate_compositions,
    phi_from_constants,
    pi_coefficient,
)
from levyhedge.errors import UnsupportedOrderError
from levyhedge.jump_baskets import (
    PathState,
    ScenarioOutcome,
    iterated_integral,
    iterated_integrals,
    phi_hedge_basket,
    pja_basket_general,
    pja_basket_order2,
    pja_basket_simple,
    pji_basket,
    replication_report,
)
from levyhedge.models import (
    CompoundPoisson,
    FixedJumps,
    LevyModel,
    MomentVector,
    NormalJumps,
    moment_vector,
)
from levyhedge.taylor import HedgeScenario


def make_moments(rng, order=10, scale=0.1):
    lam = rng.uniform(0.5, 5.0)
    law = NormalJumps(mean=rng.uniform(-0.05, 0.05), std=rng.uniform(0.02, scale))
    model = LevyModel(jump_spec=CompoundPoisson(lam, law))
    return moment_vector(model, order), model


def reference_iterated_integral(theta, times, sizes, moments, t0, t1):
    """One tuple at a time: each level of theta integrates the previous one
    as an exact polynomial in (s - left end) on every interval between jump
    times, and adds the jumps at the interval's right end."""
    bounds = [t0, *sorted(set(times) - {t1}), t1]
    integrand = [np.array([1.0])] * (len(bounds) - 1)
    value = 1.0
    for level in theta:
        acc, antis = 0.0, []
        for q, poly in enumerate(integrand):
            width = bounds[q + 1] - bounds[q]
            anti = P.polyint(-moments[level] * poly, k=acc)
            jumps = sum(x**level for tau, x in zip(times, sizes) if tau == bounds[q + 1])
            acc = P.polyval(width, anti) + P.polyval(width, poly) * jumps
            antis.append(anti)
        integrand, value = antis, acc
    return value


def stepper_reference(thetas, jump_times, jump_sizes, moments, t0, t1):
    """The tree stepper as first written, kept as a bit-for-bit oracle: jump
    times grouped by ``np.unique`` with their powers (``reference_powers``)
    summed by ``np.add.at``, and every drift step taken over the whole tree."""
    node_of = {(): 0}
    parent, level = [0], [0]
    for theta in sorted({th[:d] for th in thetas for d in range(1, len(th) + 1)}, key=len):
        node_of[theta] = len(parent)
        parent.append(node_of[theta[:-1]])
        level.append(theta[-1])
    parent, level = np.array(parent), np.array(level)
    depth = max(map(len, thetas), default=0)
    jump_times = np.asarray(jump_times, dtype=float)
    jump_sizes = np.asarray(jump_sizes, dtype=float)
    top = int(level.max())
    drift = -np.array([0.0] + [moments[k] for k in range(1, top + 1)])[level]
    times, group = np.unique(jump_times, return_inverse=True)
    powers = np.zeros((len(times), top + 1))
    np.add.at(powers, group,
              np.array([reference_powers(jump_sizes, l) for l in range(top + 1)]).T)
    powers[:, 0] = 0.0

    def advance(value, width):
        term = value
        for n in range(1, depth + 1):
            term = (width / n) * drift * term[parent]
            value = value + term
        return value

    value = np.zeros(len(parent))
    value[0] = 1.0
    now = t0
    for tau, power in zip(times, powers):
        value = advance(value, tau - now)
        value = value + power[level] * value[parent]
        now = tau
    return advance(value, t1 - now)[[node_of[th] for th in thetas]]


# The digest of ``pji_digest``; it holds on x86-64 with numpy 2.4, whose
# ``default_rng`` streams it reads, at every level of ``CPU_LEVELS``.
PJI_DIGEST = "42b37bcc6797f91d15a14fe3f85b9f75f1de37d6f49026174f32a13c6717e586"
# (numpy features to disable, OpenBLAS core type): the CPU as it is, an
# AVX2-only one, and one with neither AVX512 nor AVX2 dispatch.
CPU_LEVELS = (
    ((), None),
    (("X86_V4", "AVX512_ICL", "AVX512_SPR"), "Haswell"),
    (("X86_V4", "AVX512_ICL", "AVX512_SPR", "X86_V3"), "Sandybridge"),
)


def pji_digest() -> str:
    """sha256 of every unit, the cash and every mark of pji baskets of
    orders 2..12 on seeded inputs with 0-3 jumps.  The pin was checked
    against marks summed by ``math.fsum`` from ``stepper_reference``, whose
    jump powers are ``reference_powers``."""
    rng = np.random.default_rng(2121)
    model = LevyModel(jump_spec=CompoundPoisson(3.0, NormalJumps(mean=-0.02, std=0.08)))
    moments = moment_vector(model, 12)
    digest = hashlib.sha256()
    for order in range(2, 13):
        s_t, dt, r = rng.uniform(20.0, 200.0), rng.uniform(0.01, 0.2), rng.uniform(0.01, 0.1)
        c = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
        sc = HedgeScenario(s_t=s_t, delta_s=1.0, delta_t=dt, r=r)
        basket = pji_basket(c, sc, order, moments)
        digest.update(np.array([*basket.pji_units.values(), basket.bank_cash]).tobytes())
        for n_jumps in range(4):
            times = np.sort(dt * (1.0 - rng.random(n_jumps)))
            sizes = rng.normal(-0.02, 0.08, n_jumps)
            mark = basket.change_of_value(ScenarioOutcome(s_t * sizes.sum(), times, sizes))
            digest.update(np.array([mark]).tobytes())
    return digest.hexdigest()


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def scen(s_t, dt, r):
    return HedgeScenario(s_t=s_t, delta_s=1.0, delta_t=dt, r=r)


class TestJumpPowers:
    """x^l is formed in one place, ``_jump_powers``, by one rule: the
    left-to-right product x^l = x^(l-1) x."""

    def test_every_entry_is_the_left_to_right_product(self):
        rng = np.random.default_rng(3600)
        for n in range(21):
            sizes = rng.normal(-0.01, 0.3, n) * 10.0 ** rng.integers(-3, 2, n)
            for top in range(MAX_ORDER + 1):
                table = jump_baskets._jump_powers(sizes, top)
                assert table.shape == (n, top + 1)
                assert same_bits(table[:, 0], np.zeros(n)), (n, top)
                for level in range(1, top + 1):
                    assert same_bits(table[:, level], reference_powers(sizes, level)), (n, level)

    def test_power_sums_and_tree_events_read_one_square(self):
        """On one-jump scenarios at zero moments, a pji tree's node (2)
        holds its event's x^2, which must be the x^2 of ``power_sums(2)``."""
        rng = np.random.default_rng(3601)
        sizes = rng.normal(0.0, 0.1, 3000)
        outcome = ScenarioOutcome(np.zeros(3000), np.full(3000, 0.5), sizes,
                                  n_jumps=np.ones(3000, dtype=int))
        still = MomentVector(m=(0.0,) * MAX_ORDER)
        node = enumerate_compositions(2).index((2,))
        squares = outcome.iterated_integrals(2, still, 0.0, 1.0)[:, node]
        assert same_bits(squares, outcome.power_sums(2))
        assert same_bits(squares, reference_powers(sizes, 2))


class TestScenarioOutcome:
    def test_a_number_or_a_0d_array_is_one_scenario_and_a_list_a_set(self):
        moments, _ = make_moments(np.random.default_rng(26))
        basket = pja_basket_simple(1.2, scen(100.0, 0.01, 0.05), 3, PathState(t=0.3), moments)
        times, sizes = np.array([0.31]), np.array([0.02])
        marks = []
        for move in (2.0, np.float64(2.0), np.array(2.0)):
            one = ScenarioOutcome(move, times, sizes)
            assert one.n_jumps == 1
            marks.append(basket.change_of_value(one))
            assert type(marks[-1]) is float
        assert marks[0] == marks[1] == marks[2]
        group = ScenarioOutcome([2.0, -1.0], np.array([0.31, 0.305]), np.array([0.02, -0.01]),
                                n_jumps=[1, 1])
        assert group.delta_s.shape == (2,) and list(group.n_jumps) == [1, 1]
        assert basket.change_of_value(group)[0] == marks[0]
        with pytest.raises(ValueError, match="one jump count per move"):
            ScenarioOutcome([2.0], times, sizes)

    def test_jump_times_and_sizes_pair_up(self):
        # an unmatched size would count in n_jumps and the power sums but drop
        # out of the pji legs: the order-3 mark read 27 = C (S x_1)^3, not 343
        moments, _ = make_moments(np.random.default_rng(26))
        basket = pji_basket(1.0, scen(100.0, 0.05, 0.04), 3, moments)
        times, sizes = np.array([0.01, 0.02]), np.array([0.03, 0.04])
        assert basket.change_of_value(ScenarioOutcome(7.0, times, sizes)) == pytest.approx(343.0)
        for outcome in ({"delta_s": 7.0}, {"delta_s": [7.0], "n_jumps": [2]}):
            with pytest.raises(ValueError, match="1 jump times for 2 sizes"):
                ScenarioOutcome(jump_times=times[:1], jump_sizes=sizes, **outcome)

    def test_jump_lists_mark_as_arrays(self):
        # a list of jumps marked through pji alone: pja raised TypeError in
        # its power sums
        moments, _ = make_moments(np.random.default_rng(28), order=12)
        times, sizes = [0.01, 0.03], [0.02, -0.05]
        for basket in self.baskets(moments):
            one = [basket.change_of_value(ScenarioOutcome(1.0, t, x))
                   for t, x in ((times, sizes), (np.array(times), np.array(sizes)))]
            group = [basket.change_of_value(ScenarioOutcome([1.0, -2.0], t, x, n_jumps=[1, 1]))
                     for t, x in ((times, sizes), (np.array(times), np.array(sizes)))]
            assert same_bits(one[0], one[1]) and same_bits(group[0], group[1]), basket.order

    @pytest.mark.parametrize("n_jumps", [None, [1, 0]])
    def test_jumps_of_two_dimensions_are_refused(self, n_jumps):
        move = 1.0 if n_jumps is None else [1.0, 2.0]
        with pytest.raises(ValueError, match="both must be 1-D, of one length"):
            ScenarioOutcome(move, np.array([[0.01]]), np.array([[0.02]]), n_jumps=n_jumps)

    @staticmethod
    def baskets(moments=None):
        """A basket of each kind that marks a scenario set."""
        if moments is None:
            moments, _ = make_moments(np.random.default_rng(27))
        sc = scen(100.0, 0.05, 0.04)
        return [pja_basket_general(1.1, sc, 3, PathState(t=0.0), moments),
                pji_basket(1.1, sc, 3, moments),
                phi_hedge_basket(1.1, sc, 3, moments, PathState(t=0.0))]

    def test_negative_counts_are_refused(self):
        # [-1, 2] adds up to the one jump listed, but placed it in scenario 1
        # for a pji mark and broke numpy's repeat in a pja mark
        with pytest.raises(ValueError, match="non-negative integer"):
            ScenarioOutcome([1.0, 2.0], np.array([0.01]), np.array([0.02]), n_jumps=[-1, 2])

    def test_fractional_counts_are_refused(self):
        with pytest.raises(ValueError, match="non-negative integer"):
            ScenarioOutcome([1.0, 2.0], np.array([0.01]), np.array([0.02]),
                            n_jumps=[0.5, 0.5])

    def test_moves_of_a_set_are_one_dimensional(self):
        # 2-D moves with 2-D counts marked through pji_basket alone
        with pytest.raises(ValueError, match="1-D array of moves"):
            ScenarioOutcome(np.array([[1.0], [2.0]]), np.array([0.01]), np.array([0.02]),
                            n_jumps=[[1], [0]])

    def test_an_empty_set_marks_to_an_empty_array(self):
        empty = ScenarioOutcome(np.empty(0), n_jumps=np.empty(0, dtype=int))
        for basket in self.baskets():
            marks = basket.change_of_value(empty)
            assert isinstance(marks, np.ndarray) and marks.shape == (0,), basket.pji_units


class TestSimpleBasket:
    def test_no_jump_no_move_consistency(self):
        rng = np.random.default_rng(0)
        moments, _ = make_moments(rng)
        sc = scen(100.0, 0.01, 0.05)
        state = PathState(t=0.3, y={2: 0.004})
        basket = pja_basket_simple(1.2, sc, 2, state, moments)
        outcome = ScenarioOutcome(delta_s=0.0)
        # with no jump the compensator drift and the bank leg cancel exactly
        assert basket.change_of_value(outcome) == pytest.approx(0.0, abs=1e-12)

    def test_single_jump_squared(self):
        rng = np.random.default_rng(1)
        moments, _ = make_moments(rng)
        sc = scen(100.0, 0.002, 0.04)
        state = PathState(t=0.0, y={2: 0.0})
        c2 = 0.8
        basket = pja_basket_simple(c2, sc, 2, state, moments)
        x = 0.1
        outcome = ScenarioOutcome(
            delta_s=100.0 * x, jump_times=np.array([0.001]), jump_sizes=np.array([x])
        )
        assert basket.change_of_value(outcome) == pytest.approx(
            c2 * (100.0 * x) ** 2, rel=1e-10
        )

    @pytest.mark.parametrize("order", [2, 3, 4, 6])
    def test_replication_randomized(self, order):
        rng = np.random.default_rng(50 + order)
        for _ in range(100):
            moments, _ = make_moments(rng)
            s_t = rng.uniform(20, 200)
            dt = rng.uniform(1e-4, 0.05)
            r = rng.uniform(0.02, 0.12)
            t0 = rng.uniform(0.0, 2.0)
            state = PathState(t=t0, y={order: rng.uniform(-0.01, 0.01)})
            c = rng.uniform(0.1, 2.0) * rng.choice([-1, 1])
            basket = pja_basket_simple(c, scen(s_t, dt, r), order, state, moments)
            x = rng.uniform(0.05, 0.4) * rng.choice([-1, 1])
            outcome = ScenarioOutcome(
                delta_s=s_t * x,
                jump_times=np.array([t0 + dt * rng.uniform(0.1, 0.9)]),
                jump_sizes=np.array([x]),
            )
            assert basket.change_of_value(outcome) == pytest.approx(
                c * (s_t * x) ** order, rel=1e-10
            )

    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_matches_hand_formula(self, order):
        # drift_b = 0: S^i e^{-r(t+dt)} units of T^(i) only, no stock, and
        # the cash freezing today's T^(i) value and the compensator drift
        rng = np.random.default_rng(20 + order)
        for _ in range(20):
            moments, _ = make_moments(rng)
            s_t, dt, r = rng.uniform(20, 200), rng.uniform(1e-4, 0.05), rng.uniform(0.02, 0.12)
            t = rng.uniform(0.0, 2.0)
            state = PathState(t=t, y={k: rng.uniform(-0.01, 0.01) for k in range(2, order + 1)})
            c = rng.uniform(0.1, 2.0) * rng.choice([-1, 1])
            basket = pja_basket_general(c, scen(s_t, dt, r), order, state, moments)
            t_now = math.exp(r * t) * state.y[order]
            units = c * s_t**order * math.exp(-r * (t + dt))
            cash = (
                c * s_t**order
                * (math.exp(-r * (t + dt)) * t_now - math.exp(-r * t) * t_now
                   + moments[order] * dt)
                / (math.exp(r * dt) - 1.0)
            )
            assert basket.pja_units[order] == pytest.approx(units, rel=1e-12)
            assert basket.pja_units.keys() == {order}
            assert basket.stock_units == 0.0
            assert basket.bank_cash == pytest.approx(cash, rel=1e-10)
            alias = pja_basket_simple(c, scen(s_t, dt, r), order, state, moments)
            assert alias == basket

    def test_regime_violation_reported(self):
        rng = np.random.default_rng(3)
        moments, _ = make_moments(rng)
        sc = scen(100.0, 0.01, 0.05)
        basket = pja_basket_simple(1.0, sc, 2, PathState(t=0.0), moments)
        two_jumps = ScenarioOutcome(
            delta_s=100.0 * ((1.1) * (1.05) - 1),
            jump_times=np.array([0.002, 0.008]),
            jump_sizes=np.array([0.1, 0.05]),
        )
        report = replication_report(basket, two_jumps)
        assert report["regime_violated"]
        assert abs(report["error"]) > 0

    def test_regime_flags_one_per_scenario(self):
        """On a scenario set every basket flags each scenario: a one-jump
        basket those with more than one jump, a pji basket none."""
        rng = np.random.default_rng(4)
        moments, _ = make_moments(rng, order=3)
        sc = scen(100.0, 0.01, 0.05)
        group = ScenarioOutcome(np.array([2.0, 15.5]), np.array([0.004, 0.002, 0.008]),
                                np.array([0.02, 0.1, 0.05]), n_jumps=np.array([1, 2]))
        pja = pja_basket_general(1.0, sc, 2, PathState(t=0.0), moments)
        pji = pji_basket(1.0, sc, 2, moments)
        for basket, flags in ((pja, [False, True]), (pji, [False, False])):
            violated = replication_report(basket, group)["regime_violated"]
            assert isinstance(violated, np.ndarray) and violated.tolist() == flags
            lone = ScenarioOutcome(15.5, *group.paths()[1])
            assert replication_report(basket, lone)["regime_violated"] is flags[1]

    def test_set_reports_match_single_reports(self):
        """A set's report is its scenarios' single reports, by bytes: the
        target's power is one rule (``np.float_power``) for both."""
        rng = np.random.default_rng(3402)
        moments, _ = make_moments(rng, order=6)
        s_t, dt, t0 = 80.0, 0.05, 0.3
        group, singles = one_jump_outcomes(rng, 400, t0, dt, s_t, 0.03)
        for order in (2, 3, 5):
            basket = pja_basket_general(0.7, scen(s_t, dt, 0.04), order, PathState(t=t0),
                                        moments, 0.03)
            report = replication_report(basket, group)
            lone = [replication_report(basket, single) for single in singles]
            for key in ("target", "achieved", "error", "regime_violated"):
                assert same_bits(report[key], [one[key] for one in lone]), (order, key)
            assert all(type(one["target"]) is float for one in lone)
            # a single scenario's target is the Python float power it was
            assert [one["target"] for one in lone] == [0.7 * one.delta_s**order
                                                        for one in singles]


class TestMaterialDtBaskets:
    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_general_replication_randomized(self, order):
        # sigma = 0, one jump, dt material: dS = S(e^{b dt}(1+x) - 1)
        rng = np.random.default_rng(70 + order)
        for _ in range(100):
            moments, _ = make_moments(rng)
            s_t = rng.uniform(20, 200)
            dt = rng.uniform(0.01, 0.5)
            r = rng.uniform(0.02, 0.12)
            b = rng.uniform(-0.1, 0.2)
            t0 = rng.uniform(0.0, 1.0)
            state = PathState(
                t=t0, y={k: rng.uniform(-0.01, 0.01) for k in range(2, order + 1)}
            )
            c = rng.uniform(0.1, 2.0) * rng.choice([-1, 1])
            basket = pja_basket_general(c, scen(s_t, dt, r), order, state, moments, b)
            while True:
                x = rng.uniform(0.05, 0.4) * rng.choice([-1, 1])
                ds = s_t * (math.exp(b * dt) * (1 + x) - 1.0)
                if abs(ds) >= 0.05 * s_t:  # keep the target off zero
                    break
            outcome = ScenarioOutcome(
                delta_s=ds,
                jump_times=np.array([t0 + dt * 0.5]),
                jump_sizes=np.array([x]),
            )
            assert basket.change_of_value(outcome) == pytest.approx(
                c * ds**order, rel=1e-10
            )

    def test_order2_matches_general(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            moments, _ = make_moments(rng)
            s_t = rng.uniform(20, 200)
            dt = rng.uniform(0.01, 0.5)
            r = rng.uniform(0.02, 0.12)
            b = rng.uniform(-0.1, 0.2)
            state = PathState(t=rng.uniform(0, 1), y={2: rng.uniform(-0.01, 0.01)})
            c = rng.uniform(0.1, 2.0)
            general = pja_basket_general(c, scen(s_t, dt, r), 2, state, moments, b)
            # the squared term written out: S^2 e^{2b dt} e^{-r(t+dt)} units of
            # T^(2), 2 S (e^{b dt} - 1) stock, cash freezing the other terms
            t, ebd, disc = state.t, math.exp(b * dt), math.exp(-r * (state.t + dt))
            em1 = math.expm1(b * dt)
            t_now = math.exp(r * t) * state.y[2]
            cash = c * math.fsum([
                s_t**2 * ebd**2 * disc * t_now,
                -s_t**2 * em1**2,
                s_t**2 * ebd**2 * (-math.exp(-r * t) * t_now + moments[2] * dt),
            ]) / (math.exp(r * dt) - 1.0)
            assert general.pja_units == {
                2: pytest.approx(c * s_t**2 * ebd**2 * disc, rel=1e-12)
            }
            assert general.stock_units == pytest.approx(c * 2.0 * s_t * em1, rel=1e-12)
            assert general.bank_cash == pytest.approx(cash, rel=1e-10)
            assert pja_basket_order2(c, scen(s_t, dt, r), state, moments, b) == general

    def test_dt_limit_reduces_to_simple(self):
        rng = np.random.default_rng(6)
        moments, _ = make_moments(rng)
        s_t, r, b = 100.0, 0.05, 0.1
        state = PathState(t=0.0, y={2: 0.002})
        c = 1.0
        for dt in (1e-3, 1e-5, 1e-7):
            material = pja_basket_order2(c, scen(s_t, dt, r), state, moments, b)
            simple = pja_basket_simple(c, scen(s_t, dt, r), 2, state, moments)
            rel = abs(material.pja_units[2] - simple.pja_units[2]) / simple.pja_units[2]
            assert rel < 3 * b * dt
            assert abs(material.stock_units) < 3 * s_t * b * dt


def one_jump_outcomes(rng, n_scenarios, t0, dt, s_t, b):
    """A set of ``n_scenarios`` sigma = 0 outcomes with 0 or 1 jump each
    (and the same as single outcomes), dS = S (e^{b dt}(1 + x) - 1)."""
    counts = rng.integers(0, 2, n_scenarios)
    times = t0 + dt * (1.0 - rng.random(counts.sum()))
    sizes = rng.normal(-0.01, 0.08, counts.sum())
    moves = s_t * (math.exp(b * dt) * (1.0 + np.bincount(np.repeat(np.arange(n_scenarios), counts),
                                                         sizes, n_scenarios)) - 1.0)
    group = ScenarioOutcome(moves, times, sizes, n_jumps=counts)
    singles = [ScenarioOutcome(move, t, x) for move, (t, x) in zip(moves.tolist(), group.paths())]
    return group, singles


class TestMarkAssembly:
    """Every mark equals ``reference_mark``, the column-by-column assembly
    summed by ``math.fsum``, by bytes, and a set's marks are its
    scenarios' single marks."""

    def test_pja_marks_match_the_reference(self):
        rng = np.random.default_rng(3400)
        moments, _ = make_moments(rng, order=12)
        s_t, dt, r, t0 = 80.0, 0.05, 0.04, 0.3
        state = PathState(t=t0, y={k: rng.uniform(-0.01, 0.01) for k in range(2, 13)})
        group, singles = one_jump_outcomes(rng, 300, t0, dt, s_t, 0.03)
        for order in range(2, 13):
            for b in (0.0, 0.03):
                c = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
                basket = pja_basket_general(c, scen(s_t, dt, r), order, state, moments, b)
                marks = basket.change_of_value(group)
                assert same_bits(marks, reference_mark(basket, group)), (order, b)
                lone = [basket.change_of_value(single) for single in singles]
                assert same_bits(marks, lone), (order, b)
                for single, mark in zip(singles[:8], lone):
                    assert same_bits(mark, reference_mark(basket, single)), (order, b)
        # the kept power sums are each order's own, and row 0 stays the moves
        scenario = np.repeat(np.arange(300), group.n_jumps)
        for i in (1, 7, 13):
            assert same_bits(group.power_sums(i),
                             np.bincount(scenario, reference_powers(group.jump_sizes, i), 300))
        with pytest.raises(ValueError):
            group.power_sums(0)

    def test_a_basket_of_both_kinds_matches_the_reference(self):
        """A basket holding stock, T^(i) and U_theta units marks as the
        reference does; one holding U_theta units alone does not read the
        move."""
        rng = np.random.default_rng(3401)
        model = LevyModel(jump_spec=CompoundPoisson(3.0, NormalJumps(mean=-0.02, std=0.08)))
        moments = moment_vector(model, 12)
        dt, t0 = 0.05, 0.2
        state = PathState(t=t0, y={2: 0.004, 3: -0.001})
        for order in (3, 7, 11):
            pji = pji_basket(0.6, scen(100.0, dt, 0.04), order, moments, state)
            both = dataclasses.replace(pji, pja_units={2: 3.5, 3: -40.0}, stock_units=0.25)
            counts = rng.integers(0, 4, 300)
            times = np.concatenate([np.sort(t0 + dt * (1.0 - rng.random(n))) for n in counts])
            sizes = rng.normal(-0.02, 0.08, counts.sum())
            group = ScenarioOutcome(rng.normal(0.0, 5.0, 300), times, sizes, n_jumps=counts)
            marks = both.change_of_value(group)
            assert same_bits(marks, reference_mark(both, group)), order
            for k in range(4):
                single = ScenarioOutcome(float(group.delta_s[k]), *group.paths()[k])
                assert same_bits(both.change_of_value(single), marks[k]), order
                assert same_bits(both.change_of_value(single), reference_mark(both, single))
                unmoved = ScenarioOutcome(math.nan, *group.paths()[k])
                assert same_bits(pji.change_of_value(unmoved), pji.change_of_value(single))


class TestIteratedIntegral:
    def test_single_level_is_compensated_sum(self):
        rng = np.random.default_rng(7)
        moments, _ = make_moments(rng)
        times = np.array([0.1, 0.5, 0.9])
        sizes = np.array([0.1, -0.05, 0.2])
        val = iterated_integral((2,), times, sizes, moments, 0.0, 1.0)
        assert val == pytest.approx(np.sum(sizes**2) - moments[2] * 1.0, rel=1e-12)

    def test_nested_pure_drift(self):
        rng = np.random.default_rng(8)
        moments, _ = make_moments(rng)
        # no jumps: S'_(1,1) = int (-m1 s) d(-m1 s) = m1^2 T^2 / 2
        m1 = moments[1]
        val = iterated_integral((1, 1), [], [], moments, 0.0, 2.0)
        assert val == pytest.approx(m1**2 * 2.0**2 / 2.0, rel=1e-12)

    def test_single_jump_depth_two_hand_formula(self):
        rng = np.random.default_rng(9)
        moments, _ = make_moments(rng)
        m1 = moments[1]
        tau, x, T = 0.4, 0.15, 1.0
        # S'_(1,1) with one jump at tau: -m1 x T + x^2/0 ... hand integral:
        # inner(s) = x 1{s>=tau} - m1 s; integral against dY gives
        # jump term inner(tau-) x = -m1 tau x, drift term m1^2 T^2/2 - m1 x (T - tau)
        want = -m1 * tau * x + m1**2 * T**2 / 2 - m1 * x * (T - tau)
        got = iterated_integral((1, 1), [tau], [x], moments, 0.0, T)
        assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12])
    def test_power_decomposition_pathwise(self, n):
        """(X_{t+dt}-X_t)^n = sum_theta Pi_theta S'_theta + C^(n), exactly,
        on sigma = 0 finite-activity paths."""
        rng = np.random.default_rng(90 + n)
        thetas = enumerate_compositions(n)
        for _ in range(40):
            moments, _ = make_moments(rng, order=12)
            t0 = rng.uniform(0, 1)
            dt = rng.uniform(0.05, 0.8)
            n_jumps = rng.integers(0, 5)
            times = np.sort(rng.uniform(t0, t0 + dt, n_jumps))
            sizes = rng.uniform(-0.3, 0.3, n_jumps)
            # X increment for sigma=0 pure-jump CP: sum of jumps
            dx = sizes.sum()
            s_vals = iterated_integrals(n, times, sizes, moments, t0, t0 + dt)
            terms = [constant_term(n, moments, dt)] + [
                pi_coefficient(theta, n, moments, dt) * s_val
                for theta, s_val in zip(thetas, s_vals)
            ]
            total = math.fsum(terms)
            # high orders cancel terms far larger than (dX)^n
            assert abs(total - dx**n) <= 1e-12 * max(map(abs, terms))
            if n <= 4:
                assert total == pytest.approx(dx**n, rel=1e-9, abs=1e-12)

    def test_jumps_at_one_time_and_at_the_end_hand_formula(self):
        rng = np.random.default_rng(15)
        moments, _ = make_moments(rng)
        m1 = moments[1]
        t0, T = 0.2, 0.5
        tau, x1, x2, z = 0.3, 0.12, -0.07, 0.2
        # S'_(1)(s) = (x1 + x2) 1{s >= t0 + tau} - m1 (s - t0).  The two jumps
        # at one time both see the left limit -m1 tau and not each other; the
        # jump at t1 sees the left limit x1 + x2 - m1 T.
        xs = x1 + x2
        want = (
            -m1 * tau * xs
            + (xs - m1 * T) * z
            + m1**2 * T**2 / 2
            - m1 * xs * (T - tau)
        )
        times = [t0 + tau, t0 + tau, t0 + T]
        got = iterated_integral((1, 1), times, [x1, x2, z], moments, t0, t0 + T)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("time", [0.2, 0.71])
    def test_jump_outside_the_period_raises(self, time):
        rng = np.random.default_rng(16)
        moments, _ = make_moments(rng)
        with pytest.raises(ValueError):
            iterated_integrals(3, [0.5, time], [0.1, 0.1], moments, 0.2, 0.7)

    def test_batch_matches_per_tuple_reference(self):
        rng = np.random.default_rng(19)
        thetas = enumerate_compositions(7)
        for times in ([], [0.3], [0.25, 0.25, 0.6], [0.12, 0.5, 0.9]):
            moments, _ = make_moments(rng)
            sizes = rng.uniform(-0.3, 0.3, len(times))
            batch = iterated_integrals(7, times, sizes, moments, 0.1, 0.9)
            for theta, value in zip(thetas, batch):
                want = reference_iterated_integral(theta, times, sizes, moments, 0.1, 0.9)
                # |S'_theta| is at most the product of its integrators' total variations
                scale = math.prod(
                    sum(abs(x) ** i for x in sizes) + abs(moments[i]) * 0.8 for i in theta
                )
                assert abs(value - want) <= 1e-13 * scale

    def test_single_tuple_matches_batch(self):
        rng = np.random.default_rng(17)
        moments, _ = make_moments(rng)
        thetas = enumerate_compositions(8)
        times = np.array([0.15, 0.4, 0.4, 0.9])
        sizes = np.array([0.1, -0.2, 0.05, 0.3])
        batch = iterated_integrals(8, times, sizes, moments, 0.1, 0.9)
        assert batch.shape == (len(thetas),)
        for theta, value in zip(thetas, batch):
            assert iterated_integral(theta, times, sizes, moments, 0.1, 0.9) == value

    def test_a_reversed_period_raises(self):
        moments, _ = make_moments(np.random.default_rng(22))
        with pytest.raises(ValueError, match="must not end before it starts"):
            iterated_integral((1,), [], [], moments, 1.0, 0.5)
        with pytest.raises(ValueError, match="must not end before it starts"):
            iterated_integrals(3, [], [], moments, 1.0, 0.5)

    def test_an_empty_period_gives_zeros(self):
        moments, _ = make_moments(np.random.default_rng(23))
        assert same_bits(iterated_integrals(4, [], [], moments, 0.3, 0.3), np.zeros(15))
        assert same_bits(iterated_integral((2, 1), [], [], moments, 0.3, 0.3), 0.0)

    def test_a_tuple_past_max_order_is_stepped_on_its_own_chain(self):
        moments, _ = make_moments(np.random.default_rng(24))
        m1, T = moments[1], 0.7
        # no jumps: S'_(1,...,1) over n levels is (-m1 T)^n / n!
        want = (-m1 * T) ** 14 / math.factorial(14)
        got = iterated_integral((1,) * 14, [], [], moments, 0.0, T)
        assert abs(got - want) <= math.ulp(want)


    @pytest.mark.parametrize("order", [2, 4, 7, 12])
    def test_stepper_matches_reference_bit_for_bit(self, order):
        rng = np.random.default_rng(300 + order)
        moments, _ = make_moments(rng, order=12)
        thetas = enumerate_compositions(order)
        t0 = rng.uniform(0.0, 1.0)
        t1 = t0 + rng.uniform(0.01, 0.5)
        for n_jumps in range(21):
            times = np.sort(t0 + (t1 - t0) * (1.0 - rng.random(n_jumps)))
            sizes = rng.normal(0.0, 0.2, n_jumps)
            got = iterated_integrals(order, times, sizes, moments, t0, t1)
            want = stepper_reference(thetas, times, sizes, moments, t0, t1)
            assert same_bits(got, want), n_jumps

    @pytest.mark.parametrize("order", [2, 4, 7, 12])
    def test_tied_and_unsorted_jumps_match_reference_bit_for_bit(self, order):
        rng = np.random.default_rng(320 + order)
        moments, _ = make_moments(rng, order=12)
        thetas = enumerate_compositions(order)
        t0, t1 = 0.1, 0.6
        cases = [
            [0.2, 0.2, 0.4],                # two-way tie
            [0.15, 0.3, 0.3, 0.3],          # three-way tie
            [0.15, 0.6, 0.6, 0.6],          # three-way tie at t1
            [0.5, 0.2, 0.35],               # unsorted
            [0.6, 0.25, 0.6, 0.25, 0.25],   # unsorted ties, one at t1
            [0.6],                          # the first interval ends in a jump at t1
            [0.6, 0.6, 0.6],                # ... in a tie at t1
        ]
        for times in cases:
            for _ in range(8):
                sizes = rng.normal(0.0, 0.3, len(times))
                got = iterated_integrals(order, times, sizes, moments, t0, t1)
                want = stepper_reference(thetas, times, sizes, moments, t0, t1)
                assert same_bits(got, want), times


    def test_outcome_passes_match_reference_bit_for_bit(self):
        """A set's stepping of I_12 (``ScenarioOutcome.iterated_integrals``),
        scenario by scenario as ``stepper_reference`` steps it: no jump,
        the first interval ending in a jump at t1 or in a tie there, and
        jumps before it."""
        rng = np.random.default_rng(340)
        moments, _ = make_moments(rng, order=12)
        t0, t1 = 0.1, 0.6
        paths = [[], [0.6], [0.6, 0.6, 0.6], [0.35, 0.6], [0.2, 0.2, 0.45]]
        times = np.concatenate([np.array(p, dtype=float) for p in paths])
        sizes = rng.normal(0.0, 0.3, len(times))
        group = ScenarioOutcome(rng.normal(0.0, 5.0, len(paths)), times, sizes,
                                n_jumps=np.array([len(p) for p in paths]))
        got = group.iterated_integrals(12, moments, t0, t1)
        thetas = enumerate_compositions(12)
        for row, (t, x) in zip(got, group.paths()):
            assert same_bits(row, stepper_reference(thetas, t, x, moments, t0, t1)), t


class TestPJIBasket:
    def test_first_order_structure(self):
        rng = np.random.default_rng(10)
        moments, _ = make_moments(rng)
        sc = scen(100.0, 0.01, 0.05)
        basket = pji_basket(1.0, sc, 1, moments)
        assert set(basket.pji_units) == {(1,)}
        assert basket.pji_units[(1,)] == pytest.approx(
            100.0 * math.exp(-0.05 * 0.01), rel=1e-12
        )
        want_cash = 100.0 * moments[1] * 0.01 / (math.exp(0.05 * 0.01) - 1.0)
        assert basket.bank_cash == pytest.approx(want_cash, rel=1e-12)

    def test_deterministic_leg_shares_constant_term(self):
        rng = np.random.default_rng(11)
        moments, _ = make_moments(rng)
        sc = scen(50.0, 0.02, 0.03)
        i = 3
        basket = pji_basket(2.0, sc, i, moments)
        want = 2.0 * 50.0**i * constant_term(i, moments, 0.02) / (math.exp(0.03 * 0.02) - 1)
        assert basket.bank_cash == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_exact_replication_any_jump_count(self, order):
        """The power decomposition makes the PJI basket exact pathwise under
        sigma = 0 and dS = S dX, with any number of jumps."""
        rng = np.random.default_rng(12 + order)
        for _ in range(30):
            moments, _ = make_moments(rng)
            s_t = rng.uniform(20, 200)
            dt = rng.uniform(0.01, 0.3)
            r = rng.uniform(0.02, 0.12)
            c = rng.uniform(0.1, 2.0) * rng.choice([-1, 1])
            basket = pji_basket(c, scen(s_t, dt, r), order, moments)
            n_jumps = rng.integers(0, 5)
            times = np.sort(rng.uniform(0, dt, n_jumps))
            sizes = rng.uniform(-0.3, 0.3, n_jumps)
            dx = sizes.sum()
            outcome = ScenarioOutcome(
                delta_s=s_t * dx, jump_times=times, jump_sizes=sizes
            )
            assert basket.change_of_value(outcome) == pytest.approx(
                c * (s_t * dx) ** order, rel=1e-9, abs=1e-9
            )

    @pytest.mark.parametrize("order", range(1, 13))
    def test_units_match_per_tuple_multinomials(self, order):
        rng = np.random.default_rng(40 + order)
        moments, _ = make_moments(rng, order=12)
        s_t, dt, r, c = 100.0, 0.01, 0.05, rng.uniform(0.1, 2.0)
        basket = pji_basket(c, scen(s_t, dt, r), order, moments)
        consts = [constant_term(n, moments, dt) for n in range(order + 1)]
        disc = math.exp(-r * dt)
        want = {}
        for theta in enumerate_compositions(order):
            n = order - sum(theta)
            multinomial = math.factorial(order) // math.prod(
                math.factorial(i) for i in theta + (n,))
            pi = multinomial * consts[n]
            want[theta] = c * s_t**order * pi * disc
        assert list(basket.pji_units.items()) == list(want.items())

    def test_a_ladder_reads_one_constant_pass(self):
        """Orders 2..K on one moment vector and period read one
        ``constant_terms`` pass, to K = min(moments.order, ``MAX_ORDER``);
        each order's constants are its prefix, bit for bit (the test above
        builds each order's units from its own pass)."""
        rng = np.random.default_rng(3603)
        for moment_order, top in ((12, 12), (7, 7), (14, 12)):
            moments, _ = make_moments(rng, order=moment_order)
            jump_baskets._ladder_constants.cache_clear()
            for i in range(2, top + 1):
                pji_basket(0.7, scen(100.0, 0.05, 0.03), i, moments)
            info = jump_baskets._ladder_constants.cache_info()
            assert (info.misses, info.hits) == (1, top - 2), moment_order

    def test_tuple_set_caps_the_order(self):
        rng = np.random.default_rng(19)
        moments, _ = make_moments(rng, order=13)
        with pytest.raises(UnsupportedOrderError):
            pji_basket(1.0, scen(100.0, 0.01, 0.05), 13, moments)

    def test_order12_mark_evaluates_the_tree_once_per_outcome(self, monkeypatch):
        """A ladder of orders 2..12 marked on one outcome steps each of its
        scenarios once, through the tree of I_12, whether the outcome is one
        scenario or a set."""
        rng = np.random.default_rng(18)
        moments, _ = make_moments(rng, order=12)
        dt = 0.05
        baskets = [pji_basket(0.7, scen(100.0, dt, 0.05), i, moments) for i in range(2, 13)]
        passes = []
        real = jump_baskets._stepped

        def counting(tree, *args):
            passes.append(len(tree.parent))
            return real(tree, *args)

        monkeypatch.setattr(jump_baskets, "_stepped", counting)
        for n_jumps in range(4):
            times = np.sort(dt * (1.0 - rng.random(n_jumps)))
            sizes = rng.normal(0.0, 0.1, n_jumps)
            outcome = ScenarioOutcome(100.0 * sizes.sum(), times, sizes)
            for basket in baskets:
                basket.change_of_value(outcome)
        assert passes == [2**12] * 4
        passes.clear()
        counts = np.array([0, 3, 1, 2, 0])
        times = np.concatenate([np.sort(dt * (1.0 - rng.random(n))) for n in counts])
        sizes = rng.normal(0.0, 0.1, counts.sum())
        group = ScenarioOutcome(rng.normal(0.0, 5.0, len(counts)), times, sizes, n_jumps=counts)
        for basket in reversed(baskets):
            basket.change_of_value(group)
        assert passes == [2**12] * len(counts)

    def test_marks_find_the_tree_of_their_order_without_building_one(self, monkeypatch):
        rng = np.random.default_rng(21)
        moments, _ = make_moments(rng, order=12)
        basket = pji_basket(0.7, scen(100.0, 0.05, 0.05), 12, moments)

        def refuse(thetas):
            raise AssertionError("a tree was built for the tuples of I_12")

        monkeypatch.setattr(jump_baskets, "_build_prefix_tree", refuse)
        outcome = ScenarioOutcome(1.0, np.array([0.01, 0.04]), np.array([0.03, -0.02]))
        basket.change_of_value(outcome)
        iterated_integrals(12, [0.02], [0.1], moments, 0.0, 0.05)

    def test_units_off_the_tuples_of_their_order_raise(self):
        """The units are one array over the tuples of I_i, in table order by
        construction, so an array of any other length is refused when the
        basket is built."""
        moments, _ = make_moments(np.random.default_rng(25))
        basket = pji_basket(1.0, scen(100.0, 0.01, 0.05), 3, moments)
        units = basket.pji_unit_array
        for wrong in (units[:-1], np.append(units, 1.0), [1.0], units[None, :]):
            with pytest.raises(ValueError, match="tuples of I_3"):
                dataclasses.replace(basket, pji_unit_array=wrong)

    def test_units_are_read_only_and_compared_by_value(self):
        moments, _ = make_moments(np.random.default_rng(27))
        basket = pji_basket(1.0, scen(100.0, 0.01, 0.05), 3, moments)
        with pytest.raises(ValueError, match="read-only"):
            basket.pji_unit_array[0] = 1.0
        with pytest.raises(TypeError):
            basket.pji_units[(1,)] = 1.0
        assert list(basket.pji_units) == list(enumerate_compositions(3))
        assert dataclasses.replace(basket) == basket
        assert dataclasses.replace(basket, pji_unit_array=2 * basket.pji_unit_array) != basket
        assert not pja_basket_simple(1.0, scen(100.0, 0.01, 0.05), 3, PathState(t=0.0),
                                     moments).pji_units

    @pytest.mark.parametrize("order", range(2, 13))
    def test_set_marks_match_single_marks(self, order):
        """A mark on a scenario set equals the per-scenario marks bit for bit,
        on both sides of the leg array size at which the sum switches to
        extraction (one row from order 11 on, four from order 9, three
        hundred from order 5)."""
        rng = np.random.default_rng(90 + order)
        model = LevyModel(jump_spec=CompoundPoisson(3.0, NormalJumps(mean=-0.02, std=0.08)))
        moments = moment_vector(model, order)
        dt = 0.05
        basket = pji_basket(rng.uniform(0.1, 2.0), scen(rng.uniform(20.0, 200.0), dt, 0.04),
                            order, moments)
        for n_scenarios in (1, 4, 300):
            counts = rng.integers(0, 6, n_scenarios)
            times = np.concatenate([np.sort(dt * (1.0 - rng.random(n))) for n in counts])
            sizes = rng.normal(-0.02, 0.08, counts.sum())
            moves = rng.normal(0.0, 5.0, n_scenarios)
            group = ScenarioOutcome(moves, times, sizes, n_jumps=counts)
            singles = [basket.change_of_value(ScenarioOutcome(move, t, x))
                       for move, (t, x) in zip(moves.tolist(), group.paths())]
            assert same_bits(basket.change_of_value(group), singles), n_scenarios

    @pytest.mark.parametrize("n_scenarios", [None, 300, 0])
    def test_ladder_marks_keep_their_bits_in_any_order(self, n_scenarios):
        """Orders 1..12 marked on one outcome, ascending, descending and
        shuffled, each equal by bytes to ``reference_mark``, which steps each
        scenario through the tree of the basket's own order; the same for
        moment vectors of order 7 and 4, where the outcome steps the tree of
        I_7 or I_4 and the top order reads it whole.  ``None`` is a single
        scenario, 0 the empty set."""
        rng = np.random.default_rng(3300 + (n_scenarios or 1))
        model = LevyModel(jump_spec=CompoundPoisson(3.0, NormalJumps(mean=-0.02, std=0.08)))
        dt = 0.05
        counts = rng.integers(0, 6, n_scenarios or 1)
        times = np.concatenate([np.sort(dt * (1.0 - rng.random(n))) for n in counts])
        sizes = rng.normal(-0.02, 0.08, counts.sum())
        moves = rng.normal(0.0, 5.0, len(counts))

        def outcome():
            if n_scenarios is None:
                return ScenarioOutcome(float(moves[0]), times, sizes)
            return ScenarioOutcome(moves, times, sizes, n_jumps=counts)

        for top in (12, 7, 4):
            moments = moment_vector(model, top)
            orders = list(range(1, top + 1))
            baskets = {i: pji_basket(rng.uniform(0.1, 2.0), scen(100.0, dt, 0.04), i, moments)
                       for i in orders}
            want = {i: reference_mark(b, outcome()) for i, b in baskets.items()}
            for ladder in (orders, orders[::-1], rng.permutation(orders).tolist()):
                shared = outcome()
                for i in ladder:
                    assert same_bits(baskets[i].change_of_value(shared), want[i]), (top, i)

    def test_reuse_is_keyed_by_moments_state_and_period(self):
        """Baskets that differ in moment vector, path-state time or period,
        marked one after another on one outcome, each mark as on a fresh
        outcome; a jump outside a basket's period raises on every mark."""
        rng = np.random.default_rng(3301)
        low, _ = make_moments(rng, order=12)
        high, _ = make_moments(rng, order=12)
        times, sizes = np.array([0.31, 0.33, 0.345]), np.array([0.04, -0.06, 0.05])
        cut = dataclasses.replace(low, m=low.m[:8])
        baskets = [
            pji_basket(0.8, scen(100.0, dt, 0.05), order, moments, PathState(t=t0))
            for order in (3, 6)
            for moments, t0, dt in ((low, 0.3, 0.05), (high, 0.3, 0.05), (low, 0.29, 0.06),
                                    (low, 0.3, 0.08), (cut, 0.3, 0.05))]
        shared = ScenarioOutcome(2.0, times, sizes)
        marks = []
        for basket in baskets + baskets[::-1]:
            marks.append(basket.change_of_value(shared))
            assert same_bits(marks[-1], basket.change_of_value(ScenarioOutcome(2.0, times, sizes)))
        # the moment vector cut to order 8 has its own pass, with the same bits
        first = marks[:len(baskets)]
        assert first[4] == first[0] and first[9] == first[5]
        assert len(set(first)) == len(baskets) - 2
        short = pji_basket(0.8, scen(100.0, 0.02, 0.05), 3, low, PathState(t=0.3))
        for outcome in (shared, ScenarioOutcome(2.0, times, sizes)):
            for _ in range(3):
                with pytest.raises(ValueError):
                    short.change_of_value(outcome)
        assert same_bits(baskets[0].change_of_value(shared), marks[0])

    def test_units_and_marks_keep_their_bits(self):
        """``pji_digest`` holds its pin in this process."""
        assert pji_digest() == PJI_DIGEST

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="the emulated CPU levels are x86-64 ones")
    def test_units_and_marks_keep_their_bits_on_every_cpu_level(self):
        """``pji_digest`` recomputed in child processes: as the CPU is, with
        numpy's AVX512 dispatch off and OpenBLAS on its Haswell kernels, and
        with numpy's AVX2 dispatch off too and OpenBLAS on Sandybridge.  All
        three read the pin.  Only the children's environment is set, and only
        features numpy dispatches are named."""
        from numpy._core._multiarray_umath import __cpu_dispatch__

        digests = []
        for features, core in CPU_LEVELS:
            env = package_env()
            env["PYTHONPATH"] = os.pathsep.join([str(pathlib.Path(__file__).parent),
                                                 env["PYTHONPATH"]])
            env.pop("NPY_DISABLE_CPU_FEATURES", None)
            env.pop("OPENBLAS_CORETYPE", None)
            named = [f for f in features if f in __cpu_dispatch__]
            if named:
                env["NPY_DISABLE_CPU_FEATURES"] = " ".join(named)
            if core:
                env["OPENBLAS_CORETYPE"] = core
            child = subprocess.run(
                [sys.executable, "-c", "import test_jump_baskets as t; print(t.pji_digest())"],
                env=env, capture_output=True, text=True, timeout=300, check=True)
            digests.append(child.stdout.strip())
        assert digests == [PJI_DIGEST] * len(CPU_LEVELS)

    def test_expected_change_matches_constant_mc(self):
        model = LevyModel(jump_spec=CompoundPoisson(4.0, FixedJumps(0.06)))
        moments = moment_vector(model, 8)
        dt = 0.05
        sc = scen(10.0, dt, 0.05)
        i = 2
        basket = pji_basket(1.0, sc, i, moments)
        rng = np.random.default_rng(13)
        n = 20000
        changes = np.empty(n)
        for idx in range(n):
            n_j = rng.poisson(4.0 * dt)
            times = np.sort(rng.uniform(0, dt, n_j))
            sizes = np.full(n_j, 0.06)
            dx = sizes.sum()
            outcome = ScenarioOutcome(delta_s=10.0 * dx, jump_times=times, jump_sizes=sizes)
            changes[idx] = basket.change_of_value(outcome)
        want = 10.0**i * constant_term(i, moments, dt)
        se = changes.std(ddof=1) / math.sqrt(n)
        assert abs(changes.mean() - want) < 4 * se


# finite floats whose exponents span about 2000 bits, subnormals and zeros included
finite_legs = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1000))


@st.composite
def leg_rows(draw):
    """An array of rows of legs, each row one of: legs spread over the whole
    exponent range, a mirrored row that cancels to exactly zero, legs within
    60 bits of a row scale of their own, or a row holding inf or NaN."""
    n_rows, n = draw(st.integers(1, 5)), draw(st.integers(1, 40))
    rows = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(["spread", "mirrored", "scaled", "special"]))
        if kind == "mirrored":
            half = draw(st.lists(finite_legs, min_size=n // 2, max_size=n // 2))
            row = draw(st.permutations(half + [-x for x in half]
                                       + draw(st.sampled_from([[0.0], [-0.0]]))[:n % 2]))
        elif kind == "scaled":
            scale = draw(st.integers(-1074, 940))
            row = [math.ldexp(f, scale + e) for f, e in draw(st.lists(
                st.tuples(st.floats(-1.0, 1.0), st.integers(0, 60)), min_size=n, max_size=n))]
        else:
            row = draw(st.lists(finite_legs, min_size=n, max_size=n))
            if kind == "special":
                for k in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
                    row[k] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        rows.append(row)
    return np.array(rows, dtype=float)


def check_row_sums(sums, legs, shared):
    """``sums`` gives each row's ``math.fsum`` with ``shared``, bit for bit,
    or raises what ``math.fsum`` raises."""
    want = []
    for row in legs.tolist():
        try:
            want.append(math.fsum(row + shared))
        except ValueError:   # inf and -inf in one row
            with pytest.raises(ValueError):
                sums(legs, shared)
            return
    assert same_bits(sums(legs, shared), want)


class TestExactRowSums:
    """The sum behind every mark: each row's ``math.fsum``, through
    error-free extraction when the leg array is large."""

    @given(leg_rows(), st.lists(finite_legs, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_extraction_matches_fsum(self, legs, shared):
        check_row_sums(jump_baskets._extracted_row_sums, legs, shared)

    def test_seeded_arrays_on_both_sides_of_the_size_rule(self):
        rng = np.random.default_rng(2323)
        wide = np.ldexp(rng.uniform(-1.0, 1.0, (3, 700)), rng.integers(-1074, 1000, (3, 700)))
        mirrored = np.concatenate([wide[:1], -wide[:1, ::-1]], axis=1)
        scales = np.ldexp(1.0, np.array([[-1000], [-300], [0], [300], [900]]))
        cases = [
            wide, wide[:1], mirrored, np.column_stack([wide[0], wide[1]]),
            rng.normal(size=(5, 300)) * scales,
            np.full((2, 600), -0.0), np.zeros((1, 1500)),
            np.concatenate([[[1e308, -1e308, 3.0, math.ldexp(1.0, -1074)]], wide[:1, :1000]], 1),
            np.concatenate([[[math.nan, math.inf]], wide[:1, :1100]], 1),
            np.concatenate([[[math.inf, 2.0]], wide[1:2, :1100]], 1),
        ]
        # lone rows on both sides of the entry count, and long ones
        lone = np.ldexp(rng.uniform(-1.0, 1.0, (1, 4096)), rng.integers(-60, 60, (1, 4096)))
        least = jump_baskets._EXTRACTION_MIN_LEGS
        cases += [lone[:, :n] for n in (least - 1, least, 2047, 2048, 4096)]
        # sets of rows on both sides of the row length, with non-finite legs and +-0
        short = jump_baskets._EXTRACTION_MIN_ROW
        for n_rows in (1, 4, 300):
            for n in (short - 1, short, 4 * short):
                legs = np.ldexp(rng.uniform(-1.0, 1.0, (n_rows, n)),
                                rng.integers(-300, 300, (n_rows, n)))
                legs[::3, 0], legs[1::3, -1] = 0.0, -0.0
                legs[2::5] = np.where(rng.random((len(legs[2::5]), n)) < 0.5, 0.0, -0.0)
                cases.append(legs.copy())
                legs[-1, n // 2], legs[n_rows // 2, 0] = math.nan, math.inf
                cases.append(legs)
        for legs in cases:
            for shared in ([], [-0.0], [1.0, -1e-300], [math.inf]):
                check_row_sums(jump_baskets._row_sums, legs, shared)
                check_row_sums(jump_baskets._extracted_row_sums, legs, shared)
        with pytest.raises(ValueError):
            jump_baskets._row_sums(np.concatenate([[[math.inf, -math.inf]], wide[:1]], 1), [])


class TestPhiHedge:
    def test_order_sixteen_hand_formula(self):
        rng = np.random.default_rng(20)
        moments, _ = make_moments(rng, order=16)
        s_t, dt, r, c, n = 10.0, 0.01, 0.05, 0.3, 16
        state = PathState(t=0.02, y={j: 1e-4 * j for j in range(1, n + 1)})
        basket = phi_hedge_basket(c, scen(s_t, dt, r), n, moments, state)
        phis = phi_from_constants(n, constant_terms(n, moments, dt), s_t)
        disc = math.exp(-r * dt)
        assert basket.pja_units == pytest.approx({j: c * phis[j] * disc for j in phis}, rel=1e-14)
        want_cash = c * (
            sum(-math.exp(-2 * r * dt) * state.t_asset(j, r) * phis[j] for j in phis)
            + s_t**n * constant_term(n, moments, dt) / math.expm1(r * dt)
        )
        assert basket.bank_cash == pytest.approx(want_cash, rel=1e-12)

    def test_error_shrinks_linearly_in_dt(self):
        rng = np.random.default_rng(14)
        moments, _ = make_moments(rng)
        s_t, r = 100.0, 0.05
        errs = []
        for dt in (0.2, 0.02, 0.002):
            basket = phi_hedge_basket(1.0, scen(s_t, dt, r), 2, moments, PathState(t=0.0))
            x = 0.2
            outcome = ScenarioOutcome(
                delta_s=s_t * x, jump_times=np.array([dt / 2]), jump_sizes=np.array([x])
            )
            target = (s_t * x) ** 2
            errs.append(abs(basket.change_of_value(outcome) - target))
        assert errs[0] > errs[1] > errs[2]
        # O(dt): a 10x smaller period shrinks the error ~10x
        assert errs[1] / errs[0] < 0.2
        assert errs[2] / errs[1] < 0.2


def initial_cost(basket):
    """The basket's cost at the hedge date: T-assets at their accrued value,
    stock and cash; the power-jump integrals start at zero value."""
    t_leg = sum(units * basket.path_state.t_asset(i, basket.r)
                for i, units in basket.pja_units.items())
    return t_leg + basket.stock_units * basket.s_t + basket.bank_cash


class TestSelfFinancing:
    def test_pja_final_value_accounting(self):
        """No cash enters between t and t+dt: initial cost plus change of
        value equals the direct mark of the held positions at maturity."""
        rng = np.random.default_rng(77)
        for _ in range(30):
            moments, _ = make_moments(rng)
            s_t = rng.uniform(20, 200)
            dt = rng.uniform(1e-3, 0.05)
            r = rng.uniform(0.02, 0.12)
            t0 = rng.uniform(0, 1)
            order = int(rng.integers(2, 5))
            state = PathState(t=t0, y={order: rng.uniform(-0.01, 0.01)})
            c = rng.uniform(0.1, 2.0)
            basket = pja_basket_simple(c, scen(s_t, dt, r), order, state, moments)
            x = rng.uniform(-0.3, 0.3)
            outcome = ScenarioOutcome(
                delta_s=s_t * x,
                jump_times=np.array([t0 + dt / 2]),
                jump_sizes=np.array([x]),
            )
            final = initial_cost(basket) + basket.change_of_value(outcome)
            y_new = state.y_value(order) + outcome.power_sums(order)[0] - moments[order] * dt
            direct = (
                basket.pja_units[order] * math.exp(r * (t0 + dt)) * y_new
                + basket.stock_units * (s_t + outcome.delta_s)
                + basket.bank_cash * math.exp(r * dt)
            )
            assert final == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_pji_initial_positions_cost_nothing_but_cash(self):
        rng = np.random.default_rng(78)
        moments, _ = make_moments(rng)
        basket = pji_basket(1.5, scen(80.0, 0.01, 0.04), 3, moments)
        # the integral assets start at zero value: only the deposit is funded
        assert initial_cost(basket) == pytest.approx(basket.bank_cash)
