import dataclasses
import math

import numpy as np
import pytest

from levyhedge.errors import (
    IncompleteMarketError,
    LadderOrderError,
    NeedsHigherOrderError,
    ZeroRateError,
)
from levyhedge.harness import REFERENCE_Q
from levyhedge.jump_baskets import PathState, ScenarioOutcome, pja_basket_simple
from levyhedge.models import CompoundPoisson, LevyModel, NormalJumps, moment_vector
from levyhedge.pricing import DerivativeLadder, OptionSpec, derivative_ladder, payoff
from levyhedge.stencil import build_lookup_table
from levyhedge.swaps import RealizedHistory, SwapSpec, moment_swap_basket
from levyhedge.taylor import (
    HedgeLedger,
    HedgeScenario,
    assemble_ledger,
    bank_growth,
    bank_term,
    find_q,
    taylor_sums,
)


def scenario(**kw):
    defaults = dict(s_t=100.0, delta_s=5.0, delta_t=0.1, r=0.05)
    defaults.update(kw)
    return HedgeScenario(**defaults)


class TestTaylorApprox:
    def test_time_term_only(self):
        ladder = DerivativeLadder(d2=(0.5, 0.01), d1=-3.0)
        sc = scenario(delta_t=0.25)
        assert taylor_sums(ladder, sc.delta_t, sc.delta_s, 0) == [pytest.approx(-0.75)]

    def test_quadratic_synthetic_exact(self):
        # F(t, s) = s^2: ladder (2s, 2), change (dS)^2 + 2 s dS
        s, ds = 100.0, 7.0
        ladder = DerivativeLadder(d2=(2 * s, 2.0), d1=0.0)
        sc = scenario(delta_s=ds)
        got = taylor_sums(ladder, sc.delta_t, sc.delta_s, 2)[2]
        assert got == pytest.approx(2 * s * ds + ds**2, rel=1e-14)

    def test_orders_accumulate(self):
        ladder = DerivativeLadder(d2=(1.0, 2.0, 6.0), d1=0.0)
        sc = scenario(delta_s=2.0)
        assert taylor_sums(ladder, sc.delta_t, sc.delta_s, 3)[3] == pytest.approx(2.0 + 4.0 + 8.0)

    def test_array_of_moves_gives_each_move_its_own_sums(self):
        ladder = DerivativeLadder(d2=(1.0, 1.0, 1.0), d1=0.5)
        moves = np.array([1.0, 2.0, -0.25])
        sums = taylor_sums(ladder, 0.01, moves, 3)
        for j, ds in enumerate(moves):
            want = taylor_sums(ladder, 0.01, float(ds), 3)
            assert [float(np.broadcast_to(total, moves.shape)[j]) for total in sums] == want
        assert len({id(total) for total in sums}) == len(sums)  # no two alias one array


class TestFindQ:
    def test_polynomial_truncates_at_two(self):
        s, ds = 50.0, 3.0
        ladder = DerivativeLadder(d2=(2 * s, 2.0, 0.0, 0.0), d1=0.0)
        exact = 2 * s * ds + ds**2
        (q,), (err,) = find_q(ladder, 0.1, [ds], [exact], 1e-9)
        assert q <= 2
        assert err <= 1e-9

    def test_needs_higher_order(self):
        ladder = DerivativeLadder(d2=(1.0,), d1=0.0)
        with pytest.raises(NeedsHigherOrderError) as exc:
            find_q(ladder, 0.1, [2.0], [100.0], 1e-6)
        assert exc.value.best_error.tolist() == [98.0]
        assert exc.value.best_order.tolist() == [1]

    @pytest.mark.parametrize("moves,changes", [([10.0, 20.0, 30.0], [5.0]),
                                               ([10.0, 20.0, 30.0], [5.0, 6.0]),
                                               ([10.0], [5.0, 6.0, 7.0])],
                             ids=["3-moves-1-change", "3-moves-2-changes", "1-move-3-changes"])
    def test_one_change_per_move(self, moves, changes):
        # 1 change was compared with every move, 2 broke numpy's broadcast and
        # 3 for 1 move indexed past the errors
        ladder = DerivativeLadder(d2=(1.0, 0.0), d1=0.0)
        with pytest.raises(ValueError, match=rf"one change per move: {len(moves)} moves, "
                                             rf"changes of shape \({len(changes)},\)"):
            find_q(ladder, 0.1, moves, changes, 1e-6)

    def test_monotone_in_move_size(self, table_n8):
        # on a payoff-kink ladder q cannot shrink when the move grows
        import levyhedge.pricing as pricing

        h = 10.0
        grid = 5000.0 + h * np.arange(-8, 9)
        curve = np.maximum(grid - 5000.0, 0.0)
        ladder = pricing.derivative_ladder(curve, table_n8, 15, h)
        moves = [10.0, 20.0, 30.0]
        try:
            qs, _ = find_q(ladder, 0.1, moves, moves, 0.01)
        except NeedsHigherOrderError as exc:
            qs = np.where(exc.best_error <= 0.01, exc.best_order, 99)
        assert qs.tolist() == sorted(qs.tolist())
        assert qs[0] == 8 and qs[1] == 12

    def test_error_settles_past_q(self, table_n8):
        # once the tolerance is met the truncation error stays settled:
        # no later partial sum degrades past the achieved error by more
        # than numerical dust
        import levyhedge.pricing as pricing

        h = 10.0
        grid = 5000.0 + h * np.arange(-8, 9)
        curve = np.maximum(grid - 5000.0, 0.0)
        ladder = pricing.derivative_ladder(curve, table_n8, 15, h)
        ds = 10.0
        (q,), (err_q,) = find_q(ladder, 0.1, [ds], [ds], 0.01)
        sums = taylor_sums(ladder, 0.1, ds, ladder.order())
        for p in range(q, ladder.order() + 1):
            err_p = abs(ds - (sums[p] - ladder.d1 * 0.1))
            assert err_p <= err_q + 1e-9


def scalar_find_q(ladder, delta_t, ds, exact, alpha_tol):
    """Oracle: one move's q search as a loop over the orders.  Returns
    (order, error, met): q and its error, or the order of least error."""
    total = ladder.d1 * delta_t
    errors = [abs(exact - total)]
    for i in range(1, ladder.order() + 1):
        total = total + ladder.derivative(i) * ds**i / math.factorial(i)
        errors.append(abs(exact - total))
    for p in range(1, len(errors)):
        if errors[p] <= alpha_tol:
            return p, errors[p], True
    best = min(range(1, len(errors)), key=errors.__getitem__)
    return best, errors[best], False


def set_find_q(ladder, delta_t, moves, changes, alpha_tol):
    """(order, error, met) per move from one q search over the set."""
    try:
        q, err = find_q(ladder, delta_t, moves, changes, alpha_tol)
        return [(int(o), float(e), True) for o, e in zip(q, err)]
    except NeedsHigherOrderError as exc:
        met = exc.best_error <= alpha_tol
        return [(int(o), float(e), bool(m))
                for o, e, m in zip(exc.best_order, exc.best_error, met)]


class TestFindQSet:
    """One q search over a set of moves equals the loop over the orders of
    each move, bit for bit, in q and in error."""

    C6_OPTIONS = [
        OptionSpec(kind="european_call", strike=5000.0, maturity=1.0),
        OptionSpec(kind="up_and_out", strike=5000.0, maturity=1.0, barrier=5050.0),
        OptionSpec(kind="up_and_in", strike=5000.0, maturity=1.0, barrier=5050.0),
        OptionSpec(kind="down_and_out", strike=5000.0, maturity=1.0, barrier=4950.0),
    ]
    C6_MOVES = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0]

    @pytest.fixture(scope="class")
    def c6_ladders(self):
        # criterion 6: the post-move curve is the payoff on the N = 20, step-10 grid
        table = build_lookup_table(20, 39)
        grid = 5000.0 + 10.0 * np.arange(-20, 21)
        out = []
        for opt in self.C6_OPTIONS:
            curve = np.asarray(payoff(opt, grid), dtype=float)
            base = float(curve[20])
            out.append((opt, derivative_ladder(curve, table, 39, 10.0), base))
        return out

    def changes(self, opt, base, moves):
        return np.asarray(payoff(opt, 5000.0 + np.asarray(moves)), dtype=float) - base

    def test_criterion_6_ladders_match_the_oracle_and_the_reference(self, c6_ladders):
        for opt, ladder, base in c6_ladders:
            changes = self.changes(opt, base, self.C6_MOVES)
            got = set_find_q(ladder, 1.0, self.C6_MOVES, changes, 0.01)
            want = [scalar_find_q(ladder, 1.0, ds, c, 0.01)
                    for ds, c in zip(self.C6_MOVES, changes)]
            assert got == want, opt.kind
            assert [q for q, _, _ in got] == [REFERENCE_Q[(opt.kind, int(ds))]
                                             for ds in self.C6_MOVES]

    def test_unmet_moves_report_their_best_error(self, c6_ladders):
        moves = [-30.0, -7.5, 10.0, 20.5, 70.0, 400.0]
        for opt, ladder, base in c6_ladders:
            changes = self.changes(opt, base, moves)
            got = set_find_q(ladder, 1.0, moves, changes, 1e-9)
            want = [scalar_find_q(ladder, 1.0, ds, c, 1e-9) for ds, c in zip(moves, changes)]
            assert got == want, opt.kind
            assert any(met for *_, met in got) and not all(met for *_, met in got)

    def test_error_exactly_at_the_tolerance_is_met(self, c6_ladders):
        _, ladder, base = c6_ladders[0]
        opt = self.C6_OPTIONS[0]
        moves = [10.0, 30.0, 50.0]
        changes = self.changes(opt, base, moves)
        for ds, change in zip(moves, changes):
            order, tol, _ = scalar_find_q(ladder, 1.0, ds, change, 1e-3)
            assert tol > 0
            got = set_find_q(ladder, 1.0, moves, changes, tol)
            want = [scalar_find_q(ladder, 1.0, m, c, tol) for m, c in zip(moves, changes)]
            assert got == want
            assert got[moves.index(ds)][:2] == (order, tol)
            # a tolerance one ulp tighter no longer holds that order
            tighter = np.nextafter(tol, 0.0)
            assert set_find_q(ladder, 1.0, [ds], [change], tighter)[0][:2] != (order, tol)

    def test_a_lone_move_is_a_set_of_one(self, c6_ladders):
        _, ladder, base = c6_ladders[1]
        opt = self.C6_OPTIONS[1]
        changes = self.changes(opt, base, self.C6_MOVES)
        together = set_find_q(ladder, 1.0, self.C6_MOVES, changes, 0.01)
        alone = [set_find_q(ladder, 1.0, [ds], [c], 0.01)[0]
                 for ds, c in zip(self.C6_MOVES, changes)]
        assert together == alone

    def test_live_ladder_with_a_time_term(self):
        # a nonzero d1 dt enters every sum of every move
        rng = np.random.default_rng(3)
        table = build_lookup_table(6)
        curve = np.cumsum(rng.uniform(0.0, 1.0, size=13)) ** 1.5
        ladder = dataclasses.replace(derivative_ladder(curve, table, 11, 7.3), d1=-2.5)
        moves = [-20.0, -3.3, 4.1, 15.0, 33.3]
        changes = rng.normal(size=len(moves)) * 10.0
        for tol in (1e-6, 0.05, 1.0):
            got = set_find_q(ladder, 0.1, moves, changes, tol)
            assert got == [scalar_find_q(ladder, 0.1, ds, c, tol)
                           for ds, c in zip(moves, changes)]

    def test_ladder_with_no_orders_is_refused(self):
        with pytest.raises(LadderOrderError):
            find_q(DerivativeLadder(d2=(), d1=0.0), 0.1, [10.0], [1.0], 0.01)


class TestBankTerm:
    def test_compounding_identity(self):
        sc = scenario(delta_t=1.0, r=0.05)
        deposit = bank_term((-10.0,), sc)
        assert deposit == pytest.approx(-10.0 / (math.exp(0.05) - 1.0), rel=1e-12)
        assert deposit == pytest.approx(-195.04, abs=0.01)
        # the deposit accrues to exactly the required sum
        assert deposit * (math.exp(0.05) - 1.0) == pytest.approx(-10.0, rel=1e-12)

    def test_zero_terms(self):
        assert bank_term((0.0, 0.0), scenario()) == 0.0

    def test_series_truncation(self):
        sc = scenario(delta_t=0.5, r=0.04)
        d1_terms = (-10.0, 3.0, -1.0)
        deposit = bank_term(d1_terms, sc)
        required = sum(
            d * 0.5**i / math.factorial(i) for i, d in enumerate(d1_terms, start=1)
        )
        assert deposit * (math.exp(0.04 * 0.5) - 1) == pytest.approx(required, rel=1e-12)

    def test_zero_rate(self):
        sc = scenario(r=0.0)
        with pytest.raises(ZeroRateError):
            bank_term((-10.0,), sc)


class TestHedgeLedger:
    def test_scenario_is_required(self):
        with pytest.raises(TypeError, match="scenario"):
            HedgeLedger(bank_cash=1.0, stock_units=0.5)

    def test_bank_and_stock_legs(self):
        sc = scenario()
        ledger = HedgeLedger(bank_cash=1.0, stock_units=0.5, scenario=sc)
        assert ledger.change_of_value(2.0) == pytest.approx(math.expm1(0.05 * 0.1) + 1.0)

    def test_every_fragment_is_marked_on_one_input(self):
        """An outcome reaches every fragment as that very object, whatever
        it holds, and the stock leg reads its moves; moves reach every
        fragment as moves."""

        class Recording:
            def __init__(self):
                self.seen = []

            def change_of_value(self, marked):
                self.seen.append(marked)
                return 0.0

        fragments = {2: Recording(), 3: Recording()}
        ledger = HedgeLedger(bank_cash=0.0, stock_units=1.0, scenario=scenario(),
                             term_positions=fragments)
        moves = np.array([2.0, -3.0])
        outcomes = ScenarioOutcome(moves, np.array([0.01]), np.array([0.02]), n_jumps=[1, 0])
        np.testing.assert_array_equal(ledger.change_of_value(outcomes), moves)
        np.testing.assert_array_equal(ledger.change_of_value(moves), moves)
        for fragment in fragments.values():
            assert fragment.seen[0] is outcomes and fragment.seen[1] is moves


    def test_swap_and_jump_baskets_share_a_ledger(self):
        """A ledger holding a moment-swap basket and a pja basket, marked on
        one scenario set, is its legs and the two baskets marked alone,
        added in the ledger's order, bit for bit."""
        sc = scenario(delta_t=0.004)
        model = LevyModel(jump_spec=CompoundPoisson(2.0, NormalJumps(0.0, 0.1)))
        spec = SwapSpec(order=2, delta_s=0.004, n=3, strike=0.04, unit_price=0.04)
        swap = moment_swap_basket(0.02, sc, spec, RealizedHistory(sums={2: 0.0}))
        pja = pja_basket_simple(3e-4, sc, 3, PathState(t=0.0), moment_vector(model, 6))
        ledger = HedgeLedger(bank_cash=-12.5, stock_units=0.6, scenario=sc,
                             term_positions={2: swap, 3: pja})
        rng = np.random.default_rng(38)
        counts = rng.integers(0, 3, 200)
        sizes = rng.normal(0.0, 0.1, counts.sum())
        moves = np.array([sc.s_t * x.sum() + rng.normal(0.0, 0.5)
                          for x in np.split(sizes, np.cumsum(counts)[:-1])])
        times = rng.uniform(0.0, sc.delta_t, counts.sum())
        outcomes = ScenarioOutcome(moves, times, sizes, n_jumps=counts)
        want = (ledger.bank_cash * bank_growth(sc.r, sc.delta_t) + ledger.stock_units * moves
                + swap.change_of_value(moves) + pja.change_of_value(outcomes))
        assert ledger.change_of_value(outcomes).tobytes() == want.tobytes()
        np.testing.assert_array_equal(swap.change_of_value(outcomes), swap.change_of_value(moves))


class TestAssembleLedger:
    def test_q1_is_extended_delta_hedge(self):
        ladder = DerivativeLadder(d2=(0.6, 0.01), d1=-5.0)
        sc = scenario()
        ledger = assemble_ledger(ladder, sc, 1)
        assert ledger.stock_units == 0.6
        assert not ledger.term_positions
        assert ledger.bank_cash == pytest.approx(
            -5.0 * 0.1 / (math.exp(0.05 * 0.1) - 1.0)
        )

    def test_q2_three_line_ledger(self):
        ladder = DerivativeLadder(d2=(0.6, 0.01), d1=-5.0)
        sc = scenario(delta_t=0.1)
        hist = RealizedHistory(sums={2: 0.01})

        def provider(i, c_i):
            spec = SwapSpec(order=i, delta_s=0.1, n=4, strike=0.04, unit_price=1.0)
            return moment_swap_basket(c_i, sc, spec, hist)

        ledger = assemble_ledger(ladder, sc, 2, provider)
        assert set(ledger.term_positions) == {2}
        basket = ledger.term_positions[2]
        assert basket.coefficient == pytest.approx(0.005)
        assert basket.swap_units != 0

    def test_missing_basket_names_order(self):
        ladder = DerivativeLadder(d2=(0.6, 0.01, 1e-4), d1=-5.0)
        with pytest.raises(IncompleteMarketError) as exc:
            assemble_ledger(ladder, scenario(), 3, lambda i, c: None)
        assert exc.value.order == 2

    def test_ledger_change_equals_taylor_sum_swaps(self):
        """Composition of exact identities: with swap baskets the realized
        ledger change IS the truncated Taylor sum."""
        rng = np.random.default_rng(33)
        for _ in range(20):
            q = int(rng.integers(2, 6))
            d2 = tuple(rng.uniform(-1, 1) / math.factorial(i) for i in range(1, q + 1))
            ladder = DerivativeLadder(d2=d2, d1=rng.uniform(-20, 0))
            sc = scenario(
                s_t=rng.uniform(50, 150),
                delta_t=rng.uniform(0.02, 0.3),
                r=rng.uniform(0.01, 0.1),
            )
            hist = RealizedHistory(
                sums={k: rng.uniform(0, 0.3**k) for k in range(2, q + 1)}
            )

            def provider(i, c_i):
                spec = SwapSpec(
                    order=i, delta_s=sc.delta_t, n=5,
                    strike=rng.uniform(0, 0.3**i), unit_price=rng.uniform(0.1, 1.0) * 0.3**i,
                )
                return moment_swap_basket(c_i, sc, spec, hist)

            ledger = assemble_ledger(ladder, sc, q, provider)
            ds = rng.uniform(0.05, 0.25) * sc.s_t * rng.choice([-1, 1])
            want = taylor_sums(ladder, sc.delta_t, ds, q)[q]
            got = ledger.change_of_value(ds)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_ledger_change_equals_taylor_sum_pja(self):
        """Same composition with power-jump baskets under the one-jump regime."""
        model = LevyModel(jump_spec=CompoundPoisson(2.0, NormalJumps(0.0, 0.1)))
        moments = moment_vector(model, 8)
        rng = np.random.default_rng(34)
        for _ in range(20):
            q = int(rng.integers(2, 5))
            d2 = tuple(rng.uniform(-1, 1) / math.factorial(i) for i in range(1, q + 1))
            ladder = DerivativeLadder(d2=d2, d1=rng.uniform(-20, 0))
            sc = scenario(
                s_t=rng.uniform(50, 150),
                delta_t=rng.uniform(0.001, 0.01),
                r=rng.uniform(0.02, 0.1),
            )
            state = PathState(t=0.0)

            def provider(i, c_i):
                return pja_basket_simple(c_i, sc, i, state, moments)

            ledger = assemble_ledger(ladder, sc, q, provider)
            x = rng.uniform(0.05, 0.3) * rng.choice([-1, 1])
            ds = sc.s_t * x
            outcome = ScenarioOutcome(
                delta_s=ds,
                jump_times=np.array([sc.delta_t / 2]),
                jump_sizes=np.array([x]),
            )
            want = taylor_sums(ladder, sc.delta_t, ds, q)[q]
            got = ledger.change_of_value(outcome)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
