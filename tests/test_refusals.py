"""Each library refusal of a bad argument, called directly: its error type
and the message it names the argument with."""

import numpy as np
import pytest

from levyhedge.errors import InsufficientNodesError, LadderOrderError, UnsupportedOrderError
from levyhedge.jump_baskets import PathState, ScenarioOutcome, pja_basket_general
from levyhedge.models import (
    CompoundPoisson,
    FixedJumps,
    LevyModel,
    MomentVector,
    NormalJumps,
    VarianceGamma,
    one_jump_increments,
    relative_factors,
)
from levyhedge.neutral import solve_neutrality
from levyhedge.pricing import DerivativeLadder, OptionSpec, price_curve
from levyhedge.stencil import build_lookup_table, stencil_coefficient
from levyhedge.swaps import RealizedHistory, SwapSpec, variance_swap_basket
from levyhedge.taylor import HedgeScenario, assemble_ledger, taylor_sums

SCENARIO = HedgeScenario(s_t=100.0, delta_s=1.0, delta_t=0.05, r=0.05)
MOMENTS = MomentVector(m=(0.01, 0.002, 0.0004))
CP = LevyModel(jump_spec=CompoundPoisson(2.0, NormalJumps(0.01, 0.05)))
LADDER = DerivativeLadder(d2=(0.5, 0.02, 0.001), d1=0.0)
CALL = OptionSpec(kind="european_call", strike=100.0, maturity=1.0)


REFUSALS = {
    "outcome-n-jumps": (lambda: ScenarioOutcome(1.0, [0.01], [0.02], n_jumps=2),
                        ValueError, r"one scenario lists 1 jumps, not n_jumps = 2"),
    "pja-order-below-2": (lambda: pja_basket_general(1.0, SCENARIO, 1, PathState(t=0.0), MOMENTS),
                          UnsupportedOrderError, r"PJA basket needs order >= 2, got 1"),
    "normal-moment-negative": (lambda: NormalJumps(0.0, 0.1).moment(-1),
                               UnsupportedOrderError, r"moment order must be >= 0, got -1"),
    "fixed-moment-negative": (lambda: FixedJumps(0.05).moment(-1),
                              UnsupportedOrderError, r"moment order must be >= 0, got -1"),
    "moment-vector-beyond-order": (lambda: MOMENTS[4], UnsupportedOrderError,
                                   r"moment m_4 not available \(have 1\.\.3\)"),
    "factors-no-steps": (lambda: relative_factors(CP, 0.1, 0, 10, np.random.default_rng(0)),
                         ValueError, r"need steps >= 1 and n_paths >= 1"),
    "factors-no-paths": (lambda: relative_factors(CP, 0.1, 1, 0, np.random.default_rng(0)),
                         ValueError, r"need steps >= 1 and n_paths >= 1"),
    "one-jump-not-compound-poisson": (
        lambda: one_jump_increments(LevyModel(jump_spec=VarianceGamma(-0.1, 0.2, 0.1)), 0.01, 10,
                                    np.random.default_rng(0)),
        ValueError, r"one-jump regime sampling needs a compound-Poisson model"),
    "one-jump-intensity-too-high": (
        lambda: one_jump_increments(CP, 0.5, 10, np.random.default_rng(0)),
        ValueError, r"intensity\*dt = 1 is not a one-jump regime"),
    "neutrality-instrument-count": (lambda: solve_neutrality([1.0, 2.0], [[1.0, 0.0]]),
                                    ValueError, r"need 2 instruments with ladders to order 2"),
    "price-curve-no-steps": (lambda: price_curve(CP, CALL, [100.0], 0.05, n_paths=1000, steps=0),
                             ValueError, r"need steps >= 1"),
    "ladder-derivative-0": (lambda: LADDER.derivative(0), LadderOrderError,
                            r"ladder carries orders 1\.\.3, asked 0"),
    "ladder-derivative-4": (lambda: LADDER.derivative(4), LadderOrderError,
                            r"ladder carries orders 1\.\.3, asked 4"),
    "coefficient-offset-above": (lambda: stencil_coefficient(1, 3, 4), ValueError,
                                 r"offset k=4 outside \[-3, 3\]"),
    "coefficient-offset-below": (lambda: stencil_coefficient(1, 3, -4), ValueError,
                                 r"offset k=-4 outside \[-3, 3\]"),
    "table-row-beyond-p-max": (lambda: build_lookup_table(3).row(6), LadderOrderError,
                               r"order p=6 outside table range 1\.\.5"),
    "table-half-width-0": (lambda: build_lookup_table(0), ValueError,
                           r"half_width must be >= 1"),
    "table-p-max-2n": (lambda: build_lookup_table(3, 6), InsufficientNodesError,
                       r"p_max=6 outside 1\.\.5 for half_width 3"),
    "swap-order-below-2": (lambda: SwapSpec(order=1, delta_s=0.01, n=4, strike=0.0,
                                            unit_price=1.0),
                           ValueError, r"swap order must be >= 2, got 1"),
    "swap-too-few-points": (lambda: SwapSpec(order=2, delta_s=0.01, n=2, strike=0.0,
                                             unit_price=1.0),
                            ValueError, r"need at least 3 sampling points"),
    "history-missing-order": (lambda: RealizedHistory(sums={2: 0.1}).power_sum(3), KeyError,
                              r"history carries no order-3 power sum"),
    "variance-basket-order-3": (
        lambda: variance_swap_basket(1.0, SCENARIO, SwapSpec(3, 0.01, 4, 0.0, 1.0),
                                     RealizedHistory(sums={3: 0.0})),
        ValueError, r"variance swap basket needs order 2, got 3"),
    "taylor-sums-beyond-ladder": (lambda: taylor_sums(LADDER, 0.05, 1.0, 4), LadderOrderError,
                                  r"ladder carries orders 1\.\.3, asked 4"),
    "ledger-q-beyond-ladder": (lambda: assemble_ledger(LADDER, SCENARIO, 4), ValueError,
                               r"q=4 outside ladder range 0\.\.3"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()
