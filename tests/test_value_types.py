"""Every value type rejects a field outside its range, NaN included: a range
check reads ``not x > 0``, and a field without a range must be finite."""

import math

import pytest

from levyhedge.models import CompoundPoisson, FixedJumps, LevyModel, NormalJumps, VarianceGamma
from levyhedge.pricing import OptionSpec
from levyhedge.swaps import SwapSpec
from levyhedge.taylor import HedgeScenario

NAN, INF = math.nan, math.inf

VALID = {
    OptionSpec: dict(kind="up_and_out", strike=100.0, maturity=1.0, barrier=120.0),
    HedgeScenario: dict(s_t=100.0, delta_s=5.0, delta_t=0.01, r=0.05, alpha_tol=0.01),
    LevyModel: dict(drift_b=0.05, brownian_sigma=0.2),
    CompoundPoisson: dict(intensity=2.0),
    VarianceGamma: dict(theta=-0.1, nu=0.2, sigma=0.2),
    NormalJumps: dict(mean=0.0, std=0.1),
    FixedJumps: dict(size=-0.5),
    SwapSpec: dict(order=2, delta_s=0.01, n=3, strike=0.04, unit_price=0.01, notional=1.0),
}

# (type, field, bad value, the message it raises)
CASES = [
    (OptionSpec, "strike", NAN, "strike and maturity must be > 0"),
    (OptionSpec, "maturity", NAN, "strike and maturity must be > 0"),
    (OptionSpec, "barrier", NAN, "needs a positive barrier"),
    (HedgeScenario, "s_t", NAN, "spot must stay positive"),
    (HedgeScenario, "delta_s", NAN, "delta_s and r must be finite"),
    (HedgeScenario, "delta_s", INF, "delta_s and r must be finite"),
    (HedgeScenario, "delta_t", NAN, "delta_t must be > 0"),
    (HedgeScenario, "r", NAN, "delta_s and r must be finite"),
    (HedgeScenario, "r", -INF, "delta_s and r must be finite"),
    (HedgeScenario, "alpha_tol", NAN, "alpha_tol must be > 0"),
    (LevyModel, "drift_b", NAN, "drift_b must be finite"),
    (LevyModel, "drift_b", INF, "drift_b must be finite"),
    (LevyModel, "brownian_sigma", NAN, "brownian_sigma must be >= 0"),
    (CompoundPoisson, "intensity", NAN, "intensity must be > 0"),
    (VarianceGamma, "theta", NAN, "theta must be finite"),
    (VarianceGamma, "nu", NAN, "nu must be > 0"),
    (VarianceGamma, "sigma", NAN, "sigma must be >= 0"),
    (VarianceGamma, "truncation_eps", NAN, "truncation_eps must be > 0"),
    (NormalJumps, "mean", NAN, "jump mean must be finite"),
    (NormalJumps, "std", NAN, "jump std must be >= 0"),
    (NormalJumps, "std", -0.1, "jump std must be >= 0"),
    (FixedJumps, "size", NAN, "jump size must be finite"),
    (FixedJumps, "size", -INF, "jump size must be finite"),
    (SwapSpec, "delta_s", NAN, "sampling spacing must be > 0"),
    (SwapSpec, "strike", NAN, "strike and unit price must be finite"),
    (SwapSpec, "unit_price", INF, "strike and unit price must be finite"),
    (SwapSpec, "notional", NAN, "notional must be > 0"),
]


@pytest.mark.parametrize("cls, field, value, message", CASES,
                         ids=[f"{c.__name__}.{f}={v}" for c, f, v, _ in CASES])
def test_value_types_reject_fields_out_of_range(cls, field, value, message):
    cls(**VALID[cls])
    with pytest.raises(ValueError, match=message):
        cls(**dict(VALID[cls], **{field: value}))
