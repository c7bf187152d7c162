# %%
# Monte Carlo pricing with common random numbers and the derivative ladder.
#
# One matrix of per-step factors prices every spot level, so a whole grid
# of prices shares the same draws; differencing that grid with a stencil
# gives spot derivatives of any order.

import math

import numpy as np

from levyhedge import (
    CompoundPoisson,
    LevyModel,
    NormalJumps,
    OptionSpec,
    build_lookup_table,
    derivative_ladder,
    price_curve,
)

# %%
# Black-Scholes at S = K = 100, T = 1, r = 0.05, sigma = 0.2: the normal law
# N(x) = erfc(-x / sqrt 2) / 2 and its density.
def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


d1 = (0.05 + 0.5 * 0.2**2) / 0.2  # log(S/K) = 0
bs_price = 100.0 * normal_cdf(d1) - 100.0 * math.exp(-0.05) * normal_cdf(d1 - 0.2)
bs_delta = normal_cdf(d1)
bs_gamma = math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi) / (100.0 * 0.2)

# %%
# Pure-Brownian sanity: the MC price straddles Black-Scholes.  A lone spot
# is priced as a price curve of one.
model = LevyModel(drift_b=0.05, brownian_sigma=0.2)
call = OptionSpec(kind="european_call", strike=100.0, maturity=1.0)
(price,), (se,) = price_curve(model, call, [100.0], r=0.05, n_paths=200_000, seed=1,
                              antithetic=True)
print(f"MC {price:.4f} +/- {se:.4f}   closed form {bs_price:.4f}")

# %%
# Delta and gamma from the common-random-number curve.
table = build_lookup_table(2)
grid = 100.0 + 2.0 * np.arange(-2, 3)
curve, _ = price_curve(model, call, grid, r=0.05, n_paths=500_000, seed=1, antithetic=True)
ladder = derivative_ladder(curve, table, 2, 2.0)
print(f"delta {ladder.derivative(1):.5f}  vs  {bs_delta:.5f}")
print(f"gamma {ladder.derivative(2):.6f}  vs  {bs_gamma:.6f}")

# %%
# Jumps and barriers: in + out = European on the same paths.
jumpy = LevyModel(drift_b=0.05, brownian_sigma=0.15,
                  jump_spec=CompoundPoisson(3.0, NormalJumps(-0.02, 0.05)))
uo = OptionSpec(kind="up_and_out", strike=100.0, maturity=0.5, barrier=115.0)
ui = OptionSpec(kind="up_and_in", strike=100.0, maturity=0.5, barrier=115.0)
eur = OptionSpec(kind="european_call", strike=100.0, maturity=0.5)
from levyhedge import PathBundle, relative_factors

bundle = PathBundle(relative_factors(jumpy, 0.5 / 26, 26, 100_000, np.random.default_rng(2)), 0.5)
v_uo, _ = bundle.price(uo, 100.0, 0.05)
v_ui, _ = bundle.price(ui, 100.0, 0.05)
v_eu, _ = bundle.price(eur, 100.0, 0.05)
print(f"up-and-out {v_uo:.4f} + up-and-in {v_ui:.4f} = {v_uo + v_ui:.4f} "
      f"(european {v_eu:.4f})")
