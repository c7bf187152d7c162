# %%
# Minimal-variance hedging of the higher Taylor terms when swaps and
# power-jump assets are not traded: project the jump risk onto the stock
# (and optionally one variance swap) and compare with the empirical
# least-squares weight.

import numpy as np

from levyhedge import (
    CompoundPoisson,
    FixedJumps,
    LevyModel,
    NormalJumps,
    RealizedHistory,
    SwapSpec,
    moment_vector,
    mvp_bank_stock,
    mvp_with_varswap,
)
from levyhedge.models import one_jump_increments

s0, dt, r = 100.0, 2e-4, 0.05

# %%
# Bank + stock only.
model = LevyModel(drift_b=0.03, brownian_sigma=0.1,
                  jump_spec=CompoundPoisson(100.0, NormalJumps(0.08, 0.008)))
moments = moment_vector(model, 5)
coeffs = {2: 0.005, 3: 2e-4}
weights = mvp_bank_stock(coeffs, s0, moments, dt, r)
print(f"analytic stock weight {weights.stock_units:.6f}, bank {weights.bank_cash:.4f}")

rng = np.random.default_rng(0)
ds = s0 * one_jump_increments(model, dt, 100_000, rng)
target = sum(c * ds**i for i, c in coeffs.items())
x, y = ds - ds.mean(), target - target.mean()
print(f"empirical minimizer    {float((x * y).mean() / (x * x).mean()):.6f}")

# %%
# Bank + variance swap (stock weight zero): single-magnitude jump risk,
# where the printed weights are the exact projection.
model2 = LevyModel(drift_b=0.03, brownian_sigma=0.18,
                   jump_spec=CompoundPoisson(5.0, FixedJumps(0.08)))
moments2 = moment_vector(model2, 6)
spec = SwapSpec(order=2, delta_s=dt, n=3, strike=0.04 * 0.08**2, unit_price=0.08**2)
mv = mvp_with_varswap({3: 2e-4, 4: 1e-5}, s0, moments2, dt, r, spec,
                      RealizedHistory(sums={2: 0.0}))
print(f"\nanalytic swap units {mv.swap.swap_units:.6f} (stock leg {mv.stock_units})")

ds2 = s0 * one_jump_increments(model2, dt, 100_000, np.random.default_rng(0))
target3 = sum(c * ds2**i for i, c in {3: 2e-4, 4: 1e-5}.items())
swap_leg = (ds2 / s0) ** 2 / spec.annualizer
a = np.column_stack([ds2 - ds2.mean(), swap_leg - swap_leg.mean()])
coef, *_ = np.linalg.lstsq(a, target3 - target3.mean(), rcond=None)
print(f"empirical (stock, swap) = ({coef[0]:.4f}, {coef[1]:.6f})")
