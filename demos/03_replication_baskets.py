# %%
# Exact replication of Taylor terms: a static basket whose change of value
# is C_i (dS)^i for any realized move.
#
# Moment swaps work for every move; power-jump assets need their one-jump
# regime, and the power-jump-integral basket handles any jump count.

import numpy as np

from levyhedge import (
    CompoundPoisson,
    HedgeScenario,
    LevyModel,
    NormalJumps,
    PathState,
    RealizedHistory,
    ScenarioOutcome,
    SwapSpec,
    moment_swap_basket,
    moment_vector,
    pja_basket_general,
    pji_basket,
    replication_report,
)

scenario = HedgeScenario(s_t=100.0, delta_s=8.0, delta_t=0.02, r=0.05)

# %%
# A third-moment swap basket: change of value == C3 * (dS)^3 exactly.
spec = SwapSpec(order=3, delta_s=0.02, n=5, strike=1e-3, unit_price=2e-3)
history = RealizedHistory(sums={3: 4e-4})
basket = moment_swap_basket(0.25, scenario, spec, history)
for ds in (-12.0, -3.0, 5.0, 8.0):
    print(f"dS={ds:+6.1f}: basket change {basket.change_of_value(ds):+10.4f}   "
          f"C3 dS^3 = {0.25 * ds**3:+10.4f}")

# %%
# Power-jump-asset basket under the one-jump regime.
model = LevyModel(jump_spec=CompoundPoisson(2.0, NormalJumps(0.0, 0.06)))
moments = moment_vector(model, 8)
pja = pja_basket_general(0.25, scenario, 3, PathState(t=0.0), moments)
jump = 0.08
outcome = ScenarioOutcome(delta_s=100.0 * jump,
                          jump_times=np.array([0.01]), jump_sizes=np.array([jump]))
print("\none jump of 8%:", replication_report(pja, outcome))

two = ScenarioOutcome(delta_s=100.0 * ((1.08) * (1.03) - 1),
                      jump_times=np.array([0.005, 0.015]),
                      jump_sizes=np.array([0.08, 0.03]))
print("two jumps (regime violated, error quantified):", replication_report(pja, two))

# %%
# The power-jump-integral basket replicates exactly whatever the jump count.
pji = pji_basket(0.25, scenario, 3, moments)
for sizes in ([], [0.08], [0.08, 0.03], [0.05, -0.04, 0.07]):
    sizes = np.array(sizes)
    times = np.linspace(0.004, 0.016, len(sizes))
    dx = sizes.sum()
    out = ScenarioOutcome(delta_s=100.0 * dx, jump_times=times, jump_sizes=sizes)
    print(f"{len(sizes)} jumps: change {pji.change_of_value(out):+.6f}   "
          f"target {0.25 * (100 * dx) ** 3:+.6f}")
