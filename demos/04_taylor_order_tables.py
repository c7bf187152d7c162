# %%
# How many Taylor terms does a tolerance demand?  The batch harness builds
# the q-versus-move table and the term-by-term convergence report; the
# same runs are available from the command line (levyhedge qtable /
# converge / pnl).

from levyhedge.config import load_config
from levyhedge.harness import run_converge, run_qtable

# %%
# q per move size for a 5000-strike book, tolerance 0.01, tick-size grid.
qtable_cfg = load_config({
    "model": {"kind": "compound_poisson", "drift_b": 0.03, "brownian_sigma": 0.12,
              "intensity": 5.0, "jump_law": {"kind": "normal", "mean": -0.01, "std": 0.04}},
    "options": [
        {"kind": "european_call", "strike": 5000, "maturity": 1.0},
        {"kind": "up_and_out", "strike": 5000, "maturity": 1.0, "barrier": 5050},
    ],
    "scenario": {"s0": 5000, "delta_s": [10, 20, 30, 40, 50, 60, 70],
                 "delta_t": 1.0, "r": 0.05, "alpha_tol": 0.01},
    "mc": {"paths": 100000, "steps": 1, "seed": 7},
    "stencil": {"half_width": 20, "p_max": 39, "s_step": 10.0},
})
header, rows, ok = run_qtable(qtable_cfg)
print(",".join(header))
for row in rows:
    print(row[0], int(row[1]), "q =", row[2], f"(reference {row[4]})")

# %%
# Term-by-term convergence for a one-year at-the-money index call under
# fitted variance-gamma dynamics: twelve terms pin the realized change.
ftse_cfg = load_config({
    "model": {"kind": "variance_gamma", "theta": -0.2721, "nu": 0.3032,
              "vg_sigma": 0.0302, "drift_b": "risk_neutral"},
    "option": {"kind": "european_call", "strike": 6287, "maturity": 1.0},
    "scenario": {"s0": 6287, "delta_s": [61.5], "delta_t": 1.0,
                 "r": 0.0543, "dividend": 0.0351, "alpha_tol": 0.01},
    "mc": {"paths": 100000, "steps": 1, "seed": 11},
    "stencil": {"half_width": 8, "p_max": 15, "s_step": 61.5},
})
header, rows = run_converge(ftse_cfg)
print(f"\nMC price {rows[0][4]:.3f} +/- {rows[0][5]:.3f}; "
      f"exact change {rows[0][3]:.3f}")
for term, d2, cum, exact, *_ in rows:
    print(f"  term {term:2d}: D2 = {d2:+.4e}   cumulative {cum:9.3f}")
