"""The benchmark's workloads: seeded inputs, operations and output checks.

An operation is one call into the program: a ``levyhedge.cli.main``
command for the CLI workloads, the whole hedge ladder (every basket of
orders 2..MAX_ORDER) built and marked for ``baskets_exact``.  Each
workload hands out whole rounds of operations that cost the same amount
of work whatever the seed.

Checks against Monte Carlo error (4 standard errors) would fail now and
then on a fresh sample, so ``pnl_repricing`` draws one Monte Carlo seed
per run from ``--seed`` and repeats it every round: a seed passes in every
round or fails in every round.  ``qtable_cold`` and
``baskets_exact`` have exact checks and draw fresh inputs each round.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from levyhedge import chaos, cli, jump_baskets, swaps
from levyhedge.models import CompoundPoisson, LevyModel, NormalJumps, moment_vector
from levyhedge.taylor import HedgeScenario

Z_LIMIT = 4.0

# Acceptance criterion 6: q versus move size on a jump-diffusion.
QTABLE_CONFIG = {
    "model": {"kind": "compound_poisson", "drift_b": 0.03, "brownian_sigma": 0.12,
              "intensity": 5.0, "jump_law": {"kind": "normal", "mean": -0.01, "std": 0.04}},
    "options": [
        {"kind": "european_call", "strike": 5000, "maturity": 1.0},
        {"kind": "up_and_out", "strike": 5000, "maturity": 1.0, "barrier": 5050},
        {"kind": "up_and_in", "strike": 5000, "maturity": 1.0, "barrier": 5050},
        {"kind": "down_and_out", "strike": 5000, "maturity": 1.0, "barrier": 4950},
    ],
    "scenario": {"s0": 5000, "delta_s": [10, 20, 30, 40, 50, 60, 70], "delta_t": 1.0,
                 "r": 0.05, "alpha_tol": 0.01},
    "mc": {"paths": 100000, "steps": 1},
    "stencil": {"half_width": 20, "p_max": 39, "s_step": 10.0},
}

PNL_STRATEGIES = ["taylor+swaps", "taylor+pja", "minvar", "minvar+varswap", "delta",
                  "moment-neutral"]
PNL_CONFIG = {
    "model": {"kind": "compound_poisson", "drift_b": 0.03, "brownian_sigma": 0.12,
              "intensity": 50.0, "jump_law": {"kind": "normal", "mean": -0.005, "std": 0.02}},
    "option": {"kind": "european_call", "strike": 5000, "maturity": 0.25},
    "scenario": {"s0": 5000, "delta_s": [10.0], "delta_t": 0.01, "r": 0.05, "alpha_tol": 0.01},
    "mc": {"paths": 50000, "steps": 5},
    "stencil": {"half_width": 4, "p_max": 7, "s_step": 10.0},
    "strategies": PNL_STRATEGIES,
    "pnl": {"n_scenarios": 200, "q": 4, "swap": {"strike": 0.002, "unit_price": 0.002},
            "neutral_strikes": [4900, 5100]},
}
# Light-tailed enough over one period (kurtosis 6) that 200 scenarios tell
# a zero sample variance from the model's at more than 6 standard errors.
PNL_VG = {"theta": -0.05, "nu": 0.01, "vg_sigma": 0.2}
PNL_VG_MODEL = {"kind": "variance_gamma", **PNL_VG, "drift_b": "risk_neutral"}
# The variance-gamma P&L operation fails every time (its scenarios carry no
# jump risk), so its inputs are fixed rather than drawn from the seed.
PNL_VG_SEED = 20080131

# baskets_exact: sigma = 0 compound-Poisson jumps, one hedging period.
BASKET_ORDERS = range(2, chaos.MAX_ORDER + 1)
BASKET_JUMP_COUNTS = (0, 1, 2, 3)       # outcomes per round for pji and swap marks
PJA_JUMP_COUNTS = (0, 1, 1, 1)          # the one-jump regime of pja_basket_general
BASKET_S, BASKET_DT, BASKET_R, BASKET_DRIFT = 100.0, 0.05, 0.05, 0.03
BASKET_JUMPS = (20.0, -0.01, 0.05)      # intensity, jump mean, jump std
PAST_RETURN_SD = 0.03                   # sd of the realized returns before the swap's last period
# A mark may differ from C_i dS^i by this share of the basket's largest leg;
# the largest error seen is about 4e-14.  A mark whose tolerance reaches
# |C_i dS^i| (a mark of 0 would pass) is counted as unchecked.
BASKET_REL_TOL = 1e-12


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Check:
    """Failures of one operation, each tagged with the check that failed."""

    def __init__(self):
        self.failures: list[tuple[str, str]] = []

    def require(self, ok: bool, name: str, message: str) -> None:
        if not ok:
            self.failures.append((name, message))


class Operation:
    """One timed call; ``prepare`` and ``check`` run outside the timing."""

    kind = "op"
    # Name of the check this operation fails because of a known fault.
    known_fault: str | None = None
    # Outputs whose check is too loose to fail, counted by ``check``.
    unchecked = 0

    def prepare(self) -> None:
        pass

    def run(self):
        raise NotImplementedError

    def check(self, returned, chk: Check) -> int:
        """Record failures in ``chk``; return the output rows produced."""
        raise NotImplementedError


class CliOperation(Operation):
    """``levyhedge <command> --config <generated> --out <csv>``."""

    def __init__(self, kind, command, config, workdir: Path, checker):
        self.kind = kind
        self.command = command
        self.config = config
        self.config_path = workdir / f"{kind.replace(':', '-')}.json"
        self.out_path = workdir / f"{kind.replace(':', '-')}.csv"
        self.checker = checker
        self.rows = None

    def prepare(self) -> None:
        for stale in (self.out_path, Path(str(self.out_path) + ".summary")):
            stale.unlink(missing_ok=True)
        self.config_path.write_text(json.dumps(self.config))

    def run(self):
        argv = [self.command, "--config", str(self.config_path), "--out", str(self.out_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, returned, chk: Check) -> int:
        chk.require(returned == 0, "exit_code", f"exit code {returned}")
        if not self.out_path.exists():
            chk.require(False, "output", f"{self.out_path.name} not written")
            return 0
        self.rows = _read_csv(self.out_path)
        return len(self.rows) + self.checker(self, chk)


# ---------------------------------------------------------------------------
# qtable_cold
# ---------------------------------------------------------------------------


class QTableCold:
    """``qtable`` on the criterion-6 config without a table file, so every
    operation builds the N=20 stencil table."""

    name = "qtable_cold"
    clock = "python"   # the stencil build is interpreter-bound

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def next_round(self):
        cfg = copy.deepcopy(QTABLE_CONFIG)
        cfg["mc"]["seed"] = int(self.rng.integers(1, 2**31))
        return [CliOperation("qtable", "qtable", cfg, self.workdir, self._check)]

    @staticmethod
    def _check(op, chk: Check) -> int:
        alpha = QTABLE_CONFIG["scenario"]["alpha_tol"]
        moves = QTABLE_CONFIG["scenario"]["delta_s"]
        kinds = [o["kind"] for o in QTABLE_CONFIG["options"]]
        chk.require(len(op.rows) == len(moves) * len(kinds), "rows", f"{len(op.rows)} rows")
        q: dict[str, dict[float, int]] = {k: {} for k in kinds}
        for row in op.rows:
            where = f"{row['option']} dS={row['delta_s']}"
            met = row["q"] != "" and float(row["achieved_error"]) <= alpha
            chk.require(met, "alpha_tol", f"{where}: error {row['achieved_error']} q={row['q']!r}")
            if row["q"] != "":
                q.setdefault(row["option"], {})[float(row["delta_s"])] = int(row["q"])
        for kind, by_move in q.items():
            series = [by_move.get(float(m)) for m in moves]
            if None in series:
                continue
            chk.require(series == sorted(series), "q_monotone", f"{kind}: q {series}")
        euro = q.get("european_call", {})
        for kind in kinds[1:]:
            for move in moves:
                qb, qe = q.get(kind, {}).get(float(move)), euro.get(float(move))
                if qb is not None and qe is not None:
                    chk.require(qb >= qe, "barrier_q", f"{kind} dS={move}: q {qb} < european {qe}")
        q10, q70 = euro.get(10.0), euro.get(70.0)
        chk.require(q10 is not None and 4 <= q10 <= 14, "q_band", f"european q(10) = {q10}")
        chk.require(q70 is not None and 25 <= q70 <= 50, "q_band", f"european q(70) = {q70}")
        return 0


# ---------------------------------------------------------------------------
# pnl_repricing
# ---------------------------------------------------------------------------


class PnlRepricing:
    """``pnl`` with all six strategies on a short-dated call; a
    compound-Poisson and a variance-gamma operation per round."""

    name = "pnl_repricing"
    clock = "numpy"    # repricing is array work on the Monte Carlo paths

    def __init__(self, seed: int, workdir: Path):
        self.mc_seed = int(np.random.default_rng(seed).integers(1, 2**31))
        self.workdir = workdir
        scen = PNL_CONFIG["scenario"]
        s0, dt, r = scen["s0"], scen["delta_t"], scen["r"]
        cp = PNL_CONFIG["model"]
        law = cp["jump_law"]
        self.cp_moments = oracles.move_moments(s0, oracles.cp_factor_moments(
            cp["drift_b"], cp["brownian_sigma"], cp["intensity"], law["mean"], law["std"], dt))
        vg_b = oracles.vg_risk_neutral_drift(r, 0.0, PNL_VG["theta"], PNL_VG["nu"],
                                             PNL_VG["vg_sigma"])
        self.vg_moments = oracles.move_moments(s0, oracles.vg_factor_moments(
            vg_b, PNL_VG["theta"], PNL_VG["nu"], PNL_VG["vg_sigma"], dt))

    def next_round(self):
        cp_cfg = copy.deepcopy(PNL_CONFIG)
        cp_cfg["mc"]["seed"] = self.mc_seed
        vg_cfg = copy.deepcopy(PNL_CONFIG)
        vg_cfg["model"] = dict(PNL_VG_MODEL)
        vg_cfg["mc"]["seed"] = PNL_VG_SEED
        cp = CliOperation("pnl:compound_poisson", "pnl", cp_cfg, self.workdir,
                          lambda op, chk: self._check(op, chk, self.cp_moments))
        vg = CliOperation("pnl:variance_gamma", "pnl", vg_cfg, self.workdir,
                          lambda op, chk: self._check(op, chk, self.vg_moments))
        # harness._simulate_outcomes draws jumps only for models with an
        # ``intensity``, so variance-gamma scenarios all share one move.
        vg.known_fault = "scenario_variance"
        return [cp, vg]

    @staticmethod
    def _check(op, chk: Check, moments) -> int:
        n_scen = PNL_CONFIG["pnl"]["n_scenarios"]
        by_strategy: dict[str, list[dict]] = {}
        for row in op.rows:
            by_strategy.setdefault(row["strategy"], []).append(row)
        chk.require(sorted(by_strategy) == sorted(PNL_STRATEGIES), "rows",
                    f"strategies {sorted(by_strategy)}")
        chk.require(all(len(v) == n_scen for v in by_strategy.values()), "rows",
                    "scenario count per strategy")
        summary_path = Path(str(op.out_path) + ".summary")
        summary = {row["strategy"]: row for row in _read_csv(summary_path)} \
            if summary_path.exists() else {}
        chk.require(sorted(summary) == sorted(PNL_STRATEGIES), "summary", "summary rows")
        if not all(s in by_strategy for s in PNL_STRATEGIES) or chk.failures:
            return len(summary)

        delta_rows = by_strategy["delta"]
        ds = [float(r["delta_s"]) for r in delta_rows]
        jumps = [int(r["n_jumps"]) for r in delta_rows]
        for name in PNL_STRATEGIES:
            same = [float(r["delta_s"]) for r in by_strategy[name]] == ds
            chk.require(same, "scenarios", f"{name} sees other scenario moves")

        z_mean, z_var, mean, var = oracles.moment_z_scores(ds, *moments)
        chk.require(abs(z_mean) <= Z_LIMIT, "scenario_mean",
                    f"mean dS {mean:.6g} vs {moments[0]:.6g} (z = {z_mean:.3g})")
        chk.require(abs(z_var) <= Z_LIMIT, "scenario_variance",
                    f"variance of dS {var:.6g} vs {moments[1]:.6g} (z = {z_var:.3g})")

        for name in PNL_STRATEGIES:
            res = np.array([float(r["residual"]) for r in by_strategy[name]])
            row = summary[name]
            scale = 1e-9 * (float(np.abs(res).max()) + 1e-300)
            mean_ok = abs(float(row["mean"]) - res.mean()) <= scale
            sd_ok = abs(float(row["sd"]) - res.std(ddof=1)) <= scale
            chk.require(mean_ok and sd_ok, "summary",
                        f"{name}: summary {row['mean']}/{row['sd']} vs rows "
                        f"{res.mean():.12g}/{res.std(ddof=1):.12g}")
        multi = sum(j > 1 for j in jumps)
        reported = int(summary["taylor+pja"]["regime_violations"])
        chk.require(reported == multi, "regime_violations",
                    f"taylor+pja reports {reported}, scenarios with >1 jump {multi}")

        # hedge(taylor+swaps) - hedge(delta) = sum_{i=2..q} C_i dS^i exactly
        q = PNL_CONFIG["pnl"]["q"]
        res_delta = np.array([float(r["residual"]) for r in delta_rows])
        res_swaps = np.array([float(r["residual"]) for r in by_strategy["taylor+swaps"]])
        diff = res_delta - res_swaps
        x = np.array(ds) / max(abs(v) for v in ds)
        basis = np.column_stack([x**i for i in range(2, q + 1)])
        coef, *_ = np.linalg.lstsq(basis, diff, rcond=None)
        misfit = float(np.abs(basis @ coef - diff).max())
        tol = 1e-9 * float(max(np.abs(res_delta).max(), np.abs(res_swaps).max()))
        chk.require(misfit <= tol, "swaps_minus_delta",
                    f"taylor+swaps minus delta leaves {misfit:.3g} off a degree 2..{q} "
                    f"polynomial (tolerance {tol:.3g})")
        return len(summary)


# ---------------------------------------------------------------------------
# baskets_exact
# ---------------------------------------------------------------------------


@dataclass
class BasketSpec:
    """One basket to build: constructor, its arguments, outcomes to mark."""

    module: object
    name: str
    order: int
    args: tuple
    outcomes: list
    marks_by_move: bool = False   # swap baskets are marked by the move alone

    @property
    def coefficient(self) -> float:
        return self.args[0]

    def build(self):
        # resolved at call time, so a traced constructor is the one called
        return getattr(self.module, self.name)(*self.args)


class BasketOperation(Operation):
    """Build the whole hedge ladder, orders 2..MAX_ORDER, and mark every
    basket against its outcomes.

    One basket per operation would put the median operation among
    sub-millisecond swap marks, and one order per operation on the order-7
    baskets (50 ms); both read a shared machine's CPU-speed swings far more than
    the order-11 and order-12 marks that carry the work."""

    kind = "baskets:ladder"

    def __init__(self, baskets):
        self.baskets = baskets
        self.unchecked = 0

    def run(self):
        out = []
        for spec in self.baskets:
            basket = spec.build()
            if spec.marks_by_move:
                out.append((basket, [basket.change_of_value(o.delta_s) for o in spec.outcomes]))
            else:
                out.append((basket, [basket.change_of_value(o) for o in spec.outcomes]))
        return out

    def check(self, returned, chk: Check) -> int:
        rows = 0
        for spec, (basket, marks) in zip(self.baskets, returned):
            for outcome, mark in zip(spec.outcomes, marks):
                target = spec.coefficient * outcome.delta_s**spec.order
                tol = BASKET_REL_TOL * max(_basket_legs(basket, outcome))
                # a zero target (no jumps, no drift) still checks that the legs cancel
                if target != 0.0 and tol >= abs(target):
                    self.unchecked += 1
                chk.require(abs(mark - target) <= tol, "exact_mark",
                            f"{spec.name} order {spec.order}, {outcome.n_jumps} jumps: "
                            f"mark {mark!r} vs {target!r} (tolerance {tol:.3g})")
            rows += len(marks)
        return rows


def _basket_legs(basket, outcome):
    """Magnitudes of the terms a basket's mark adds up (bounds for the
    power-jump-integral legs)."""
    r, dt = basket.r, basket.delta_t
    growth = math.exp(r * dt) - 1.0
    if isinstance(basket, swaps.SwapBasket):
        spec = basket.spec
        realized = ((outcome.delta_s / basket.s_t) ** spec.order
                    + basket.history_power_sum) / spec.annualizer
        payoff = (realized - spec.strike) * spec.notional
        return [abs(basket.swap_units * payoff), abs(basket.swap_units * spec.unit_price),
                abs(basket.bank_cash * growth)]
    legs = [abs(basket.bank_cash * growth), abs(basket.stock_units * outcome.delta_s)]
    t0 = basket.path_state.t
    m = {i: basket.moments[i] for i in range(1, basket.moments.order + 1)}
    for i, units in basket.pja_units.items():
        dy = float(np.sum(outcome.jump_sizes**i)) - m[i] * dt
        legs.append(abs(units * basket.path_state.y_value(i) * math.exp(r * t0) * growth))
        legs.append(abs(units * math.exp(r * (t0 + dt)) * dy))
    for theta, units in basket.pji_units.items():
        bound = oracles.iterated_integral_bound(theta, outcome.jump_sizes, m, dt)
        legs.append(abs(units) * math.exp(r * dt) * bound)
    return legs


class BasketsExact:
    """Library calls: ``pji_basket``, ``pja_basket_general`` and
    ``moment_swap_basket`` for orders 2..MAX_ORDER, each marked against
    simulated sigma = 0 compound-Poisson outcomes."""

    name = "baskets_exact"
    clock = "python"   # iterated integrals are interpreter-bound

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        intensity, mean, std = BASKET_JUMPS
        model = LevyModel(jump_spec=CompoundPoisson(intensity, NormalJumps(mean, std)))
        self.moments = moment_vector(model, chaos.MAX_ORDER)

    def _jumps(self, n, t0):
        times = np.sort(t0 + BASKET_DT * (1.0 - self.rng.random(n)))   # in (t0, t0 + dt]
        _, mean, std = BASKET_JUMPS
        return times, self.rng.normal(mean, std, n)

    def next_round(self):
        rng = self.rng
        scen = HedgeScenario(s_t=BASKET_S, delta_s=1.0, delta_t=BASKET_DT, r=BASKET_R)
        # dS = S dX: any number of jumps, no drift, no Brownian part
        outcomes = []
        for n in BASKET_JUMP_COUNTS:
            times, sizes = self._jumps(n, 0.0)
            outcomes.append(jump_baskets.ScenarioOutcome(
                delta_s=BASKET_S * float(sizes.sum()), jump_times=times, jump_sizes=sizes))
        # dS = S (e^{b dt}(1 + X) - 1) with at most one jump, from t0 on; the
        # path state holds the compensated power-jump sums of the jumps on
        # [0, t0], Y^(k) = sum x^k - m_k t0
        t0 = float(rng.uniform(0.0, 1.0))
        _, past = self._jumps(int(rng.poisson(BASKET_JUMPS[0] * t0)), 0.0)
        state = jump_baskets.PathState(t=t0, y={
            k: float(np.sum(past**k)) - self.moments[k] * t0 for k in BASKET_ORDERS})
        pja_outcomes = []
        for n in PJA_JUMP_COUNTS:
            times, sizes = self._jumps(n, t0)
            ds = BASKET_S * (math.exp(BASKET_DRIFT * BASKET_DT) * (1.0 + float(sizes.sum())) - 1.0)
            pja_outcomes.append(jump_baskets.ScenarioOutcome(
                delta_s=ds, jump_times=times, jump_sizes=sizes))

        baskets = []
        for i in BASKET_ORDERS:
            c_pji, c_pja, c_swap = (float(rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0]))
                                    for _ in range(3))
            # strike and unit price on the scale of one period's i-th moment,
            # so the cash leg does not dwarf C_i dS^i at high orders
            scale = PAST_RETURN_SD**i
            n_points = int(rng.integers(3, 8))
            spec = swaps.SwapSpec(order=i, delta_s=BASKET_DT, n=n_points,
                                  strike=float(rng.uniform(0.5, 2.0) * scale / BASKET_DT),
                                  unit_price=float(rng.uniform(0.5, 2.0) * scale))
            past_returns = rng.normal(0.0, PAST_RETURN_SD, n_points - 2)
            history = swaps.RealizedHistory(sums={i: float(np.sum(past_returns**i))})
            baskets += [
                BasketSpec(jump_baskets, "pji_basket", i, (c_pji, scen, i, self.moments),
                           outcomes),
                BasketSpec(jump_baskets, "pja_basket_general", i,
                           (c_pja, scen, i, state, self.moments, BASKET_DRIFT), pja_outcomes),
                BasketSpec(swaps, "moment_swap_basket", i, (c_swap, scen, spec, history),
                           outcomes, marks_by_move=True),
            ]
        return [BasketOperation(baskets)]


WORKLOADS = {w.name: w for w in (QTableCold, PnlRepricing, BasketsExact)}
