"""Span tracing around calls into levyhedge, installed from outside.

The tracer replaces each traced public function at every name a caller
resolves it through: a module-level function is swapped in every loaded
``levyhedge`` module whose globals hold it (``harness`` imports
``build_lookup_table`` by name, ``pricing`` imports ``relative_factors``
by name), and a method is swapped on its class.  Spans (name, start, end,
parent) are kept in memory while operations run; per-layer metrics are
derived from them afterwards and the spans can be written out as TSV.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

# (span name, "module:qualname") for every traced entry point.  The span
# name is the module without the package prefix plus the qualname.
TRACED = [
    "stencil:build_lookup_table",
    "stencil:apply_stencil",
    "models:relative_factors",
    "models:moment_vector",
    "pricing:PathBundle.__init__",
    "pricing:PathBundle.price",
    "pricing:PathBundle.price_many",
    "pricing:derivative_ladder",
    "taylor:find_q",
    "taylor:assemble_ledger",
    "taylor:HedgeLedger.change_of_value",
    "swaps:moment_swap_basket",
    "swaps:variance_swap_basket",
    "swaps:SwapBasket.change_of_value",
    "minvar:mvp_bank_stock",
    "minvar:mvp_with_varswap",
    "neutral:solve_neutrality",
    "chaos:pi_coefficient",
    "chaos:constant_term",
    "jump_baskets:pja_basket_simple",
    "jump_baskets:pja_basket_general",
    "jump_baskets:pja_basket_order2",
    "jump_baskets:pji_basket",
    "jump_baskets:phi_hedge_basket",
    "jump_baskets:JumpBasket.change_of_value",
    "jump_baskets:iterated_integral",
    "harness:run_qtable",
    "harness:run_pnl",
    "harness:write_csv",
    "config:load_config",
    "config:config_hash",
]

_BASKET_BUILDERS = [
    "jump_baskets.pja_basket_simple",
    "jump_baskets.pja_basket_general",
    "jump_baskets.pja_basket_order2",
    "jump_baskets.pji_basket",
    "jump_baskets.phi_hedge_basket",
]
_RUNS = ["harness.run_qtable", "harness.run_pnl"]

# (metric, unit, how, spans): "incl" sums inclusive time of the outermost
# matching spans, "self" sums time not covered by child spans, "calls"
# counts spans.  Every value is divided by the number of traced operations.
LAYER_METRICS = [
    ("stencil.build_s", "s/op", "incl", ["stencil.build_lookup_table"]),
    ("stencil.build_calls", "calls/op", "calls", ["stencil.build_lookup_table"]),
    ("stencil.apply_s", "s/op", "incl", ["stencil.apply_stencil"]),
    ("stencil.apply_calls", "calls/op", "calls", ["stencil.apply_stencil"]),
    ("models.factors_s", "s/op", "incl", ["models.relative_factors"]),
    ("models.moments_s", "s/op", "incl", ["models.moment_vector"]),
    ("pricing.bundle_s", "s/op", "self", ["pricing.PathBundle.__init__"]),
    ("pricing.bundles", "calls/op", "calls", ["pricing.PathBundle.__init__"]),
    ("pricing.price_s", "s/op", "incl", ["pricing.PathBundle.price"]),
    ("pricing.price_calls", "calls/op", "calls", ["pricing.PathBundle.price"]),
    ("pricing.curve_s", "s/op", "incl", ["pricing.PathBundle.price_many"]),
    ("pricing.ladder_s", "s/op", "incl", ["pricing.derivative_ladder"]),
    ("taylor.find_q_s", "s/op", "incl", ["taylor.find_q"]),
    ("taylor.find_q_calls", "calls/op", "calls", ["taylor.find_q"]),
    ("taylor.ledger_s", "s/op", "incl", ["taylor.assemble_ledger"]),
    ("taylor.ledger_marks", "calls/op", "calls", ["taylor.HedgeLedger.change_of_value"]),
    ("swaps.basket_s", "s/op", "incl", ["swaps.moment_swap_basket", "swaps.variance_swap_basket"]),
    ("swaps.marks_s", "s/op", "incl", ["swaps.SwapBasket.change_of_value"]),
    ("minvar.weights_s", "s/op", "incl", ["minvar.mvp_bank_stock", "minvar.mvp_with_varswap"]),
    ("neutral.solve_s", "s/op", "incl", ["neutral.solve_neutrality"]),
    ("chaos.pi_s", "s/op", "incl", ["chaos.pi_coefficient"]),
    ("chaos.pi_calls", "calls/op", "calls", ["chaos.pi_coefficient"]),
    ("chaos.constant_term_calls", "calls/op", "calls", ["chaos.constant_term"]),
    ("jump_baskets.build_s", "s/op", "incl", _BASKET_BUILDERS),
    ("jump_baskets.mark_s", "s/op", "incl", ["jump_baskets.JumpBasket.change_of_value"]),
    ("jump_baskets.marks", "calls/op", "calls", ["jump_baskets.JumpBasket.change_of_value"]),
    ("jump_baskets.iterated_integral_s", "s/op", "incl", ["jump_baskets.iterated_integral"]),
    ("jump_baskets.iterated_integral_calls", "calls/op", "calls", ["jump_baskets.iterated_integral"]),
    ("harness.run_s", "s/op", "incl", _RUNS),
    ("harness.self_s", "s/op", "self", _RUNS),
    ("harness.csv_s", "s/op", "incl", ["harness.write_csv"]),
    ("config.load_s", "s/op", "incl", ["config.load_config"]),
    ("config.hash_s", "s/op", "incl", ["config.config_hash"]),
    ("config.hash_calls", "calls/op", "calls", ["config.config_hash"]),
]

PACKAGE = "levyhedge"
OP_SPAN = "op"


class Tracer:
    """Records spans for calls made while an operation is open.

    Outside ``begin_op``/``end_op`` the wrappers call straight through, so
    checks and input generation never show up in the trace.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.n_ops = 0
        self.path_steps = 0
        self.distinct_prices = 0
        self.first_table = None
        self._next = 0
        self._stack: list[int] = []
        self._price_keys: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            idx = tracer._next
            tracer._next += 1
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((idx, parent, name, start, end))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _hooks(self):
        models = importlib.import_module(f"{PACKAGE}.models")
        pricing = importlib.import_module(f"{PACKAGE}.pricing")
        factors_sig = inspect.signature(models.relative_factors)
        price_sig = inspect.signature(pricing.PathBundle.price)

        def on_factors(args, kwargs, _result):
            bound = factors_sig.bind(*args, **kwargs).arguments
            self.path_steps += bound["steps"] * bound["n_paths"]

        def on_price(args, kwargs, _result):
            bound = price_sig.bind(*args, **kwargs).arguments
            self._price_keys.add((id(bound["self"]), bound["option"], float(bound["s0"])))

        def on_table(_args, _kwargs, result):
            if self.first_table is None:
                self.first_table = result

        return {
            "models.relative_factors": on_factors,
            "pricing.PathBundle.price": on_price,
            "stencil.build_lookup_table": on_table,
        }

    def install(self) -> None:
        """Swap every traced function at each name callers resolve it by."""
        hooks = self._hooks()
        loaded = [
            mod for key, mod in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for target in TRACED:
            mod_name, qualname = target.split(":")
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            span = f"{mod_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(span, original, hooks.get(span)))
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(span, original, hooks.get(span))
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- operations --------------------------------------------------------

    def begin_op(self) -> None:
        idx = self._next
        self._next += 1
        self._stack.append(idx)
        self._op_start = perf_counter()

    def end_op(self) -> None:
        end = perf_counter()
        idx = self._stack.pop()
        self.spans.append((idx, -1, OP_SPAN, self._op_start, end))
        self.n_ops += 1
        self.distinct_prices += len(self._price_keys)
        self._price_keys.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        by_idx = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = {}
        by_name: dict[str, list] = {}
        for span in self.spans:
            idx, parent, name, start, end = span
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            by_name.setdefault(name, []).append(span)

        def outermost(idx, names):
            parent = by_idx[idx][1]
            while parent != -1:
                if by_idx[parent][2] in names:
                    return False
                parent = by_idx[parent][1]
            return True

        n = max(self.n_ops, 1)
        out = {}
        for metric, unit, how, names in LAYER_METRICS:
            names = set(names)
            spans = [s for nm in names for s in by_name.get(nm, ())]
            if how == "calls":
                value = len(spans)
            else:
                value = 0.0
                for idx, _, _, start, end in spans:
                    if how == "self":
                        value += (end - start) - child_time.get(idx, 0.0)
                    elif outermost(idx, names):
                        value += end - start
            out[metric] = {"value": value / n, "unit": unit}
        price_calls = len(by_name.get("pricing.PathBundle.price", ()))
        out["models.path_steps"] = {"value": self.path_steps / n, "unit": "steps/op"}
        out["pricing.price_reuse"] = {
            "value": self.distinct_prices / price_calls if price_calls else 1.0,
            "unit": "ratio",
        }
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for idx, parent, name, start, end in sorted(self.spans):
                fh.write(f"{idx}\t{parent}\t{name}\t{start!r}\t{end!r}\n")
