"""Experiment configuration: JSON file in, typed objects out."""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .models import (
    CompoundPoisson,
    FixedJumps,
    LevyModel,
    NormalJumps,
    VarianceGamma,
    risk_neutral_drift,
)
from .pricing import OptionSpec

# Every key the library reads, nested as in the config.  A leaf is None; a
# block is the dict of its keys, and also covers a list of such blocks.
_OPTION_KEYS = {"kind": None, "strike": None, "maturity": None, "barrier": None}
_KNOWN_KEYS = {
    "model": {
        "kind": None, "drift_b": None, "brownian_sigma": None, "truncation_eps": None,
        "intensity": None, "jump_law": {"kind": None, "mean": None, "std": None, "size": None},
        "theta": None, "nu": None, "vg_sigma": None, "sigma": None,
    },
    "option": _OPTION_KEYS,
    "options": _OPTION_KEYS,
    "scenario": {
        "s0": None, "delta_s": None, "delta_t": None, "r": None, "dividend": None,
        "alpha_tol": None,
    },
    "mc": {"paths": None, "steps": None, "seed": None, "antithetic": None},
    "stencil": {"half_width": None, "p_max": None, "s_step": None},
    "strategies": None,
    "pnl": {
        "n_scenarios": None, "q": None, "swap": {"strike": None, "unit_price": None},
        "neutral_strikes": None,
    },
    "output": {"dir": None},
}

__all__ = ["ExperimentConfig", "load_config", "config_hash", "build_model", "build_option"]

# The hedging strategies a pnl run knows, by config name.
STRATEGY_NAMES = ("taylor+swaps", "taylor+pja", "minvar", "minvar+varswap", "delta",
                  "moment-neutral")

_REQUIRED = object()


def _number(block: dict, key: str, path: str, default=_REQUIRED, cast=float):
    """``cast(block[key])``, raising ``ConfigError`` that names the dotted
    path of a missing or non-numeric field."""
    value = block.get(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"config field {path + key!r} is missing")
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config field {path + key!r} must be a number, got {value!r}") from None


def _numbers(values, path: str) -> tuple:
    """Every entry of a list as a float, naming ``path[k]`` if one is not."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"config field {path!r} must be a list, got {values!r}")
    items = {f"[{k}]": x for k, x in enumerate(values)}
    return tuple(_number(items, key, path) for key in items)


def build_model(block: dict, r: float = 0.0, dividend: float = 0.0) -> LevyModel:
    """Construct a LevyModel from its config block.

    ``drift_b`` may be the string "risk_neutral", in which case the drift
    that makes the dividend-adjusted discounted asset driftless is used.
    A malformed field raises ``ConfigError`` naming its dotted path.
    """
    path = "model."
    kind = block.get("kind", "brownian")
    sigma = _number(block, "brownian_sigma", path, 0.0)
    eps = _number(block, "truncation_eps", path, 1e-6)
    if kind == "brownian":
        spec = None
    elif kind == "compound_poisson":
        law_block = block.get("jump_law", {"kind": "normal"})
        law_path = path + "jump_law."
        law_kind = law_block.get("kind", "normal")
        if law_kind == "normal":
            law = NormalJumps(
                mean=_number(law_block, "mean", law_path, 0.0),
                std=_number(law_block, "std", law_path, 0.1),
            )
        elif law_kind == "fixed":
            law = FixedJumps(size=_number(law_block, "size", law_path, 0.05))
        else:
            raise ConfigError(f"config field {law_path + 'kind'!r}: unknown jump law {law_kind!r}")
        spec = CompoundPoisson(intensity=_number(block, "intensity", path), law=law)
    elif kind == "variance_gamma":
        sigma_key = "vg_sigma" if "vg_sigma" in block else "sigma"
        spec = VarianceGamma(
            theta=_number(block, "theta", path),
            nu=_number(block, "nu", path),
            sigma=_number(block, sigma_key, path, 0.0),
        )
    else:
        raise ConfigError(f"config field {path + 'kind'!r}: unknown model kind {kind!r}")
    model = LevyModel(drift_b=0.0, brownian_sigma=sigma, jump_spec=spec, jump_eps=eps)
    if block.get("drift_b") == "risk_neutral":
        b = risk_neutral_drift(model, r, dividend)
    else:
        b = _number(block, "drift_b", path, 0.0)
    return LevyModel(drift_b=b, brownian_sigma=sigma, jump_spec=spec, jump_eps=eps)


def build_option(block: dict, path: str = "option.") -> OptionSpec:
    if "kind" not in block:
        raise ConfigError(f"config field {path + 'kind'!r} is missing")
    return OptionSpec(
        kind=block["kind"],
        strike=_number(block, "strike", path),
        maturity=_number(block, "maturity", path),
        barrier=_number(block, "barrier", path) if block.get("barrier") is not None else None,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus the raw dict it came from."""

    raw: dict
    model: LevyModel
    options: tuple[OptionSpec, ...]
    s0: float
    delta_s: tuple[float, ...]
    delta_t: float
    r: float
    dividend: float
    alpha_tol: float
    n_paths: int
    steps: int
    seed: int
    antithetic: bool
    half_width: int
    p_max: int
    s_step: float
    strategies: tuple[str, ...]
    n_scenarios: int
    pnl_q: int
    swap_strike: float
    swap_unit_price: float
    neutral_strikes: tuple[float, ...]
    output_dir: str

    @functools.cached_property
    def hash(self) -> str:
        return config_hash(self.raw)


def config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _check_keys(block: dict, known: dict, prefix: str = "") -> None:
    for key, value in block.items():
        path = f"{prefix}{key}"
        if key not in known:
            raise ConfigError(f"unknown config key {path!r}")
        sub = known[key]
        if sub is None:
            continue
        if isinstance(value, dict):
            _check_keys(value, sub, path + ".")
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    _check_keys(item, sub, f"{path}[{i}].")


def load_config(source) -> ExperimentConfig:
    """Parse a config dict or a path to a JSON file.

    Raises ``ConfigError`` naming the dotted path of any key the library
    does not read, so a typo never runs silently on defaults, and of any
    field that is missing, non-numeric, out of range or names an unknown
    kind or strategy.  The ``pnl`` block is checked here too, before any
    Monte Carlo draw.
    """
    if isinstance(source, (str, Path)):
        raw = json.loads(Path(source).read_text())
    else:
        raw = dict(source)
    _check_keys(raw, _KNOWN_KEYS)
    scen = raw.get("scenario", {})
    r = _number(scen, "r", "scenario.", 0.05)
    dividend = _number(scen, "dividend", "scenario.", 0.0)
    model = build_model(raw.get("model", {}), r=r, dividend=dividend)
    if "options" in raw:
        options = tuple(
            build_option(b, f"options[{k}].") for k, b in enumerate(raw["options"])
        )
    elif "option" in raw:
        options = (build_option(raw["option"]),)
    else:
        raise ConfigError("config needs an 'option' or 'options' block")
    ds = scen.get("delta_s", [10.0])
    if not isinstance(ds, (list, tuple)):
        ds = [ds]
    if not ds:
        raise ConfigError("config field 'scenario.delta_s' must be a nonempty grid")
    mc = raw.get("mc", {})
    n_paths = _number(mc, "paths", "mc.", 100_000, int)
    steps = _number(mc, "steps", "mc.", 1, int)
    for key, value in (("paths", n_paths), ("steps", steps)):
        if value < 1:
            raise ConfigError(f"config field 'mc.{key}' must be >= 1, got {value}")
    sten = raw.get("stencil", {})
    half_width = _number(sten, "half_width", "stencil.", 8, int)
    p_max = _number(sten, "p_max", "stencil.", 2 * half_width - 1, int)
    s0 = _number(scen, "s0", "scenario.", 100.0)
    default_step = max(0.5, s0 * 1e-4)
    strategies = raw.get("strategies") or ["taylor+swaps"]
    if not isinstance(strategies, (list, tuple)):
        raise ConfigError(f"config field 'strategies' must be a list of names, got {strategies!r}")
    for k, name in enumerate(strategies):
        if name not in STRATEGY_NAMES:
            raise ConfigError(f"config field 'strategies[{k}]': unknown strategy {name!r}")
    pnl = raw.get("pnl", {})
    n_scenarios = _number(pnl, "n_scenarios", "pnl.", 1000, int)
    if n_scenarios < 1:
        raise ConfigError(f"config field 'pnl.n_scenarios' must be >= 1, got {n_scenarios}")
    q = p_max if pnl.get("q", "max") == "max" else _number(pnl, "q", "pnl.", cast=int)
    if not 0 <= q <= p_max:
        raise ConfigError(f"config field 'pnl.q' must be 'max' or an order in 0..{p_max}, got {q}")
    swap = pnl.get("swap", {})
    neutral_strikes = _numbers(pnl.get("neutral_strikes", []), "pnl.neutral_strikes")
    if "moment-neutral" in strategies and not neutral_strikes:
        raise ConfigError("config field 'pnl.neutral_strikes' is missing: the "
                          "moment-neutral strategy needs at least one strike")
    return ExperimentConfig(
        raw=raw,
        model=model,
        options=options,
        s0=s0,
        delta_s=_numbers(ds, "scenario.delta_s"),
        delta_t=_number(scen, "delta_t", "scenario.", 1.0 / 252.0),
        r=r,
        dividend=dividend,
        alpha_tol=_number(scen, "alpha_tol", "scenario.", 0.01),
        n_paths=n_paths,
        steps=steps,
        seed=_number(mc, "seed", "mc.", 0, int),
        antithetic=bool(mc.get("antithetic", False)),
        half_width=half_width,
        p_max=p_max,
        s_step=_number(sten, "s_step", "stencil.", default_step),
        strategies=tuple(strategies),
        n_scenarios=n_scenarios,
        pnl_q=q,
        swap_strike=_number(swap, "strike", "pnl.swap.", 0.04),
        swap_unit_price=_number(swap, "unit_price", "pnl.swap.", 1.0),
        neutral_strikes=neutral_strikes,
        output_dir=raw.get("output", {}).get("dir", "."),
    )
