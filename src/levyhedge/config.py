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
from .pricing import OPTION_KINDS, OptionSpec

# Every key the library reads, nested as in the config.  A leaf is None; a
# block is the dict of its keys, and also covers a list of such blocks.  The
# model block's keys depend on its kind, so ``build_model`` checks them.
_OPTION_KEYS = {"kind": None, "strike": None, "maturity": None, "barrier": None}
_KNOWN_KEYS = {
    "model": None,
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

# The keys each model kind and each jump law reads.
_MODEL_KEYS = {"kind", "drift_b", "brownian_sigma", "truncation_eps"}
_KIND_KEYS = {
    "brownian": _MODEL_KEYS,
    "compound_poisson": _MODEL_KEYS | {"intensity", "jump_law"},
    "variance_gamma": _MODEL_KEYS | {"theta", "nu", "vg_sigma", "sigma"},
}
_JUMP_LAW_KEYS = {"normal": {"kind", "mean", "std"}, "fixed": {"kind", "size"}}

_REQUIRED = object()


def _number(block: dict, key: str, path: str, default=_REQUIRED, cast=float, positive=False,
            minimum=None):
    """``block[key]`` as ``cast`` (float, int or bool), raising ``ConfigError``
    naming the dotted path of a missing field, of a value not exactly of that
    type (``true`` is no number, 1000.7 no integer, "false" no bool), with
    ``positive`` of a value <= 0 and with ``minimum`` of a value below it."""
    value = block.get(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"config field {path + key!r} is missing")
    want = {bool: "true or false", int: "an integer"}.get(cast, "a number")
    if (isinstance(value, bool) != (cast is bool) or not isinstance(value, (int, float))
            or cast is int and not float(value).is_integer()):
        raise ConfigError(f"config field {path + key!r} must be {want}, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"config field {path + key!r} must be > 0, got {value!r}")
    if minimum is not None and not value >= minimum:
        raise ConfigError(f"config field {path + key!r} must be >= {minimum}, got {value!r}")
    return cast(value)


def _object(value, path: str) -> dict:
    """A config block, naming ``path`` if it is not a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"config field {path!r} must be an object, got {value!r}")
    return value


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
    A malformed field, or a key the model's kind does not read, raises
    ``ConfigError`` naming its dotted path.
    """
    path = "model."
    kind = block.get("kind", "brownian")
    if not isinstance(kind, str) or kind not in _KIND_KEYS:
        raise ConfigError(f"config field {path + 'kind'!r}: unknown model kind {kind!r}")
    _check_keys(block, dict.fromkeys(_KIND_KEYS[kind]), path, f"model kind {kind!r}")
    sigma = _number(block, "brownian_sigma", path, 0.0, minimum=0)
    eps = _number(block, "truncation_eps", path, 1e-6, positive=True)
    if kind == "brownian":
        spec = None
    elif kind == "compound_poisson":
        law_block = _object(block.get("jump_law", {}), path + "jump_law")
        law_path = path + "jump_law."
        law_kind = law_block.get("kind", "normal")
        if not isinstance(law_kind, str) or law_kind not in _JUMP_LAW_KEYS:
            raise ConfigError(f"config field {law_path + 'kind'!r}: unknown jump law {law_kind!r}")
        _check_keys(law_block, dict.fromkeys(_JUMP_LAW_KEYS[law_kind]), law_path,
                    f"jump law {law_kind!r}")
        if law_kind == "normal":
            law = NormalJumps(
                mean=_number(law_block, "mean", law_path, 0.0),
                std=_number(law_block, "std", law_path, 0.1, minimum=0),
            )
        else:
            law = FixedJumps(size=_number(law_block, "size", law_path, 0.05))
        spec = CompoundPoisson(intensity=_number(block, "intensity", path, positive=True),
                               law=law)
    else:
        if "vg_sigma" in block and "sigma" in block:
            raise ConfigError(f"config field {path + 'sigma'!r} repeats "
                              f"{path + 'vg_sigma'!r}; give one of them")
        sigma_key = "vg_sigma" if "vg_sigma" in block else "sigma"
        spec = VarianceGamma(
            theta=_number(block, "theta", path),
            nu=_number(block, "nu", path, positive=True),
            sigma=_number(block, sigma_key, path, 0.0, minimum=0),
        )
    model = LevyModel(drift_b=0.0, brownian_sigma=sigma, jump_spec=spec, jump_eps=eps)
    if block.get("drift_b") == "risk_neutral":
        try:
            b = risk_neutral_drift(model, r, dividend)
        except ValueError as err:  # no exponential moment to make driftless
            raise ConfigError(f"config field {path + 'drift_b'!r}: {err}") from None
    else:
        b = _number(block, "drift_b", path, 0.0)
    return LevyModel(drift_b=b, brownian_sigma=sigma, jump_spec=spec, jump_eps=eps)


def build_option(block, s0: float, path: str = "option.") -> OptionSpec:
    """An OptionSpec from its config block, with a barrier on the side of
    ``s0`` its kind monitors; ``ConfigError`` names the field at fault."""
    block = _object(block, path[:-1])
    if "kind" not in block:
        raise ConfigError(f"config field {path + 'kind'!r} is missing")
    if block["kind"] not in OPTION_KINDS:
        raise ConfigError(f"config field {path + 'kind'!r}: unknown option kind {block['kind']!r}")
    strike = _number(block, "strike", path, positive=True)
    maturity = _number(block, "maturity", path, positive=True)
    barrier = block.get("barrier")
    barrier = None if barrier is None else _number(block, "barrier", path, positive=True)
    try:
        option = OptionSpec(kind=block["kind"], strike=strike, maturity=maturity, barrier=barrier)
        option.check_barrier_side(s0)
    except ValueError as err:
        raise ConfigError(f"config field {path + 'barrier'!r}: {err}") from None
    return option


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


def _check_keys(block: dict, known: dict, prefix: str = "", reader: str = "the library") -> None:
    """Raise ``ConfigError`` naming the dotted path of a key ``reader`` does
    not read, so it never runs as if the key were absent."""
    for key, value in block.items():
        path = f"{prefix}{key}"
        if key not in known:
            raise ConfigError(f"config key {path!r} is not read by {reader}")
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
    does not read (in the model block, that its kind or jump law does not
    read), so a typo never runs silently on defaults, and of any field
    that is missing, non-numeric, out of range or names an unknown kind
    or strategy.  The ``pnl`` block is checked here too, before any
    Monte Carlo draw.
    """
    if isinstance(source, (str, Path)):
        raw = json.loads(Path(source).read_text())
    else:
        raw = dict(source)
    _check_keys(raw, _KNOWN_KEYS)
    scen = _object(raw.get("scenario", {}), "scenario")
    r = _number(scen, "r", "scenario.", 0.05)
    dividend = _number(scen, "dividend", "scenario.", 0.0)
    model = build_model(_object(raw.get("model", {}), "model"), r=r, dividend=dividend)
    s0 = _number(scen, "s0", "scenario.", 100.0, positive=True)
    if "option" in raw and "options" in raw:
        raise ConfigError("config field 'option' repeats 'options'; give one of them")
    if "options" in raw:
        if not isinstance(raw["options"], list):
            raise ConfigError(f"config field 'options' must be a list, got {raw['options']!r}")
        options = tuple(
            build_option(b, s0, f"options[{k}].") for k, b in enumerate(raw["options"])
        )
    elif "option" in raw:
        options = (build_option(raw["option"], s0),)
    else:
        raise ConfigError("config needs an 'option' or 'options' block")
    maturity = options[0].maturity
    for k, opt in enumerate(options):
        if opt.maturity != maturity:
            raise ConfigError(f"config field 'options[{k}].maturity' is {opt.maturity}, but all "
                              f"options in one run must share options[0]'s maturity {maturity}")
    delta_t = _number(scen, "delta_t", "scenario.", 1.0 / 252.0, positive=True)
    if delta_t > maturity:
        raise ConfigError(f"config field 'scenario.delta_t' is {delta_t!r}, longer than the "
                          f"options' maturity {maturity!r}")
    ds = scen.get("delta_s", [10.0])
    if not isinstance(ds, (list, tuple)):
        ds = [ds]
    if not ds:
        raise ConfigError("config field 'scenario.delta_s' must be a nonempty grid")
    delta_s = _numbers(ds, "scenario.delta_s")
    for k, move in enumerate(delta_s):
        if not s0 + move > 0:
            raise ConfigError(f"config field 'scenario.delta_s[{k}]' takes the spot from "
                              f"{s0!r} to {s0 + move!r}; it must stay > 0")
    mc = _object(raw.get("mc", {}), "mc")
    n_paths = _number(mc, "paths", "mc.", 100_000, int, minimum=1)
    steps = _number(mc, "steps", "mc.", 1, int, minimum=1)
    sten = _object(raw.get("stencil", {}), "stencil")
    half_width = _number(sten, "half_width", "stencil.", 8, int, minimum=1)
    p_max = _number(sten, "p_max", "stencil.", 2 * half_width - 1, int, minimum=1)
    if p_max > 2 * half_width - 1:
        raise ConfigError(f"config field 'stencil.p_max' must be at most 2 * half_width - 1 = "
                          f"{2 * half_width - 1}, got {p_max}")
    default_step = max(0.5, s0 * 1e-4)
    strategies = raw.get("strategies", ["taylor+swaps"])
    if not isinstance(strategies, (list, tuple)) or not strategies:
        raise ConfigError(f"config field 'strategies' must be a list of names, at least one, "
                          f"got {strategies!r}")
    for k, name in enumerate(strategies):
        if name not in STRATEGY_NAMES:
            raise ConfigError(f"config field 'strategies[{k}]': unknown strategy {name!r}")
    pnl = _object(raw.get("pnl", {}), "pnl")
    n_scenarios = _number(pnl, "n_scenarios", "pnl.", 1000, int, minimum=1)
    q = p_max if pnl.get("q", "max") == "max" else _number(pnl, "q", "pnl.", cast=int)
    if not 0 <= q <= p_max:
        raise ConfigError(f"config field 'pnl.q' must be 'max' or an order in 0..{p_max}, got {q}")
    swap = _object(pnl.get("swap", {}), "pnl.swap")
    neutral_strikes = _numbers(pnl.get("neutral_strikes", []), "pnl.neutral_strikes")
    if "moment-neutral" in strategies and not neutral_strikes:
        raise ConfigError("config field 'pnl.neutral_strikes' is missing: the "
                          "moment-neutral strategy needs at least one strike")
    return ExperimentConfig(
        raw=raw,
        model=model,
        options=options,
        s0=s0,
        delta_s=delta_s,
        delta_t=delta_t,
        r=r,
        dividend=dividend,
        alpha_tol=_number(scen, "alpha_tol", "scenario.", 0.01, positive=True),
        n_paths=n_paths,
        steps=steps,
        seed=_number(mc, "seed", "mc.", 0, int),
        antithetic=_number(mc, "antithetic", "mc.", False, bool),
        half_width=half_width,
        p_max=p_max,
        s_step=_number(sten, "s_step", "stencil.", default_step, positive=True),
        strategies=tuple(strategies),
        n_scenarios=n_scenarios,
        pnl_q=q,
        swap_strike=_number(swap, "strike", "pnl.swap.", 0.04),
        swap_unit_price=_number(swap, "unit_price", "pnl.swap.", 1.0),
        neutral_strikes=neutral_strikes,
        output_dir=_object(raw.get("output", {}), "output").get("dir", "."),
    )
