"""Experiment configuration: JSON file in, typed objects out.

The parser is its own schema.  Every field is read through a ``_Block``,
which knows its dotted path (``scenario.delta_s[1]``, ``options[0].strike``)
and what reads it (the library, a model kind, a jump law).  A missing or
malformed field raises ``ConfigError`` naming its path as it is read.
Once everything is parsed, ``check_read`` raises ``ConfigError`` naming
the first key no reader took, so a typo never runs silently on defaults.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .models import (CompoundPoisson, FixedJumps, LevyModel, NormalJumps, VarianceGamma,
                     risk_neutral_drift)
from .pricing import OPTION_KINDS, OptionSpec

__all__ = ["ExperimentConfig", "load_config", "read_config_file", "config_hash"]

# The hedging strategies a pnl run knows, by config name.
STRATEGY_NAMES = ("taylor+swaps", "taylor+pja", "minvar", "minvar+varswap", "delta",
                  "moment-neutral")

_REQUIRED = object()


def _number(value, path: str, cast=float, positive=False, minimum=None):
    """``value`` as ``cast`` (float, int or bool), raising ``ConfigError`` naming
    ``path`` for a value not exactly of that type (``true`` is no number, 1000.7 no
    integer, "false" no bool), for ``NaN``, an infinity or an integer beyond the float
    range (JSON lets all three through), for one <= 0 if ``positive`` and below
    ``minimum``."""
    want = {bool: "true or false", int: "an integer"}.get(cast, "a number")
    if (isinstance(value, bool) != (cast is bool) or not isinstance(value, (int, float))
            or cast is int and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"config field {path!r} must be {want}, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"config field {path!r} must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"config field {path!r} must be > 0, got {value!r}")
    if minimum is not None and not value >= minimum:
        raise ConfigError(f"config field {path!r} must be >= {minimum}, got {value!r}")
    return cast(value)


class _Block:
    """One config object: its dotted ``path``, the ``reader`` that parses
    it, the keys read from it and the blocks read inside it."""

    def __init__(self, value, path: str = "", parent: _Block | None = None):
        if not isinstance(value, dict):
            raise ConfigError(f"config field {path!r} must be an object, got {value!r}")
        self.raw, self.path, self.reader = value, path, "the library"
        self.read: set[str] = set()
        self.children: list[_Block] = []
        if parent is not None:
            parent.children.append(self)

    def field(self, key: str) -> str:
        """The dotted path of ``key`` in this block."""
        return f"{self.path}.{key}" if self.path else key

    def fail(self, key: str, text: str) -> ConfigError:
        return ConfigError(f"config field {self.field(key)!r}{text}")

    def get(self, key: str, default=_REQUIRED):
        """The value of ``key``, or ``default``; without one, it must be there."""
        self.read.add(key)
        value = self.raw.get(key, default)
        if value is _REQUIRED:
            raise self.fail(key, " is missing")
        return value

    def number(self, key: str, default=_REQUIRED, cast=float, positive=False, minimum=None):
        return _number(self.get(key, default), self.field(key), cast, positive, minimum)

    def numbers(self, key: str, default=(), positive=False) -> tuple:
        """Every entry of a list as a float, naming ``key[k]`` if one is not (or,
        if ``positive``, is <= 0)."""
        values = self.get(key, default)
        if not isinstance(values, (list, tuple)):
            raise self.fail(key, f" must be a list, got {values!r}")
        return tuple(_number(x, self.field(f"{key}[{k}]"), positive=positive)
                     for k, x in enumerate(values))

    def choice(self, key: str, choices, what: str, default=_REQUIRED) -> str:
        """A name from ``choices``, naming ``key`` if it is anything else."""
        value = self.get(key, default)
        if not isinstance(value, str) or value not in choices:
            raise self.fail(key, f": unknown {what} {value!r}")
        return value

    def block(self, key: str) -> _Block:
        """The object under ``key`` (empty if absent) as a block of its own."""
        return _Block(self.get(key, {}), self.field(key), self)

    def entries(self, key: str) -> list[_Block]:
        """The objects of the list under ``key``, each a block ``key[k]``."""
        values = self.get(key)
        if not isinstance(values, list) or not values:
            raise self.fail(key, f" must be a list of objects, at least one, got {values!r}")
        return [_Block(v, self.field(f"{key}[{k}]"), self) for k, v in enumerate(values)]

    def check_read(self) -> None:
        """Raise ``ConfigError`` for the first key of this block tree no reader took."""
        for key in self.raw:
            if key not in self.read:
                raise ConfigError(f"config key {self.field(key)!r} is not read by {self.reader}")
        for child in self.children:
            child.check_read()


_JUMP_LAWS = {
    "normal": lambda law: NormalJumps(mean=law.number("mean", 0.0),
                                      std=law.number("std", 0.1, minimum=0)),
    "fixed": lambda law: FixedJumps(size=law.number("size", 0.05)),
}


def _compound_poisson(block: _Block) -> CompoundPoisson:
    law = block.block("jump_law")
    kind = law.choice("kind", _JUMP_LAWS, "jump law", "normal")
    law.reader = f"jump law {kind!r}"
    return CompoundPoisson(law=_JUMP_LAWS[kind](law),
                           intensity=block.number("intensity", positive=True))


def _variance_gamma(block: _Block) -> VarianceGamma:
    theta, nu = block.number("theta"), block.number("nu", positive=True)
    sigma = block.number("vg_sigma", 0.0, minimum=0)
    eps = block.number("truncation_eps", 1e-6, positive=True)
    try:
        return VarianceGamma(theta=theta, nu=nu, sigma=sigma, truncation_eps=eps)
    except ValueError as err:  # eps at or above the decay scale 1/max(G, M)
        raise block.fail("truncation_eps", f": {err}") from None


# Each model kind's jump part, read from the model block.
_MODEL_KINDS = {"brownian": lambda block: None, "compound_poisson": _compound_poisson,
                "variance_gamma": _variance_gamma}


def _build_model(block: _Block, scen: _Block, r: float) -> LevyModel:
    """A LevyModel from its config block, read by its kind.  ``drift_b`` may be
    "risk_neutral": the drift that makes the discounted asset, adjusted by
    ``scenario.dividend``, driftless.  No other drift reads the dividend, so
    with any other drift a dividend raises ``ConfigError`` saying so."""
    kind = block.choice("kind", _MODEL_KINDS, "model kind", "brownian")
    block.reader = f"model kind {kind!r}"
    sigma = block.number("brownian_sigma", 0.0, minimum=0)
    spec = _MODEL_KINDS[kind](block)
    if block.get("drift_b", None) == "risk_neutral":
        try:
            b = risk_neutral_drift(LevyModel(brownian_sigma=sigma, jump_spec=spec), r,
                                   scen.number("dividend", 0.0))
        except ValueError as err:  # no exponential moment to make driftless
            raise block.fail("drift_b", f": {err}") from None
    else:
        b = block.number("drift_b", 0.0)
        if "dividend" in scen.raw:
            raise scen.fail("dividend", f" is read only when {block.field('drift_b')!r} is "
                                        f"'risk_neutral'")
    return LevyModel(drift_b=b, brownian_sigma=sigma, jump_spec=spec)


def _build_option(block: _Block, s0: float) -> OptionSpec:
    """An OptionSpec from its config block, its barrier on the side of ``s0`` it monitors."""
    kind = block.choice("kind", OPTION_KINDS, "option kind")
    strike = block.number("strike", positive=True)
    maturity = block.number("maturity", positive=True)
    barrier = block.get("barrier", None)
    barrier = None if barrier is None else block.number("barrier", positive=True)
    try:
        option = OptionSpec(kind=kind, strike=strike, maturity=maturity, barrier=barrier)
        option.check_barrier_side(s0)
    except ValueError as err:
        raise block.fail("barrier", f": {err}") from None
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
    """Twelve hex digits of the SHA-256 of ``raw`` as canonical JSON, without
    its ``output`` block: where a run is written does not decide its numbers."""
    decided = {key: value for key, value in raw.items() if key != "output"}
    canon = json.dumps(decided, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _object(value, where: str = "") -> dict:
    """A copy of the config's top level, which must be a JSON object."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where}config must be a JSON object, got {type(value).__name__}")
    return dict(value)


def read_config_file(path) -> dict:
    """The JSON object in the file at ``path``.  A file that is not JSON
    text, or whose top level is not an object, raises ``ConfigError``
    naming the file (and where the JSON breaks, its line and column)."""
    with open(path, "rb") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file {str(path)!r} is not valid JSON: {err.msg} "
                              f"at line {err.lineno}, column {err.colno}") from None
        except UnicodeDecodeError as err:
            raise ConfigError(f"config file {str(path)!r} is not valid JSON: {err.reason} "
                              f"at byte {err.start}") from None
    return _object(raw, f"config file {str(path)!r}: ")


def load_config(source) -> ExperimentConfig:
    """Parse a config dict or a path to a JSON file.

    Raises ``ConfigError`` naming the dotted path of any field that is
    missing, malformed, out of range or names an unknown kind or strategy,
    and then of any key the parser does not read (in the model block, that
    its kind or jump law does not read).  The ``pnl`` block is checked
    here too, before any Monte Carlo draw.  ``source`` is not changed.
    """
    raw = read_config_file(source) if isinstance(source, (str, Path)) else _object(source)
    top = _Block(raw)
    scen = top.block("scenario")
    r = scen.number("r", 0.05)
    model = _build_model(top.block("model"), scen, r)
    s0 = scen.number("s0", 100.0, positive=True)
    if "option" in raw and "options" in raw:
        raise top.fail("option", f" repeats {top.field('options')!r}; give one of them")
    if "option" not in raw and "options" not in raw:
        raise ConfigError("config needs an 'option' or 'options' block")
    blocks = top.entries("options") if "options" in raw else [top.block("option")]
    options = tuple(_build_option(block, s0) for block in blocks)
    maturity = options[0].maturity
    for block, opt in zip(blocks, options):
        if opt.maturity != maturity:
            raise block.fail("maturity", f" is {opt.maturity}, but all options in one run "
                                         f"must share options[0]'s maturity {maturity}")
    delta_t = scen.number("delta_t", 1.0 / 252.0, positive=True)
    if delta_t > maturity:
        raise scen.fail("delta_t", f" is {delta_t!r}, longer than the options' maturity "
                                   f"{maturity!r}")
    delta_s = scen.numbers("delta_s", [10.0])
    if not delta_s:
        raise scen.fail("delta_s", " must be a nonempty grid")
    for k, move in enumerate(delta_s):
        if not s0 + move > 0:
            raise scen.fail(f"delta_s[{k}]", f" takes the spot from {s0!r} to {s0 + move!r}; "
                                             f"it must stay > 0")
    mc = top.block("mc")
    n_paths = mc.number("paths", 100_000, int, minimum=1)
    steps = mc.number("steps", 1, int, minimum=1)
    sten = top.block("stencil")
    half_width = sten.number("half_width", 8, int, minimum=1)
    p_max = sten.number("p_max", 2 * half_width - 1, int, minimum=1)
    if p_max > 2 * half_width - 1:
        raise sten.fail("p_max", f" must be at most 2 * half_width - 1 = {2 * half_width - 1}, "
                                 f"got {p_max}")
    s_step = sten.number("s_step", max(0.5, s0 * 1e-4), positive=True)
    if not s0 - half_width * s_step > 0:
        raise sten.fail("s_step", f" is {s_step!r}: the grid's lowest spot s0 - half_width * "
                                  f"s_step = {s0 - half_width * s_step!r} must be > 0")
    strategies = top.get("strategies", ["taylor+swaps"])
    if not isinstance(strategies, (list, tuple)) or not strategies:
        raise top.fail("strategies", f" must be a list of names, at least one, got {strategies!r}")
    for k, name in enumerate(strategies):
        if name not in STRATEGY_NAMES:
            raise top.fail(f"strategies[{k}]", f": unknown strategy {name!r}")
    pnl = top.block("pnl")
    n_scenarios = pnl.number("n_scenarios", 1000, int, minimum=1)
    q = p_max if pnl.get("q", "max") == "max" else pnl.number("q", cast=int)
    if not 0 <= q <= p_max:
        raise pnl.fail("q", f" must be 'max' or an order in 0..{p_max}, got {q}")
    swap = pnl.block("swap")
    neutral_strikes = pnl.numbers("neutral_strikes", positive=True)
    if "moment-neutral" in strategies and not neutral_strikes:
        raise pnl.fail("neutral_strikes", " is missing: the moment-neutral strategy needs "
                                          "at least one strike")
    if "moment-neutral" in strategies and len(neutral_strikes) > p_max:
        raise pnl.fail("neutral_strikes", f" holds {len(neutral_strikes)} strikes, one per "
                                          f"order neutralized, beyond p_max = {p_max}")
    if "moment-neutral" in strategies and not maturity - delta_t > 0:
        raise scen.fail("delta_t", f" is {delta_t!r}, the options' maturity: the moment-neutral "
                                   "strategy's calls would expire at the post-move date, where "
                                   "their curves are payoffs")
    output = top.block("output")
    output_dir = output.get("dir", ".")
    if not isinstance(output_dir, str) or not output_dir:
        raise output.fail("dir", f" must be a directory name, got {output_dir!r}")
    cfg = ExperimentConfig(
        raw=raw, model=model, options=options, s0=s0, delta_s=delta_s, delta_t=delta_t, r=r,
        alpha_tol=scen.number("alpha_tol", 0.01, positive=True),
        n_paths=n_paths, steps=steps, seed=mc.number("seed", 0, int, minimum=0),
        antithetic=mc.number("antithetic", False, bool), half_width=half_width, p_max=p_max,
        s_step=s_step,
        strategies=tuple(strategies), n_scenarios=n_scenarios, pnl_q=q,
        swap_strike=swap.number("strike", 0.04), swap_unit_price=swap.number("unit_price", 1.0),
        neutral_strikes=neutral_strikes, output_dir=output_dir,
    )
    top.check_read()
    return cfg
