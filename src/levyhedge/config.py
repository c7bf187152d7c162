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


def build_model(block: dict, r: float = 0.0, dividend: float = 0.0) -> LevyModel:
    """Construct a LevyModel from its config block.

    ``drift_b`` may be the string "risk_neutral", in which case the drift
    that makes the dividend-adjusted discounted asset driftless is used.
    """
    kind = block.get("kind", "brownian")
    sigma = float(block.get("brownian_sigma", 0.0))
    eps = float(block.get("truncation_eps", 1e-6))
    if kind == "brownian":
        spec = None
    elif kind == "compound_poisson":
        law_block = block.get("jump_law", {"kind": "normal"})
        law_kind = law_block.get("kind", "normal")
        if law_kind == "normal":
            law = NormalJumps(
                mean=float(law_block.get("mean", 0.0)),
                std=float(law_block.get("std", 0.1)),
            )
        elif law_kind == "fixed":
            law = FixedJumps(size=float(law_block.get("size", 0.05)))
        else:
            raise ValueError(f"unknown jump law {law_kind!r}")
        spec = CompoundPoisson(intensity=float(block["intensity"]), law=law)
    elif kind == "variance_gamma":
        spec = VarianceGamma(
            theta=float(block["theta"]),
            nu=float(block["nu"]),
            sigma=float(block.get("vg_sigma", block.get("sigma", 0.0))),
        )
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    drift = block.get("drift_b", 0.0)
    model = LevyModel(drift_b=0.0, brownian_sigma=sigma, jump_spec=spec, jump_eps=eps)
    if drift == "risk_neutral":
        b = risk_neutral_drift(model, r, dividend)
    else:
        b = float(drift)
    return LevyModel(drift_b=b, brownian_sigma=sigma, jump_spec=spec, jump_eps=eps)


def build_option(block: dict) -> OptionSpec:
    return OptionSpec(
        kind=block["kind"],
        strike=float(block["strike"]),
        maturity=float(block["maturity"]),
        barrier=float(block["barrier"]) if block.get("barrier") is not None else None,
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
    does not read, so a typo never runs silently on defaults.
    """
    if isinstance(source, (str, Path)):
        raw = json.loads(Path(source).read_text())
    else:
        raw = dict(source)
    _check_keys(raw, _KNOWN_KEYS)
    scen = raw.get("scenario", {})
    r = float(scen.get("r", 0.05))
    dividend = float(scen.get("dividend", 0.0))
    model = build_model(raw.get("model", {}), r=r, dividend=dividend)
    if "options" in raw:
        options = tuple(build_option(b) for b in raw["options"])
    elif "option" in raw:
        options = (build_option(raw["option"]),)
    else:
        raise ValueError("config needs an 'option' or 'options' block")
    ds = scen.get("delta_s", [10.0])
    if not isinstance(ds, (list, tuple)):
        ds = [ds]
    if not ds:
        raise ValueError("delta_s grid must be nonempty")
    mc = raw.get("mc", {})
    sten = raw.get("stencil", {})
    half_width = int(sten.get("half_width", 8))
    default_step = max(0.5, float(scen.get("s0", 100.0)) * 1e-4)
    return ExperimentConfig(
        raw=raw,
        model=model,
        options=options,
        s0=float(scen.get("s0", 100.0)),
        delta_s=tuple(float(x) for x in ds),
        delta_t=float(scen.get("delta_t", 1.0 / 252.0)),
        r=r,
        dividend=dividend,
        alpha_tol=float(scen.get("alpha_tol", 0.01)),
        n_paths=int(mc.get("paths", 100_000)),
        steps=int(mc.get("steps", 1)),
        seed=int(mc.get("seed", 0)),
        antithetic=bool(mc.get("antithetic", False)),
        half_width=half_width,
        p_max=int(sten.get("p_max", 2 * half_width - 1)),
        s_step=float(sten.get("s_step", default_step)),
        strategies=tuple(raw.get("strategies", ())),
        output_dir=raw.get("output", {}).get("dir", "."),
    )
