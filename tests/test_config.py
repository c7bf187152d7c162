import json

import pytest

from levyhedge.config import STRATEGY_NAMES, load_config
from levyhedge.errors import ConfigError, LevyHedgeError


def minimal(**over):
    raw = {
        "option": {"kind": "european_call", "strike": 100, "maturity": 1.0},
        "stencil": {"half_width": 4},
    }
    raw.update(over)
    return raw


def test_every_block_loads():
    raw = minimal(
        model={"kind": "compound_poisson", "drift_b": "risk_neutral", "brownian_sigma": 0.1,
               "truncation_eps": 1e-6, "intensity": 2.0,
               "jump_law": {"kind": "fixed", "size": 0.05}},
        options=[{"kind": "up_and_out", "strike": 100, "maturity": 1.0, "barrier": 120}],
        scenario={"s0": 100, "delta_s": [1.0], "delta_t": 0.01, "r": 0.05,
                  "dividend": 0.0, "alpha_tol": 0.01},
        mc={"paths": 10, "steps": 1, "seed": 1, "antithetic": True},
        strategies=["delta"],
        pnl={"n_scenarios": 5, "q": 2, "swap": {"strike": 0.1, "unit_price": 0.1},
             "neutral_strikes": [90, 110]},
        output={"dir": "out"},
    )
    cfg = load_config(raw)
    assert cfg.half_width == 4
    assert cfg.antithetic


def test_nested_unknown_key_names_its_path():
    raw = minimal()
    raw["stencil"]["budget"] = 10
    with pytest.raises(ConfigError, match=r"'stencil\.budget'"):
        load_config(raw)


def test_top_level_unknown_key_names_itself():
    raw = minimal(stencl={"half_width": 4})
    with pytest.raises(ConfigError, match=r"'stencl'"):
        load_config(raw)


def test_unknown_key_inside_option_list():
    raw = minimal(options=[
        {"kind": "european_call", "strike": 100, "maturity": 1.0},
        {"kind": "european_call", "strike": 100, "maturity": 1.0, "barier": 90},
    ])
    with pytest.raises(ConfigError, match=r"'options\[1\]\.barier'"):
        load_config(raw)


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, LevyHedgeError)
    assert issubclass(ConfigError, ValueError)


def test_config_file_is_checked(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal(pnl={"swap": {"strke": 0.1}})))
    with pytest.raises(ConfigError, match=r"'pnl\.swap\.strke'"):
        load_config(path)


def test_hash_is_computed_once(monkeypatch):
    import levyhedge.config as config

    cfg = load_config(minimal())
    calls = []
    real = config.config_hash
    monkeypatch.setattr(config, "config_hash", lambda raw: calls.append(1) or real(raw))
    first = cfg.hash
    assert cfg.hash == first == real(cfg.raw)
    assert len(calls) == 1


def test_unknown_jump_law_names_its_path():
    raw = minimal(model={"kind": "compound_poisson", "intensity": 2.0,
                         "jump_law": {"kind": "cauchy"}})
    with pytest.raises(ConfigError, match=r"'model\.jump_law\.kind'.*'cauchy'"):
        load_config(raw)


def test_unknown_model_kind_names_its_path():
    with pytest.raises(ConfigError, match=r"'model\.kind'.*'gauss'"):
        load_config(minimal(model={"kind": "gauss"}))


def test_missing_option_block():
    with pytest.raises(ConfigError, match=r"'option' or 'options'"):
        load_config({})


def test_empty_delta_s_grid():
    with pytest.raises(ConfigError, match=r"'scenario\.delta_s'"):
        load_config(minimal(scenario={"delta_s": []}))


@pytest.mark.parametrize("block, field, path", [
    ("stencil", "half_width", r"'stencil\.half_width'"),
    ("scenario", "delta_t", r"'scenario\.delta_t'"),
    ("mc", "paths", r"'mc\.paths'"),
])
def test_non_numeric_field_names_its_path(block, field, path):
    with pytest.raises(ConfigError, match=path + r".*'x'"):
        load_config(minimal(**{block: {field: "x"}}))


@pytest.mark.parametrize("field", ["paths", "steps"])
def test_path_grid_must_be_nonempty(field):
    with pytest.raises(ConfigError, match=rf"'mc\.{field}' must be >= 1, got 0"):
        load_config(minimal(mc={field: 0}))


def test_non_numeric_nested_fields_name_their_paths():
    with pytest.raises(ConfigError, match=r"'scenario\.delta_s\[1\]'"):
        load_config(minimal(scenario={"delta_s": [1.0, "x"]}))
    with pytest.raises(ConfigError, match=r"'options\[0\]\.strike'"):
        load_config(minimal(options=[{"kind": "european_call", "strike": "x",
                                      "maturity": 1.0}]))
    with pytest.raises(ConfigError, match=r"'model\.intensity' is missing"):
        load_config(minimal(model={"kind": "compound_poisson"}))


def test_pnl_defaults():
    cfg = load_config(minimal())
    assert cfg.strategies == ("taylor+swaps",)
    assert (cfg.n_scenarios, cfg.pnl_q, cfg.swap_strike, cfg.swap_unit_price) == (
        1000, cfg.p_max, 0.04, 1.0)
    assert cfg.neutral_strikes == ()
    cfg = load_config(minimal(strategies=list(STRATEGY_NAMES),
                              pnl={"q": 3, "n_scenarios": 7, "neutral_strikes": [90, 110.5],
                                   "swap": {"strike": 0.1, "unit_price": 0.2}}))
    assert cfg.strategies == STRATEGY_NAMES
    assert (cfg.n_scenarios, cfg.pnl_q, cfg.swap_strike, cfg.swap_unit_price) == (
        7, 3, 0.1, 0.2)
    assert cfg.neutral_strikes == (90.0, 110.5)


def test_strategy_table_matches_names():
    from levyhedge import harness

    assert sorted(harness._STRATEGIES) == sorted(STRATEGY_NAMES)


@pytest.mark.parametrize("pnl, path", [
    ({"n_scenarios": "x"}, r"'pnl\.n_scenarios'.*'x'"),
    ({"n_scenarios": 0}, r"'pnl\.n_scenarios' must be >= 1"),
    ({"q": "x"}, r"'pnl\.q'.*'x'"),
    ({"q": 9}, r"'pnl\.q'.*0\.\.7, got 9"),
    ({"q": -1}, r"'pnl\.q'"),
    ({"swap": {"strike": "x"}}, r"'pnl\.swap\.strike'"),
    ({"swap": {"unit_price": None}}, r"'pnl\.swap\.unit_price'"),
    ({"neutral_strikes": 100}, r"'pnl\.neutral_strikes' must be a list"),
    ({"neutral_strikes": [90, "x"]}, r"'pnl\.neutral_strikes\[1\]'"),
])
def test_malformed_pnl_field_names_its_path(pnl, path):
    with pytest.raises(ConfigError, match=path):
        load_config(minimal(pnl=pnl))


def test_strategies_must_be_known_names():
    with pytest.raises(ConfigError, match=r"'strategies' must be a list.*'delta'"):
        load_config(minimal(strategies="delta"))
    with pytest.raises(ConfigError, match=r"'strategies\[1\]'.*'gamma'"):
        load_config(minimal(strategies=["delta", "gamma"]))


def test_moment_neutral_needs_strikes():
    with pytest.raises(ConfigError, match=r"'pnl\.neutral_strikes' is missing"):
        load_config(minimal(strategies=["moment-neutral"]))
    with pytest.raises(ConfigError, match=r"'pnl\.neutral_strikes' is missing"):
        load_config(minimal(strategies=["moment-neutral"], pnl={"neutral_strikes": []}))


def test_pnl_errors_come_before_any_draw(tmp_path, monkeypatch):
    from levyhedge import cli, harness

    monkeypatch.setattr(harness, "run_pnl", lambda cfg: pytest.fail("run_pnl reached"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal(strategies=["delta", "gamma"])))
    with pytest.raises(ConfigError, match=r"'strategies\[1\]'"):
        cli.main(["pnl", "--config", str(path), "--out", str(tmp_path / "pnl.csv")])
