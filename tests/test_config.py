import copy
import json

import pytest

from levyhedge.config import STRATEGY_NAMES, load_config
from levyhedge.errors import ConfigError, LevyHedgeError


def minimal(**over):
    """A loadable config; an ``options`` override replaces the default
    ``option`` block, since a config may give only one of them."""
    raw = {
        "option": {"kind": "european_call", "strike": 100, "maturity": 1.0},
        "stencil": {"half_width": 4},
    }
    if "options" in over:
        del raw["option"]
    raw.update(over)
    return raw


def test_every_block_loads():
    raw = minimal(
        model={"kind": "compound_poisson", "drift_b": "risk_neutral", "brownian_sigma": 0.1,
               "intensity": 2.0,
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


def test_config_file_that_is_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "option": {"kind": "european_call" "strike": 100}\n}')
    with pytest.raises(ConfigError, match=r"bad\.json.*not valid JSON.*line 2, column 38"):
        load_config(path)


def test_config_file_that_is_not_text(tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b'{"option": "\xff"}')
    with pytest.raises(ConfigError, match=r"bin\.json.*not valid JSON.*at byte 12"):
        load_config(path)


@pytest.mark.parametrize("text", ["[]", "[1, 2]", "3", '"option"', "null"])
def test_config_file_must_hold_an_object(tmp_path, text):
    path = tmp_path / "top.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"top\.json.*config must be a JSON object") as exc:
        load_config(path)
    assert "field" not in str(exc.value)


def test_config_must_be_an_object():
    with pytest.raises(ConfigError, match="config must be a JSON object, got list"):
        load_config([("option", {})])


def test_hash_is_computed_once(monkeypatch):
    import levyhedge.config as config

    cfg = load_config(minimal())
    calls = []
    real = config.config_hash
    monkeypatch.setattr(config, "config_hash", lambda raw: calls.append(1) or real(raw))
    first = cfg.hash
    assert cfg.hash == first == real(cfg.raw)
    assert len(calls) == 1


def test_hash_ignores_where_the_run_is_written():
    # one experiment written to two directories is one experiment
    here = load_config(minimal(output={"dir": "runs/a"}))
    there = load_config(minimal(output={"dir": "runs/b"}))
    assert here.output_dir != there.output_dir
    assert here.hash == there.hash == load_config(minimal()).hash
    reseeded = load_config(minimal(output={"dir": "runs/a"}, mc={"seed": 1}))
    assert reseeded.seed != here.seed
    assert reseeded.hash != here.hash


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


def test_seed_must_be_non_negative():
    # numpy's generator takes no negative seed; it would fail only once a run starts
    with pytest.raises(ConfigError, match=r"'mc\.seed' must be >= 0, got -1"):
        load_config(minimal(mc={"seed": -1}))
    assert load_config(minimal(mc={"seed": 0})).seed == 0


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


def test_neutral_strikes_fit_the_ladder():
    # four strikes neutralize orders 1..4, which a p_max = 3 ladder lacks:
    # the load fails, before any draw, rather than the run after every draw
    strikes = {"neutral_strikes": [90, 95, 105, 110]}
    with pytest.raises(ConfigError, match=r"'pnl\.neutral_strikes' holds 4 strikes.*p_max = 3"):
        load_config(minimal(strategies=["moment-neutral"], pnl=strikes,
                            stencil={"half_width": 4, "p_max": 3}))
    cfg = load_config(minimal(strategies=["moment-neutral"], pnl=strikes,
                              stencil={"half_width": 4, "p_max": 4}))
    assert cfg.neutral_strikes == (90.0, 95.0, 105.0, 110.0)


def test_moment_neutral_needs_calls_alive_after_the_period():
    # a period reaching maturity leaves the neutral calls only their payoffs,
    # whose ladders on a grid clear of the strikes span no order: the load
    # fails, rather than the run after every draw
    raw = {
        "model": {"kind": "compound_poisson", "drift_b": 0.03, "brownian_sigma": 0.12,
                  "intensity": 5.0, "jump_law": {"kind": "normal", "mean": -0.01, "std": 0.04}},
        "option": {"kind": "european_call", "strike": 5000, "maturity": 0.01},
        "scenario": {"s0": 5000, "delta_s": [10.0], "delta_t": 0.01, "r": 0.05},
        "mc": {"paths": 4000, "steps": 2, "seed": 4},
        "stencil": {"half_width": 4, "p_max": 7, "s_step": 10.0},
        "strategies": ["delta", "moment-neutral"],
        "pnl": {"n_scenarios": 40, "q": 4, "neutral_strikes": [4950, 5050]},
    }
    with pytest.raises(ConfigError, match=r"'scenario\.delta_t' is 0\.01, the options' "
                                          r"maturity: the moment-neutral"):
        load_config(raw)
    assert load_config(dict(raw, strategies=["delta"])).delta_t == 0.01
    raw["scenario"]["delta_t"] = 0.005
    assert load_config(raw).delta_t == 0.005


def test_pnl_errors_come_before_any_draw(tmp_path, monkeypatch):
    from levyhedge import cli, harness

    monkeypatch.setattr(harness, "run_pnl", lambda cfg: pytest.fail("run_pnl reached"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal(strategies=["delta", "gamma"])))
    with pytest.raises(ConfigError, match=r"'strategies\[1\]'"):
        cli.main(["pnl", "--config", str(path), "--out", str(tmp_path / "pnl.csv")])


@pytest.mark.parametrize("block, field", [
    ("mc", "paths"), ("mc", "steps"), ("mc", "seed"),
    ("stencil", "half_width"), ("stencil", "p_max"),
    ("pnl", "n_scenarios"), ("pnl", "q"),
])
def test_integer_field_rejects_fraction(block, field):
    with pytest.raises(ConfigError, match=rf"'{block}\.{field}' must be an integer, got 3\.7"):
        load_config(minimal(**{block: {field: 3.7}}))


@pytest.mark.parametrize("block, field, want", [
    ("mc", "paths", "an integer"), ("mc", "seed", "an integer"),
    ("stencil", "half_width", "an integer"), ("pnl", "q", "an integer"),
    ("scenario", "delta_t", "a number"), ("scenario", "s0", "a number"),
])
def test_number_field_rejects_bool(block, field, want):
    with pytest.raises(ConfigError, match=rf"'{block}\.{field}' must be {want}, got True"):
        load_config(minimal(**{block: {field: True}}))


def test_number_field_rejects_numeric_string():
    with pytest.raises(ConfigError, match=r"'scenario\.delta_t' must be a number, got '0\.5'"):
        load_config(minimal(scenario={"delta_t": "0.5"}))


def test_integral_float_is_an_integer():
    cfg = load_config(minimal(mc={"paths": 1e3, "seed": 7.0}))
    assert (cfg.n_paths, cfg.seed) == (1000, 7)
    assert isinstance(cfg.n_paths, int)


@pytest.mark.parametrize("value", ["false", 0, None])
def test_antithetic_must_be_a_bool(value):
    with pytest.raises(ConfigError, match=r"'mc\.antithetic' must be true or false"):
        load_config(minimal(mc={"antithetic": value}))


def test_empty_strategy_list():
    with pytest.raises(ConfigError, match=r"'strategies' must be a list.*at least one.*\[\]"):
        load_config(minimal(strategies=[]))


@pytest.mark.parametrize("block", ["model", "scenario", "mc", "stencil", "pnl", "output"])
def test_block_must_be_an_object(block):
    with pytest.raises(ConfigError, match=rf"'{block}' must be an object, got 5"):
        load_config(minimal(**{block: 5}))


def test_nested_blocks_must_be_objects():
    with pytest.raises(ConfigError, match=r"'model\.jump_law' must be an object"):
        load_config(minimal(model={"kind": "compound_poisson", "intensity": 1.0,
                                   "jump_law": "normal"}))
    with pytest.raises(ConfigError, match=r"'pnl\.swap' must be an object"):
        load_config(minimal(pnl={"swap": 0.04}))


def test_option_entries_must_be_objects():
    with pytest.raises(ConfigError, match=r"'options\[0\]' must be an object, got 5"):
        load_config(minimal(options=[5]))
    with pytest.raises(ConfigError, match=r"'options' must be a list"):
        load_config(minimal(options=5))
    with pytest.raises(ConfigError, match=r"'option' must be an object"):
        load_config(minimal(option="european_call"))
    with pytest.raises(ConfigError, match=r"'options' must be a list of objects, at least one"):
        load_config(minimal(options=[]))


@pytest.mark.parametrize("block, field", [
    ("scenario", "delta_t"), ("scenario", "s0"), ("scenario", "alpha_tol"),
    ("stencil", "s_step"),
])
@pytest.mark.parametrize("value", [0, -1.5])
def test_positive_fields(block, field, value):
    with pytest.raises(ConfigError, match=rf"'{block}\.{field}' must be > 0"):
        load_config(minimal(**{block: {field: value}}))


def call(**over):
    return dict({"kind": "european_call", "strike": 100, "maturity": 1.0}, **over)


@pytest.mark.parametrize("option, path", [
    (call(kind="asian"), r"'options\[1\]\.kind': unknown option kind 'asian'"),
    (call(strike=0), r"'options\[1\]\.strike' must be > 0"),
    (call(maturity=-1.0), r"'options\[1\]\.maturity' must be > 0"),
    (call(barrier=120), r"'options\[1\]\.barrier': european_call takes no barrier"),
    (call(kind="up_and_out"), r"'options\[1\]\.barrier': up_and_out needs"),
    (call(kind="up_and_out", barrier=90), r"'options\[1\]\.barrier': up barrier 90"),
    (call(kind="down_and_in", barrier=110), r"'options\[1\]\.barrier': down barrier 110"),
])
def test_option_errors_name_their_field(option, path):
    with pytest.raises(ConfigError, match=path):
        load_config(minimal(options=[call(), option], scenario={"s0": 100}))


def test_barrier_side_is_checked_against_s0():
    raw = minimal(option=call(kind="up_and_out", barrier=120))
    assert load_config(raw).options[0].barrier == 120.0
    with pytest.raises(ConfigError, match=r"'option\.barrier': up barrier 120"):
        load_config(dict(raw, scenario={"s0": 130}))


CP = {"kind": "compound_poisson", "intensity": 2.0}
VG = {"kind": "variance_gamma", "theta": -0.1, "nu": 0.2, "vg_sigma": 0.1}


@pytest.mark.parametrize("model, path", [
    (dict(CP, intensity=-1), r"'model\.intensity' must be > 0, got -1"),
    (dict(VG, nu=0), r"'model\.nu' must be > 0, got 0"),
    (dict(VG, vg_sigma=-0.1), r"'model\.vg_sigma' must be >= 0, got -0\.1"),
    (dict(CP, brownian_sigma=-0.2), r"'model\.brownian_sigma' must be >= 0, got -0\.2"),
    (dict(CP, jump_law={"kind": "normal", "std": -0.1}),
     r"'model\.jump_law\.std' must be >= 0, got -0\.1"),
    (dict(VG, truncation_eps=0), r"'model\.truncation_eps' must be > 0, got 0"),
    (dict(VG, theta=2.0, nu=1.0, drift_b="risk_neutral"),
     r"'model\.drift_b': VG exponential moment does not exist"),
    (dict(VG, truncation_eps=0.1),
     r"'model\.truncation_eps': truncation_eps must be < 1/max\(G, M\) = 0\.02316"),
])
def test_model_parameter_ranges_name_their_field(model, path):
    with pytest.raises(ConfigError, match=path):
        load_config(minimal(model=model))


@pytest.mark.parametrize("stencil, path", [
    ({"half_width": 20, "p_max": 40}, r"'stencil\.p_max' must be at most .* 39, got 40"),
    ({"half_width": 4, "p_max": 0}, r"'stencil\.p_max' must be >= 1, got 0"),
    ({"half_width": 0}, r"'stencil\.half_width' must be >= 1, got 0"),
])
def test_stencil_ranges_name_their_field(stencil, path):
    with pytest.raises(ConfigError, match=path):
        load_config(minimal(stencil=stencil))


@pytest.mark.parametrize("move", [-6000, -5000])
def test_a_move_must_keep_the_spot_positive(move):
    with pytest.raises(ConfigError, match=r"'scenario\.delta_s\[1\]' takes the spot"):
        load_config(minimal(scenario={"s0": 5000, "delta_s": [10, move]}))
    assert load_config(minimal(scenario={"s0": 5000, "delta_s": [10, -4999]})).delta_s[1] == -4999


@pytest.mark.parametrize("raw, path", [
    (minimal(model={"kind": "brownian", "intensity": 50,
                    "jump_law": {"kind": "normal", "std": 0.1}}),
     r"'model\.intensity' is not read by model kind 'brownian'"),
    (minimal(model=dict(VG, sigma=0.9, vg_sigma=0.2)),
     r"'model\.sigma' is not read by model kind 'variance_gamma'"),
    (minimal(model=dict(CP, jump_law={"kind": "fixed", "size": 0.05, "std": 0.1})),
     r"'model\.jump_law\.std' is not read by jump law 'fixed'"),
    (dict(minimal(), options=[{"kind": "european_call", "strike": 100, "maturity": 1.0}]),
     r"'option' repeats 'options'"),
    (minimal(scenario={"s0": 100, "spot": 100}), r"'scenario\.spot' is not read by the library"),
    (minimal(mc={"path": 10}), r"'mc\.path' is not read by the library"),
    (minimal(stencil={"half_width": 4, "pmax": 7}),
     r"'stencil\.pmax' is not read by the library"),
    (minimal(pnl={"scenarios": 5}), r"'pnl\.scenarios' is not read by the library"),
    (minimal(pnl={"swap": {"notional": 2.0}}), r"'pnl\.swap\.notional' is not read by the library"),
    (minimal(output={"directory": "out"}), r"'output\.directory' is not read by the library"),
    (minimal(option=call(barier=90)), r"'option\.barier' is not read by the library"),
    (minimal(options=[call(strik=100)]), r"'options\[0\]\.strik' is not read by the library"),
    (minimal(model={"sigma": 0.2}), r"'model\.sigma' is not read by model kind 'brownian'"),
    (minimal(model=dict(CP, nu=0.2)),
     r"'model\.nu' is not read by model kind 'compound_poisson'"),
    (minimal(model=dict(VG, intensity=2.0)),
     r"'model\.intensity' is not read by model kind 'variance_gamma'"),
    (minimal(model=dict(CP, jump_law={"kind": "normal", "sd": 0.1})),
     r"'model\.jump_law\.sd' is not read by jump law 'normal'"),
    (minimal(model=dict(CP, jump_law={"size": 0.1})),
     r"'model\.jump_law\.size' is not read by jump law 'normal'"),
    (minimal(model=dict(CP, jump_law={"kind": "fixed", "mean": 0.1})),
     r"'model\.jump_law\.mean' is not read by jump law 'fixed'"),
    (minimal(model={"kind": "brownian", "truncation_eps": 1e-4}),
     r"'model\.truncation_eps' is not read by model kind 'brownian'"),
    (minimal(model=dict(CP, truncation_eps=1e-4)),
     r"'model\.truncation_eps' is not read by model kind 'compound_poisson'"),
])
def test_keys_the_parser_does_not_read_fail(raw, path):
    with pytest.raises(ConfigError, match=path):
        load_config(raw)


def test_each_model_kind_reads_its_own_keys():
    assert load_config(minimal(model=dict(VG, vg_sigma=0.2))).model.jump_spec.sigma == 0.2
    vg = {k: v for k, v in VG.items() if k != "vg_sigma"}
    with pytest.raises(ConfigError, match=r"'model\.sigma' is not read by model kind "
                                          r"'variance_gamma'"):
        load_config(minimal(model=dict(vg, sigma=0.3)))
    with pytest.raises(ConfigError, match=r"'model\.theta' is not read by model kind "
                                          r"'compound_poisson'"):
        load_config(minimal(model=dict(CP, theta=0.1)))
    with pytest.raises(ConfigError, match=r"'model\.jump_law\.size' is not read by jump law "
                                          r"'normal'"):
        load_config(minimal(model=dict(CP, jump_law={"kind": "normal", "size": 0.05})))


def test_hedging_period_must_fit_the_option():
    with pytest.raises(ConfigError, match=r"'scenario\.delta_t' is 2\.0, longer than"):
        load_config(minimal(option=call(maturity=0.5), scenario={"delta_t": 2.0}))
    assert load_config(minimal(option=call(maturity=0.5), scenario={"delta_t": 0.5})).delta_t == 0.5


def test_a_missing_field_is_reported_before_an_unread_key():
    with pytest.raises(ConfigError, match=r"'model\.intensity' is missing"):
        load_config(minimal(model={"kind": "compound_poisson", "intensty": 2}))


def test_load_config_leaves_its_input_unchanged():
    good = minimal(model=dict(CP, jump_law={"kind": "fixed"}), options=[call(), call(strike=90)],
                   scenario={"delta_s": [10, 20]}, pnl={"swap": {"strike": 0.1}},
                   output={"dir": "o"})
    bad = minimal(pnl={"swap": {"strike": 0.1, "strke": 0.1}})
    before = copy.deepcopy([good, bad])
    load_config(good)
    with pytest.raises(ConfigError, match=r"'pnl\.swap\.strke'"):
        load_config(bad)
    assert [good, bad] == before


@pytest.mark.parametrize("value", [5, None, ["out"], ""])
def test_output_dir_must_be_a_directory_name(value):
    with pytest.raises(ConfigError, match=r"'output\.dir' must be a directory name"):
        load_config(minimal(output={"dir": value}))


def test_bad_output_dir_fails_before_the_experiment(tmp_path, monkeypatch):
    from levyhedge import cli, harness

    monkeypatch.setattr(harness, "run_qtable", lambda cfg: pytest.fail("run_qtable reached"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal(output={"dir": 5})))
    with pytest.raises(ConfigError, match=r"'output\.dir'"):
        cli.main(["qtable", "--config", str(path)])


def test_stencil_grid_must_stay_above_zero():
    # s0 = 100 with 12 steps of 10 below it reaches the spot -20, where a
    # curve would be priced at a spot the model cannot reach
    with pytest.raises(ConfigError, match=r"'stencil\.s_step' is 10\.0: the grid's lowest spot "
                                          r"s0 - half_width \* s_step = -20\.0 must be > 0"):
        load_config(minimal(stencil={"half_width": 12, "s_step": 10}))
    with pytest.raises(ConfigError, match=r"'stencil\.s_step'.* = 0\.0 must be > 0"):
        load_config(minimal(stencil={"half_width": 10, "s_step": 10}))
    cfg = load_config(minimal(stencil={"half_width": 10, "s_step": 9.999}))
    assert cfg.s0 - cfg.half_width * cfg.s_step == pytest.approx(0.01)


def test_delta_s_must_be_a_list():
    assert load_config(minimal(scenario={"delta_s": [20]})).delta_s == (20.0,)
    with pytest.raises(ConfigError, match=r"'scenario\.delta_s' must be a list, got 20"):
        load_config(minimal(scenario={"delta_s": 20}))
    with pytest.raises(ConfigError, match=r"'scenario\.delta_s' must be a list, got 'x'"):
        load_config(minimal(scenario={"delta_s": "x"}))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -10**400],
                         ids=["nan", "inf", "-inf", "-10**400"])
@pytest.mark.parametrize("over, path", [
    (lambda v: {"scenario": {"r": v}}, r"scenario\.r"),
    (lambda v: {"model": {"drift_b": v}}, r"model\.drift_b"),
    (lambda v: {"model": dict(CP, jump_law={"kind": "normal", "mean": v})},
     r"model\.jump_law\.mean"),
    (lambda v: {"scenario": {"delta_s": [10, v]}}, r"scenario\.delta_s\[1\]"),
], ids=["scenario.r", "model.drift_b", "model.jump_law.mean", "scenario.delta_s[1]"])
def test_non_finite_numbers_name_their_path(over, path, value):
    with pytest.raises(ConfigError, match=rf"'{path}' must be a finite number, got {value!r}"):
        load_config(minimal(**over(value)))


@pytest.mark.parametrize("strikes, path", [
    ([0.0, 95, 105], r"pnl\.neutral_strikes\[0\]' must be > 0, got 0\.0"),
    ([95, -105], r"pnl\.neutral_strikes\[1\]' must be > 0, got -105"),
])
def test_neutral_strikes_must_be_positive(strikes, path):
    with pytest.raises(ConfigError, match=path):
        load_config(minimal(strategies=["moment-neutral"], pnl={"neutral_strikes": strikes}))


def test_dividend_is_read_only_by_the_risk_neutral_drift():
    raw = minimal(model={"drift_b": 0.01}, scenario={"dividend": 0.03})
    with pytest.raises(ConfigError, match=r"^config field 'scenario\.dividend' is read only "
                                          r"when 'model\.drift_b' is 'risk_neutral'$"):
        load_config(raw)
    raw["model"]["drift_b"] = "risk_neutral"
    assert load_config(raw).model.drift_b == pytest.approx(0.05 - 0.03, rel=1e-12)
