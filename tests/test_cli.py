import hashlib
import json
import platform
import subprocess
import sys

import pytest
from conftest import package_env

from levyhedge import cli
from levyhedge.cli import main
from levyhedge.errors import ConfigError


def write_config(tmp_path, **over):
    raw = {
        "model": {"kind": "compound_poisson", "drift_b": 0.03, "brownian_sigma": 0.12,
                  "intensity": 5.0, "jump_law": {"kind": "normal", "mean": -0.01, "std": 0.04}},
        "options": [
            {"kind": "european_call", "strike": 5000, "maturity": 1.0},
            {"kind": "up_and_out", "strike": 5000, "maturity": 1.0, "barrier": 5050},
        ],
        "scenario": {"s0": 5000, "delta_s": [10, 20], "delta_t": 1.0,
                     "r": 0.05, "alpha_tol": 0.01},
        "mc": {"paths": 20000, "steps": 1, "seed": 3},
        "stencil": {"half_width": 8, "p_max": 15, "s_step": 10.0},
        "output": {"dir": str(tmp_path)},
    }
    raw.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestMalformedConfigFile:
    def test_text_that_is_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mc": {"paths": 10,}\n}')
        with pytest.raises(ConfigError, match=r"bad\.json.*not valid JSON.*line 1, column 21"):
            main(["qtable", "--config", str(path)])

    def test_top_level_array(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match=r"list\.json.*config must be a JSON object"):
            main(["qtable", "--config", str(path)])

    def test_non_finite_number(self, tmp_path):
        # Python's json reads the bare token NaN; load_config must reject it
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace('"r": 0.05', '"r": NaN'))
        with pytest.raises(ConfigError, match=r"'scenario\.r' must be a finite number, got nan"):
            main(["pnl", "--config", str(path), "--out", str(tmp_path / "p.csv")])
        assert not (tmp_path / "p.csv").exists()

    def test_table_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "build", "--half-width", "3", "--out", "t.txt"])
        assert "invalid choice: 'table'" in capsys.readouterr().err


class TestQTableCommand:
    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["qtable", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["qtable", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_header_and_reference_column(self, tmp_path):
        # the reference describes the criterion-6 stencil, so the run is made on it
        cfg = write_config(tmp_path, stencil={"half_width": 20, "p_max": 39, "s_step": 10.0})
        out = tmp_path / "q.csv"
        main(["qtable", "--config", str(cfg), "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "option,delta_s,q,achieved_error,q_reference,config_hash"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "european_call"
        assert first[2] == "8" and first[4] == "8"

    def test_inputs_come_from_the_config_alone(self, tmp_path, capsys):
        # mc.seed, mc.paths and scenario.alpha_tol have no second spelling as flags
        cfg = write_config(tmp_path)
        for flag, value in (("--seed", "99"), ("--paths", "10"), ("--alpha-tol", "0.1")):
            with pytest.raises(SystemExit) as exc:
                main(["qtable", "--config", str(cfg), flag, value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "qtable.csv").exists()

    def test_one_parser_keeps_no_state_between_calls(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli._parser() is cli._parser()
        assert main(["qtable", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
        assert main(["qtable", "--config", str(cfg)]) == 0  # no --out left from the last call
        assert (tmp_path / "qtable.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()

    def test_unreachable_rows_exit_nonzero(self, tmp_path):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["scenario"]["delta_s"] = [500.0]
        cfg.write_text(json.dumps(raw))
        rc = main(["qtable", "--config", str(cfg), "--out", str(tmp_path / "q.csv")])
        assert rc == 1


class TestConvergeCommand:
    def test_runs_and_is_deterministic(self, tmp_path):
        cfg = write_config(
            tmp_path,
            options=[{"kind": "european_call", "strike": 5000, "maturity": 1.0}],
            scenario={"s0": 5000, "delta_s": [20.0], "delta_t": 1.0,
                      "r": 0.05, "alpha_tol": 0.01},
        )
        out1 = tmp_path / "c1.csv"
        out2 = tmp_path / "c2.csv"
        assert main(["converge", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["converge", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 16


class TestPnlCommand:
    def test_writes_rows_and_summary(self, tmp_path):
        cfg = write_config(
            tmp_path,
            options=[{"kind": "european_call", "strike": 5000, "maturity": 0.25}],
            scenario={"s0": 5000, "delta_s": [10.0], "delta_t": 0.002,
                      "r": 0.05, "alpha_tol": 0.01},
            stencil={"half_width": 4, "p_max": 5, "s_step": 10.0},
            strategies=["taylor+swaps", "delta"],
            pnl={"n_scenarios": 50, "q": 3, "swap": {"strike": 0.002, "unit_price": 0.002}},
        )
        out = tmp_path / "pnl.csv"
        assert main(["pnl", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "scenario,strategy,delta_s,residual,n_jumps,config_hash"
        assert len(rows) == 1 + 2 * 50
        summary = (tmp_path / "pnl.csv.summary").read_text().splitlines()
        assert summary[0] == "strategy,mean,sd,regime_violations,n_scenarios,config_hash"
        assert len(summary) == 3

    def test_sigma_zero_variance_gamma_names_its_field(self, tmp_path):
        # one side of the Levy measure is empty: the gamma clock still draws
        # for converge, but pnl hedges need (C, G, M) and must say which field
        model = {"kind": "variance_gamma", "theta": -0.05, "nu": 0.01}
        cfg = write_config(
            tmp_path, model=model,
            options=[{"kind": "european_call", "strike": 5000, "maturity": 0.25}],
            scenario={"s0": 5000, "delta_s": [10.0], "delta_t": 0.01,
                      "r": 0.05, "alpha_tol": 0.01},
            stencil={"half_width": 4, "p_max": 5, "s_step": 10.0},
            strategies=["delta"],
            pnl={"n_scenarios": 50, "q": 3},
        )
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 0
        with pytest.raises(ConfigError, match=r"'model\.vg_sigma' must be > 0"):
            main(["pnl", "--config", str(cfg), "--out", str(tmp_path / "p.csv")])


class TestOutputBytes:
    """The SHA-256 of every file small seeded ``qtable``, ``converge`` and
    ``pnl`` runs write, pinned, so a change that moves one output byte is
    seen, not only a rerun that differs within one tree.  The ``qtable``
    and ``converge`` runs price barrier options on a live post-move date;
    the ``_expired`` ones have the period reach maturity, the converge run
    on the FTSE variance-gamma call of criterion 10.  The pnl runs mark all
    six strategies on compound-Poisson and variance-gamma.  The digests
    hold on x86-64 with numpy 2.4, whose ``default_rng`` streams they
    read."""

    LIVE = {"s0": 5000, "delta_s": [10.0, 20.0], "delta_t": 0.1, "r": 0.05, "alpha_tol": 0.01}
    PNL = {"options": [{"kind": "european_call", "strike": 5000, "maturity": 0.25}],
           "scenario": {"s0": 5000, "delta_s": [10.0], "delta_t": 0.002,
                        "r": 0.05, "alpha_tol": 0.01},
           "stencil": {"half_width": 4, "p_max": 7, "s_step": 10.0},
           "strategies": ["taylor+swaps", "taylor+pja", "minvar", "minvar+varswap", "delta",
                          "moment-neutral"],
           "pnl": {"n_scenarios": 60, "q": 4, "neutral_strikes": [4950.0, 5050.0],
                   "swap": {"strike": 0.002, "unit_price": 0.002}}}
    VG = {"kind": "variance_gamma", "theta": -0.05, "nu": 0.01, "vg_sigma": 0.2,
          "drift_b": "risk_neutral"}
    FTSE = {"model": {"kind": "variance_gamma", "theta": -0.2721, "nu": 0.3032,
                      "vg_sigma": 0.0302, "drift_b": "risk_neutral"},
            "options": [{"kind": "european_call", "strike": 6287, "maturity": 1.0}],
            "scenario": {"s0": 6287, "delta_s": [61.5], "delta_t": 1.0, "r": 0.0543,
                         "dividend": 0.0351, "alpha_tol": 0.01},
            "stencil": {"half_width": 8, "p_max": 15, "s_step": 61.5}}
    RUNS = {
        "qtable": ("qtable", dict(
            options=[{"kind": "up_and_out", "strike": 5000, "maturity": 1.0, "barrier": 5100},
                     {"kind": "down_and_in", "strike": 5000, "maturity": 1.0, "barrier": 4900},
                     {"kind": "european_put", "strike": 5000, "maturity": 1.0}],
            scenario=LIVE, mc={"paths": 4000, "steps": 4, "seed": 7},
            stencil={"half_width": 6, "p_max": 11, "s_step": 10.0})),
        "converge": ("converge", dict(
            options=[{"kind": "up_and_in", "strike": 5000, "maturity": 1.0, "barrier": 5100}],
            scenario=dict(LIVE, delta_s=[20.0]), mc={"paths": 4000, "steps": 4, "seed": 8},
            stencil={"half_width": 4, "p_max": 7, "s_step": 10.0})),
        "qtable_expired": ("qtable", dict(
            options=[{"kind": "up_and_in", "strike": 5000, "maturity": 1.0, "barrier": 5050},
                     {"kind": "down_and_out", "strike": 5000, "maturity": 1.0, "barrier": 4950},
                     {"kind": "european_put", "strike": 5000, "maturity": 1.0}],
            scenario=dict(LIVE, delta_t=1.0), mc={"paths": 4000, "steps": 4, "seed": 7})),
        "converge_expired": ("converge", dict(FTSE, mc={"paths": 20000, "steps": 1, "seed": 11})),
        "pnl_cp": ("pnl", dict(PNL, mc={"paths": 5000, "steps": 2, "seed": 9})),
        "pnl_vg": ("pnl", dict(PNL, model=VG, mc={"paths": 5000, "steps": 2, "seed": 10})),
    }
    DIGESTS = {
        "qtable.csv": "39b47c971e91d9e535dd6ca7c53380563a3bc3f5603c8b67e9d87cd2ea6b6f8d",
        "qtable_expired.csv": "eb179b61ed39ed69844576765f22eb34b593e7dd31afdf282a77d01723ed86cc",
        "converge.csv": "0492db0d739cecb5c18182c0b41d0b8457e9316c28d220af32aa922e856393f0",
        "converge_expired.csv": "1a79eb9ac45e7512d7e25610902faf78891d95bdca8f28809f943f3bfacb2068",
        "pnl_cp.csv": "cd9c7f4b3b7f48120dbbcfe746948618f92831cab151d078b8edb59fcf23ccdd",
        "pnl_cp.csv.summary": "17f34c25b2153c286c214ee6972523d581ca7c86a87d2fd966179b858f1586c3",
        "pnl_vg.csv": "69a8a0a873bf77acc133b2236478f7b9d276419eaa79b469a23821cabddd08f2",
        "pnl_vg.csv.summary": "70deac886c5ce412cd9d585e8d8f84b18bdd366539490f7c8a78f2bbe1ee00ce",
    }

    def test_outputs_keep_their_bytes(self, tmp_path):
        digests = {}
        for name, (command, over) in self.RUNS.items():
            cfg = write_config(tmp_path, **over)
            out = tmp_path / f"{name}.csv"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            for path in sorted(tmp_path.glob(f"{name}.csv*")):
                digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests == self.DIGESTS


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_freed_path_columns_fault_no_fresh_pages():
    # In a fresh interpreter glibc's dynamic thresholds hand a freed pair of
    # 400 KB temporaries back to the system, and the next pair faults about
    # 3,260 pages per 20 pairs; once main has run, none.
    child = (
        "import resource, numpy\n"
        "from levyhedge import cli\n"
        "cli._keep_freed_heap()\n"
        "a = numpy.random.default_rng(0).random(50_000)\n"
        "def pairs():\n"
        "    for _ in range(20):\n"
        "        numpy.maximum(a * 1.01 - 0.5, 0.0).mean()\n"
        "pairs()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "pairs()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], env=package_env(),
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 98  # the pages of one 400 KB column


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "levyhedge.cli", "--help"],
        env=package_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "qtable" in proc.stdout
