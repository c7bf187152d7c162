"""The benchmark still runs against the library.

``levybench/tracer.py`` resolves each ``module:qualname`` in ``TRACED``
when a traced benchmark run starts, and ``levybench/workloads.py`` calls
the library's baskets, outcomes and CLI; a library change that deletes,
renames or reshapes one of them would otherwise surface only there.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

LEVYBENCH = pathlib.Path(__file__).resolve().parent.parent / "levybench"
TRACER = LEVYBENCH / "tracer.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("_levybench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PACKAGE, tracer.TRACED


PACKAGE, TRACED = traced_targets()


@pytest.mark.parametrize("target", TRACED)
def test_traced_target_resolves(target):
    mod_name, qualname = target.split(":")
    owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    for attr in qualname.split("."):
        assert hasattr(owner, attr), f"{target}: {attr!r} is missing"
        owner = getattr(owner, attr)
    assert callable(owner)


def test_one_round_of_every_workload_checks_clean(monkeypatch, tmp_path):
    """Each operation of one round of every workload is prepared, run and
    checked as ``levybench/run.py`` does, and no check fails: not even the
    variance-gamma pnl operation's listed ``known_fault``, which its fixed
    seed has not shown since its scenarios began to draw jumps."""
    monkeypatch.syspath_prepend(str(LEVYBENCH))
    spec = importlib.util.spec_from_file_location("_levybench_workloads",
                                                  LEVYBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for name, workload_cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for op in workload_cls(7, workdir).next_round():
            chk = workloads.Check()
            op.prepare()
            rows = op.check(op.run(), chk)
            assert rows > 0, (name, op.kind)
            assert chk.failures == [], (name, op.kind)
