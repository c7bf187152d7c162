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

import numpy as np
import pytest

from conftest import reference_mark

LEVYBENCH = pathlib.Path(__file__).resolve().parent.parent / "levybench"
TRACER = LEVYBENCH / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load("_levybench_tracer", TRACER)
PACKAGE, TRACED = TRACING.PACKAGE, TRACING.TRACED


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(LEVYBENCH))
    spec = importlib.util.spec_from_file_location("_levybench_workloads",
                                                  LEVYBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", TRACED)
def test_traced_target_resolves(target):
    mod_name, qualname = target.split(":")
    owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    for attr in qualname.split("."):
        assert hasattr(owner, attr), f"{target}: {attr!r} is missing"
        owner = getattr(owner, attr)
    assert callable(owner)


def test_one_round_of_every_workload_checks_clean(workloads, tmp_path):
    """Each operation of one round of every workload is prepared, run and
    checked as ``levybench/run.py`` does, and no check fails: not even the
    variance-gamma pnl operation's listed ``known_fault``, which its fixed
    seed has not shown since its scenarios began to draw jumps."""
    for name, workload_cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for op in workload_cls(7, workdir).next_round():
            chk = workloads.Check()
            op.prepare()
            rows = op.check(op.run(), chk)
            assert rows > 0, (name, op.kind)
            assert chk.failures == [], (name, op.kind)


def test_traced_qtable_op_searches_once_per_option(workloads, tmp_path):
    """A traced ``qtable_cold`` operation (the criterion-6 config) builds
    the stencil table once and makes one q search per option, over all of
    its moves."""
    (op,) = workloads.WORKLOADS["qtable_cold"](7, tmp_path).next_round()
    op.prepare()
    tracer = TRACING.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        returned = op.run()
        tracer.end_op()
    finally:
        tracer.uninstall()
    chk = workloads.Check()
    assert op.check(returned, chk) > 0 and chk.failures == []
    metrics = tracer.layer_metrics()
    assert metrics["taylor.find_q_calls"]["value"] == len(workloads.QTABLE_CONFIG["options"])
    assert metrics["stencil.build_calls"]["value"] == 1


def test_baskets_op_steps_each_outcome_once(workloads, tmp_path, monkeypatch):
    """A seeded ``baskets_exact`` operation marks pji baskets of orders
    2..12 on 4 shared outcomes and steps each outcome's path once; its pja
    marks step none."""
    jump_baskets = importlib.import_module(f"{PACKAGE}.jump_baskets")
    (op,) = workloads.WORKLOADS["baskets_exact"](7, tmp_path).next_round()
    passes = []
    real = jump_baskets._stepped

    def counting(*args):
        passes.append(1)
        return real(*args)

    monkeypatch.setattr(jump_baskets, "_stepped", counting)
    op.prepare()
    returned = op.run()
    assert len(passes) == len(workloads.BASKET_JUMP_COUNTS) == 4
    chk = workloads.Check()
    assert op.check(returned, chk) > 0 and chk.failures == []


def test_baskets_op_marks_match_the_reference(workloads, tmp_path):
    """Every pji and pja mark of a seeded ``baskets_exact`` operation equals
    ``conftest.reference_mark`` by bytes: the legs assembled column by
    column, each scenario stepped through its basket's own tree, and added
    by ``math.fsum``."""
    (op,) = workloads.WORKLOADS["baskets_exact"](11, tmp_path).next_round()
    op.prepare()
    marked = 0
    for spec, (basket, marks) in zip(op.baskets, op.run()):
        if spec.marks_by_move:   # the swap baskets
            continue
        want = [reference_mark(basket, outcome) for outcome in spec.outcomes]
        assert np.array(marks).tobytes() == np.array(want).tobytes(), (spec.name, spec.order)
        marked += len(marks)
    assert marked == 2 * len(workloads.BASKET_ORDERS) * len(workloads.BASKET_JUMP_COUNTS)
