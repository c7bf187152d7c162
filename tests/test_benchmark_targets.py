"""Every entry point the benchmark tracer wraps still exists in the library.

``levybench/tracer.py`` resolves each ``module:qualname`` in ``TRACED``
when a traced benchmark run starts; a library change that deletes or
renames one of them would otherwise surface only there.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "levybench" / "tracer.py"


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
