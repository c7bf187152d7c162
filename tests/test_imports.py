"""Importing the package loads numpy and the standard library only: no
scipy, numpy.polynomial or concurrent.futures module.  No scipy module loads
later either, through VG jump records or VG hedge moments, and a factor draw
of one chunk loads no thread pool."""

import json
import subprocess
import sys

from conftest import package_env

PROBE = """
import json, sys
import levyhedge, levyhedge.cli, levyhedge.harness
polynomial = sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))
futures = lambda: sorted(m for m in sys.modules if m.startswith("concurrent.futures"))
futures_at_import = futures()
import numpy as np
from levyhedge.models import LevyModel, VarianceGamma, moment_vector, relative_factors
model = LevyModel(jump_spec=VarianceGamma(theta=-0.1, nu=0.2, sigma=0.15))
factors, jumps = relative_factors(model, 0.25, 2, 50, np.random.default_rng(0), records=True)
futures_after_draw = futures()
m2 = moment_vector(model, 2)[2]
print(json.dumps({"polynomial_at_import": polynomial, "futures_at_import": futures_at_import,
                  "futures_after_draw": futures_after_draw,
                  "finite": bool(np.isfinite(factors).all()), "jumps": int(jumps.size.size),
                  "m2": m2, "legendre": "numpy.polynomial.legendre" in sys.modules,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_import_loads_no_scipy_and_vg_records_still_draw():
    proc = subprocess.run([sys.executable, "-c", PROBE], env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["polynomial_at_import"] == []
    assert result["futures_at_import"] == [] and result["futures_after_draw"] == []
    assert result["finite"] and result["jumps"] > 0
    assert result["m2"] > 0 and result["legendre"]  # VG hedge moments load the rule
    assert result["scipy"] == []
