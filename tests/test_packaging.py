"""Packaging: console scripts resolve, and the runtime needs numpy alone."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_script_targets_import():
    import tomllib

    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_runs_without_scipy():
    # scipy is a test dependency only; None in sys.modules makes any import
    # of it raise ImportError
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import numpy as np, hypok\n"
        "from hypok.semigroup import apply_poisson\n"
        "from hypok.semigroup import apply_semigroup\n"
        "from hypok.testfuncs import CompactBump, ModulatedBump, gaussian\n"
        "g = hypok.gramians(hypok.kolmogorov(1), 0.5)\n"
        "v = apply_poisson(hypok.ornstein_uhlenbeck(2), gaussian(np.zeros(2), np.eye(2)), 0.7, np.zeros(2))\n"
        "det_tK = np.exp(g.logdet_tK)\n"
        "assert det_tK > 0 and 0 < v < 1, (det_tK, v)\n"
        "b = apply_semigroup(hypok.kolmogorov(1), CompactBump(np.zeros(2), 0.5, 1.0), 0.4, np.zeros(2))\n"
        "# N = 3: the turned 3-D ray design, the factor in panels along each ray\n"
        "f = ModulatedBump(CompactBump(np.zeros(3), 0.5, 1.0), gaussian(np.zeros(3), np.eye(3)))\n"
        "m = apply_semigroup(hypok.heat(3), f, 0.4, np.zeros(3))\n"
        "assert 0 < m < b < 1, (m, b)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
