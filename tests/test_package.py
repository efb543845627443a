"""The package runs on numpy alone: scipy is for tools and tests only."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.special import gammaln

import shuffle_rdp
from shuffle_rdp import bounds

PACKAGE = Path(shuffle_rdp.__file__).resolve().parent


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import shuffle_rdp, shuffle_rdp.cli, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_scipy():
    pattern = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    assert not [path.name for path in PACKAGE.glob("*.py") if pattern.search(path.read_text())]


def test_gammaln_table_matches_scipy():
    table = np.load(PACKAGE / "_gammaln_halves.npy")
    h = np.arange(1.0, 2.0 * (bounds.MAX_ORDER + 1) + 1.0)
    assert table.dtype == np.float64 and np.array_equal(table, gammaln(h / 2.0))
