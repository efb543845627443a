"""Digest of the CLI's output files over a fixed set of invocations.

Runs ``bound``, ``compose``, ``convert`` (one at a delta below 1/DBL_MAX),
``compare`` (axes T, n and eps0, an eps0 log range that repeats one value,
a T sweep whose baseline is amplified, not degenerate, and whose lower
bound scans deep at the smallest T, plus a T sweep at the lower bound's
ceiling k = 1e6) and four ``simulate`` runs into a
temporary directory, then prints ``sha256  path`` for every file written,
sorted by path.  Two checkouts whose digests match write byte-identical
files for this set:

    python tools/cli_digest.py > digest.txt

The script imports the package from the ``src`` directory of its own
checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from shuffle_rdp.cli import main  # noqa: E402

LOGISTIC_CONFIG = {"loss": "logistic", "d": 50, "n": 1000, "T": 300, "k": 100, "eps0": 2.0, "seed": 3}

# (output directory, argv without --out); paths are relative to the run directory.
RUNS = [
    ("bound", ["bound", "--eps0", "2", "--k", "1000", "--n", "1000000", "--lambda-max", "64"]),
    ("bound_orders", ["bound", "--eps0", "0.5", "--k", "100", "--n", "10000", "--lambdas", "2,8,32,256"]),
    ("compose", ["compose", "--curve", "bound/bound.csv", "--T", "100000"]),
    ("convert", ["convert", "--curve", "compose/composed.csv", "--delta", "1e-8"]),
    ("convert_lower", ["convert", "--curve", "bound_orders/bound.csv", "--kind", "lower", "--delta", "1e-6"]),
    ("convert_tiny_delta", ["convert", "--curve", "compose/composed.csv", "--delta", "1e-310"]),
    ("compare_T", ["compare", "--axis", "T", "--log-range", "1e3", "1e6", "4", "--eps0", "2",
                   "--k", "1000", "--n", "1000000", "--delta", "1e-8"]),
    ("compare_T_amplified", ["compare", "--axis", "T", "--values", "1000,10000,100000", "--eps0", "2",
                             "--k", "10000", "--n", "10000000", "--delta", "1e-8"]),
    ("compare_T_k1e6", ["compare", "--axis", "T", "--values", "10000,100000,1000000", "--eps0", "2",
                        "--k", "1000000", "--n", "1000000000", "--delta", "1e-8"]),
    ("compare_n", ["compare", "--axis", "n", "--values", "10000,100000,1000000", "--eps0", "1",
                   "--k", "100", "--T", "1000", "--delta", "1e-8", "--lambda-max", "256"]),
    ("compare_eps0", ["compare", "--axis", "eps0", "--values", "0.5,1,2,4", "--k", "100",
                      "--n", "100000", "--T", "100", "--delta", "1e-6", "--lambda-max", "256"]),
    ("compare_eps0_log_range", ["compare", "--axis", "eps0", "--log-range", "2", "2", "3", "--T", "10",
                                "--k", "100", "--n", "10000", "--delta", "1e-8", "--lambda-max", "16"]),
    ("simulate_ls", ["simulate", "--T", "2000", "--k", "100", "--n", "1000", "--d", "10", "--eps0", "2"]),
    ("simulate_logistic", ["simulate", "--config", "logistic.json"]),
    ("simulate_constant", ["simulate", "--T", "50", "--k", "50", "--n", "500", "--d", "1000", "--eps0", "2",
                           "--schedule", "constant", "--eta", "0.01", "--record-every", "1"]),
    ("simulate_criterion9", ["simulate", "--T", "60", "--k", "25", "--n", "250", "--d", "6",
                             "--eps0", "2", "--seed", "4"]),
]


def main_digest() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("logistic.json").write_text(json.dumps(LOGISTIC_CONFIG))
            for out, argv in RUNS:
                code = main(argv + ["--out", out])
                if code != 0:
                    print(f"{' '.join(argv)} exited {code}", file=sys.stderr)
                    return code
            for path in sorted(p for out, _ in RUNS for p in Path(out).iterdir()):
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    raise SystemExit(main_digest())
