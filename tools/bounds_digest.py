"""Exact digest of ``rdp_upper`` and ``rdp_lower`` over a fixed case set.

Prints one line per (bound, mechanism, orders) case: the case, then
``float.hex`` of every value, so two checkouts whose outputs are equal
compute every value bit for bit alike:

    python tools/bounds_digest.py > bounds.txt

The cases cover ranges (the blocks an order scan asks for, full grids,
empty), scattered and unsorted lists, arrays and scalars; k from 1 to 1e6;
eps0 = 0, 1e-4 up to 60; orders up to MAX_ORDER = 4096; and both of the
lower bound's branches (linear space, and log space past order ~350 at
n = k = 1e3, eps0 = 2).  ``cli_digest.py`` cannot show this: the CLI
prints 13 significant digits.

The script imports the package from the ``src`` directory of its own
checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from shuffle_rdp.bounds import SubsampledShuffleParams, rdp_lower, rdp_upper  # noqa: E402

BLOCKS = [range(2, 34), range(34, 61), range(5, 5)]
SCATTERED = [[2, 3, 28, 349, 350, 351, 1000, 4096], [4096, 2, 40, 3, 40], np.array([7, 300, 2500])]
SCALARS = [2, 28, 351, 2048, 4096]
FULL = [range(2, 2049), range(4000, 4097)]

# (n, k, eps0, order cases for the lower bound); the upper bound reads
# every case at every mechanism with k >= 2.
MECHANISMS = [
    (10**6, 10**3, 2.0, BLOCKS + SCATTERED + SCALARS + FULL),  # the headline point
    (10**3, 10**3, 2.0, BLOCKS + SCATTERED + SCALARS + FULL),  # gamma = 1: both branches
    (10**4, 10, 0.5, BLOCKS + SCATTERED + SCALARS + FULL),
    (10**7, 10**4, 1.0, BLOCKS + SCATTERED + SCALARS),
    (3 * 10**8, 3 * 10**5, 1e-4, BLOCKS + SCALARS),
    (10**9, 10**6, 2.0, BLOCKS[:1] + SCALARS[:2]),
    (2, 2, 60.0, BLOCKS + SCATTERED + SCALARS + FULL),
    (5, 1, 3.0, BLOCKS + SCATTERED + SCALARS),
    (100, 20, 0.0, BLOCKS + SCATTERED[:1] + SCALARS[:1]),
]


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in np.atleast_1d(values))


def main() -> int:
    for n, k, eps0, lower_cases in MECHANISMS:
        params = SubsampledShuffleParams(n=n, k=k, eps0=eps0)
        cases = [("upper", rdp_upper, c) for c in BLOCKS + SCATTERED + SCALARS + FULL if k >= 2]
        cases += [("lower", rdp_lower, c) for c in lower_cases]
        for name, bound, orders in cases:
            shown = orders.tolist() if isinstance(orders, np.ndarray) else orders
            print(f"{name} n={n} k={k} eps0={eps0} {shown!r}: {_hex(bound(orders, params))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
