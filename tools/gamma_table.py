"""Write ``src/shuffle_rdp/_gammaln_halves.npy``, the upper bound's Gamma table.

The table holds ln Gamma(h/2) for h = 1..2 (MAX_ORDER + 1), in float64,
computed by ``scipy.special.gammaln``.  ``shuffle_rdp.bounds`` reads ln i!
(h = 2i + 2) and ln Gamma(j/2) (h = j) from it, so the package itself
needs no scipy at run time:

    python tools/gamma_table.py

Run it again only when MAX_ORDER changes; the tests check the file
against scipy over the grid that ``bounds.MAX_ORDER`` implies.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.special import gammaln

MAX_ORDER = 4096  # shuffle_rdp.bounds.MAX_ORDER
TABLE = Path(__file__).resolve().parents[1] / "src" / "shuffle_rdp" / "_gammaln_halves.npy"


def gammaln_halves(max_order: int) -> np.ndarray:
    """ln Gamma(h/2) for h = 1..2 (max_order + 1)."""
    return gammaln(np.arange(1.0, 2.0 * (max_order + 1) + 1.0) / 2.0)


def main() -> int:
    np.save(TABLE, gammaln_halves(MAX_ORDER))
    print(f"wrote {TABLE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
