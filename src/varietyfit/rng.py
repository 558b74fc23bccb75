"""Counter-based seeded random number generation.

All randomized routines in this package draw from Philox streams keyed by
the seed. Philox is counter-based and platform-stable, so a fixed seed
reproduces identical output everywhere.
"""

from __future__ import annotations

import numpy as np

_U64 = 2**64


def make_rng(seed: int) -> np.random.Generator:
    """Return a Generator over the Philox stream keyed by (seed, 0)."""
    key = np.array([seed % _U64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
