"""Deterministic random streams shared by every sampling routine."""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox generator for a 64-bit seed.

    The same seed always yields the same stream, independent of platform and
    call site; that is what makes releases replayable from their recorded
    metadata.  Normal variates come from numpy's ziggurat sampler on
    top of this bit stream.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64)
    return np.random.Generator(np.random.Philox(ss))

