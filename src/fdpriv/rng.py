"""Deterministic random streams shared by every sampling routine.

Releases, simulations and fold splits draw from ``make_rng(seed)`` itself.
The privacy audit draws each fixed-size chunk of its Monte-Carlo sample from
its own child stream, ``make_rng(seed).spawn(n_chunks)[k]``, so that chunks
can run in parallel and the audit's result depends only on the seed, the
sample count and the mode count, never on how many cores ran it.
"""

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

