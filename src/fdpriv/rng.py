"""Deterministic random streams shared by every sampling routine.

Releases, simulations, fold splits and the privacy audit all draw from
``make_rng(seed)``, a Philox generator, so that a release replays from the
seed in its sidecar and an audit report from its seed and sample count.
Each routine draws from its one stream in order, so its draws never depend
on the core count.
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
