"""Deterministic random streams shared by every sampling routine.

Releases, simulations and fold splits draw from ``make_rng(seed)`` itself, a
Philox generator, so that a release replays from the seed in its sidecar.
The privacy audit draws each fixed-size chunk of its noise draws, each of
which it scores as the privacy loss of a mirrored pair of releases, from its
own child stream, ``audit_streams(seed, n_chunks)[k]``: an SFC64 generator
seeded by the k-th ``SeedSequence`` child of ``make_rng(seed)``.
Chunks can thus run in parallel, and the audit's result depends only on the
seed, the sample count and the mode count, never on how many cores ran it.
The audit needs no replay beyond that, so it takes SFC64, whose ziggurat
normals take about 60 % of Philox's time.
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


def audit_streams(seed: int, n: int) -> list[np.random.Generator]:
    """The privacy audit's n chunk streams for a seed.

    Stream k is an SFC64 generator on the k-th of n ``SeedSequence`` children
    of ``make_rng(seed)``, the children ``make_rng(seed).spawn(n)`` would
    seed Philox with.  The streams are independent of each other and of
    ``make_rng(seed)`` itself.
    """
    children = make_rng(seed).bit_generator.seed_seq.spawn(n)
    return [np.random.Generator(np.random.SFC64(child)) for child in children]
