"""Deterministic random streams shared by every sampling routine."""

from __future__ import annotations

import hashlib
import struct

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


def derive_seed(base: int, *parts) -> int:
    """Hash (base, parts) into a fresh 64-bit substream seed.

    Parts may be ints, floats, or strings; floats are hashed through their
    IEEE-754 bits so equal values map to the same substream no matter how they
    were produced (e.g. the same grid value listed in a different order).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", int(base) & _MASK64))
    for part in parts:
        if isinstance(part, bool):
            h.update(b"b" + bytes([part]))
        elif isinstance(part, int):
            h.update(b"i" + struct.pack("<q", part))
        elif isinstance(part, float):
            h.update(b"f" + struct.pack("<d", part))
        else:
            data = str(part).encode("utf-8")
            h.update(b"s" + struct.pack("<I", len(data)) + data)
    return int.from_bytes(h.digest(), "little")
