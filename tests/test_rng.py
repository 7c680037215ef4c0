from fdpriv.rng import audit_streams, make_rng

#: First draws of make_rng(seed), recorded as float.hex.  Releases are
#: replayable from their recorded seed only while these stay the same.
GOLDEN = {
    0: (
        ("-0x1.a5d5b6264d961p-3", "-0x1.07dfdc9426cf5p-3", "-0x1.28bead57c8121p-2"),
        ("0x1.ccf2d9115c140p-7", "0x1.07f42307c03cep-2", "0x1.e2e209058bb92p-2"),
    ),
    20171117: (
        ("-0x1.341d2a4728efep-1", "-0x1.5aa1eccfa3e43p-2", "-0x1.1ee3fa221fc20p-2"),
        ("0x1.43fde347dec8cp-2", "0x1.f9c0ded6c8cdfp-1", "0x1.1802dbf1443b2p-1"),
    ),
}

#: First normals of the privacy audit's chunk streams 0 and 1, as float.hex.
#: An audit report at a given seed stays the same only while these do.
AUDIT_GOLDEN = {
    0: (
        ("-0x1.19d8ab59737bap-1", "0x1.0a172d0cdb024p-1", "0x1.d82e1ff13cb8bp-3"),
        ("0x1.387165d385a41p-1", "0x1.862bc446d057bp-3", "-0x1.118d840e07b81p-3"),
    ),
    20171117: (
        ("-0x1.0e75405d723f2p+0", "0x1.1d7a677637da0p-2", "-0x1.ec6073d3aebe3p-1"),
        ("-0x1.c509b4a8a001fp-2", "-0x1.5e6ea39ba6033p-2", "0x1.f2f0a5d8fb290p-1"),
    ),
}


def test_make_rng_first_draws_are_pinned():
    for seed, (normals, uniforms) in GOLDEN.items():
        assert tuple(x.hex() for x in make_rng(seed).standard_normal(3)) == normals
        assert tuple(x.hex() for x in make_rng(seed).uniform(size=3)) == uniforms


def test_audit_streams_first_draws_are_pinned():
    for seed, chunks in AUDIT_GOLDEN.items():
        # Stream k does not depend on how many streams are drawn.
        for n in (2, 5):
            streams = audit_streams(seed, n)
            for k, normals in enumerate(chunks):
                assert tuple(x.hex() for x in streams[k].standard_normal(3)) == normals
