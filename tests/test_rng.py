import math

import numpy as np
import pytest

from fdpriv import PrivacyBudget, cm_norm_sq, dp_audit, noise_scale, reconstruct
from fdpriv.rng import make_rng

from conftest import toy_basis

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

#: The violation rate of one audit, recorded as float.hex.  The audit draws
#: from make_rng(seed), so its report replays only while GOLDEN holds.
AUDIT_RATE = "0x1.8e1c7dcac7bf3p-7"


def test_make_rng_first_draws_are_pinned():
    for seed, (normals, uniforms) in GOLDEN.items():
        assert tuple(x.hex() for x in make_rng(seed).standard_normal(3)) == normals
        assert tuple(x.hex() for x in make_rng(seed).uniform(size=3)) == uniforms


@pytest.mark.parametrize("seed,same_as", [
    (2.0, 2), (np.int64(5), 5), (-3, 2**64 - 3), (10**400, 10**400 % 2**64),
], ids=["whole-float", "numpy-int", "negative", "401-digit"])
def test_every_whole_seed_draws_the_stream_of_its_low_64_bits(seed, same_as):
    assert np.array_equal(make_rng(seed).standard_normal(4), make_rng(same_as).standard_normal(4))


@pytest.mark.parametrize("seed", [2.7, -0.5, math.nan, math.inf, "2.5"])
def test_make_rng_refuses_a_seed_that_is_not_a_whole_number(seed):
    with pytest.raises(ValueError, match="seed must be a whole number"):
        make_rng(seed)


def test_audit_report_is_pinned():
    basis = toy_basis()
    rng = np.random.default_rng(70)
    cd = rng.normal(size=basis.m)
    cdp = cd + 0.3 * rng.normal(size=basis.m)
    budget = PrivacyBudget(1.0, 0.1)
    sigma_sq = noise_scale(budget, cm_norm_sq(cd - cdp, basis))
    report = dp_audit(reconstruct(cd, basis), reconstruct(cdp, basis), basis, budget,
                      sigma_sq, 20_001, seed=20171117)
    assert report.empirical_violation_rate.hex() == AUDIT_RATE
