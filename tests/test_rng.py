"""Named random streams and the truncated-normal initializer."""

import numpy as np
import pytest

from mtlc.numcore import stream
from mtlc.numcore.rng import truncated_normal


def rescan_truncated_normal(rng, shape, std):
    """The whole-array rescan loop that `truncated_normal` replaced."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


@pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 7])
@pytest.mark.parametrize("shape", [(64, 64), (7,), (3, 5, 2)])
@pytest.mark.parametrize("std", [0.02, 1.0])
def test_truncated_normal_draws_what_a_rescan_draws(seed, shape, std):
    fast, slow = stream(seed, "init"), stream(seed, "init")
    got = truncated_normal(fast, shape, std)
    want = rescan_truncated_normal(slow, shape, std)
    assert got.shape == shape
    assert np.array_equal(got, want)
    assert np.all(np.abs(got) <= 2.0 * std)
    # Philox state holds arrays: assert_equal compares nested dicts of them
    np.testing.assert_equal(fast.bit_generator.state, slow.bit_generator.state)
