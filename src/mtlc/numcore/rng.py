"""Deterministic named random streams.

Every stochastic operation in the package draws from an explicit stream
obtained here. Streams are backed by the counter-based Philox generator,
so a (seed, name) pair always yields the same sequence regardless of what
other streams were created or consumed in between.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream(seed: int, name: str) -> np.random.Generator:
    """Return the generator for stream `name` under the run seed."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=tuple(words))
    return np.random.Generator(np.random.Philox(seed=ss))


def child_seed(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit seed, e.g. one per training epoch."""
    return int(rng.integers(0, 2**63 - 1))


def truncated_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled until within 2 std, the usual embedding init."""
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)  # a view: out is freshly allocated, so contiguous
    # only redrawn positions can change, so each round checks just those;
    # they stay in C order, and the draws match a whole-array rescan's
    bad = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while bad.size:
        flat[bad] = rng.normal(0.0, std, size=bad.size)
        bad = bad[np.abs(flat[bad]) > 2.0 * std]
    return out
