"""Reproducible random streams.

All Monte-Carlo draws in the package come from counter-based Philox
generators keyed by ``(seed, tag, *path)`` through ``SeedSequence`` spawn
keys.  A stream is fully determined by its key, never by how many draws
some other stream consumed, so estimators stay bit-reproducible when the
evaluation grid changes and whatever order the streams are drawn in.
"""

from __future__ import annotations

import numpy as np

# Stream tags: one per estimator family so streams never collide.
TAG_SOLVE = 1
TAG_INTEGRAL = 2
TAG_DERIVATIVE = 3
TAG_GEOMETRIC = 4
TAG_GAUSS_SIM = 5
TAG_NORM_MC = 6
TAG_DISTANCE = 7


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the Philox substream addressed by ``(seed, *path)``."""
    seq = np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))
