"""Counter-based random streams.

Every stochastic step in the system draws from a Philox generator keyed by
a SplitMix64 mix of integer labels, e.g. ``stream(seed, episode, TAG_ACT, t)``.
Because the key is a pure function of the labels, any draw can be replayed
in isolation (needed for importance probing) and runs are reproducible
regardless of execution order or parallelism.

A stream is ``Generator(Philox(key=mix64(*labels)))``: key words [mix64, 0],
counter 0. Philox gets that key as its seed sequence (``_Key``), because
``Philox(key=...)`` first seeds itself from OS entropy and then overwrites
it, which doubles the cost of a stream; a control step makes two.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

MASK64 = (1 << 64) - 1

# Stream tags. Fixed for the life of the on-disk formats; renumbering breaks
# byte-for-byte reproducibility of datasets and checkpoints.
TAG_RESET = 1
TAG_ACT = 2
TAG_PROBE = 3
TAG_SCENARIO = 4
TAG_EXPERT = 5
TAG_TRAIN = 6
TAG_DATA = 7
TAG_EVAL = 8
TAG_OBS = 9


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def mix64(*labels: int) -> int:
    """Fold integer labels into a single 64-bit key (order-sensitive)."""
    state = 0x243F6A8885A308D3  # arbitrary nonzero start
    for v in labels:
        state = _splitmix64(state ^ (int(v) & MASK64))
    return state


class _Key(ISeedSequence):
    """One Philox key as a seed sequence: the two uint64 words Philox asks for
    are [key, 0], which it sets as its key, with counter 0."""

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.array([self.key, 0], dtype=np.uint64)


def stream(*labels: int) -> np.random.Generator:
    """A fresh Philox-backed generator keyed by the given labels."""
    return np.random.Generator(np.random.Philox(_Key(mix64(*labels))))
