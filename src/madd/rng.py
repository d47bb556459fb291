"""Deterministic random-stream derivation.

Every stochastic component draws from its own substream derived from the run
seed plus string labels, so results are reproducible regardless of evaluation
order or platform (blake2b is stable; Python's builtin hash() is salted and
never used here).
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_words(*labels: object) -> list[int]:
    joined = "\x1f".join(str(x) for x in labels).encode("utf-8")
    digest = hashlib.blake2b(joined, digest_size=16).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def substream(seed: int, *labels: object) -> np.random.Generator:
    """Generator for the substream named by ``labels`` under ``seed``."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + _label_words(*labels)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
