"""Deterministic random-stream derivation.

Every stochastic component draws from its own substream derived from the run
seed plus string labels, so results are reproducible regardless of evaluation
order or platform (blake2b is stable; Python's builtin hash() is salted and
never used here).

A stream's key is the 32-byte blake2b digest of its labels joined as ``str``
with ``"\\x1f"`` and UTF-8 encoded (a ``bytes`` label hashes its repr), keyed
by the seed masked to 64 bits as eight little-endian bytes. The digest's four
little-endian 64-bit words, read in native order, seed ``PCG64`` directly
(O'Neill, "PCG: A family of simple fast space-efficient statistically good
algorithms for random number generation", HMC-CS-2014-0905): a keyed blake2b
digest is already well mixed, so no ``SeedSequence`` stands between them.

``substream(seed, *labels)`` builds one generator. ``substream_states`` keeps
the state words of many label tuples, 32 bytes a row, and ``generator`` seeds
a row's ``PCG64`` from them when it is read; row i is bit-for-bit the
generator ``substream(seed, *labels_list[i])`` returns (tests/test_rng.py
compares both).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _key(seed: int) -> bytes:
    return (int(seed) & _MASK64).to_bytes(8, "little")


def _digest(key: bytes, labels) -> bytes:
    joined = "\x1f".join(map(str, labels)).encode("utf-8")
    return hashlib.blake2b(joined, digest_size=32, key=key).digest()


def _words(digests: bytes) -> np.ndarray:
    # native order, so a big-endian host seeds PCG64 with the same words
    return np.frombuffer(digests, dtype="<u8").astype(np.uint64)


def substream(seed: int, *labels: object) -> np.random.Generator:
    """Generator for the substream named by ``labels`` under ``seed``."""
    return generator(_words(_digest(_key(seed), labels)))


class _StateWords(ISeedSequence):
    """One row of state words, handed to PCG64 as its seed sequence (PCG64
    asks for exactly ``generate_state(4, np.uint64)``)."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


def substream_states(seed: int, labels_list: Iterable) -> np.ndarray:
    """The PCG64 state words of ``substream(seed, *labels)`` for every label
    tuple in ``labels_list``, as an (n, 4) native ``uint64`` array: row i
    seeds, through ``generator``, the generator ``substream`` returns for the
    i-th tuple."""
    key = _key(seed)
    return _words(b"".join(_digest(key, labels) for labels in labels_list)).reshape(-1, 4)


def generator(words: np.ndarray) -> np.random.Generator:
    """The generator seeded by one row of ``substream_states``."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


def substreams(seed: int, labels_list: Iterable) -> Iterator[np.random.Generator]:
    """The generators ``substream(seed, *labels)`` for every label tuple in
    ``labels_list``, in order, each built when the iterator reaches it."""
    return map(generator, substream_states(seed, labels_list))
