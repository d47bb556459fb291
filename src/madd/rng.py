"""Deterministic random-stream derivation.

Every stochastic component draws from its own substream derived from the run
seed plus string labels, so results are reproducible regardless of evaluation
order or platform (blake2b is stable; Python's builtin hash() is salted and
never used here).

``substream(seed, *labels)`` is the reference path. Its uint32 entropy
words are the seed's from ``_seed_words`` (masked to 64 bits; one word below
2**32, two from there up), then the four little-endian words of blake2b
over the labels joined as ``str`` (a ``bytes`` label hashes its repr).
numpy's ``SeedSequence`` mixes them and its ``generate_state(4, uint64)``
seeds ``PCG64`` (O'Neill, "PCG: A family of simple fast space-efficient
statistically good algorithms for random number generation", HMC-CS-2014-0905).

``substreams(seed, labels_list)`` serves many label tuples at once, from the
same seed words. ``substream_states`` repeats SeedSequence's entropy mixing
and state hashing as uint32 array arithmetic over all rows and keeps each
row's four 64-bit state words; ``generator`` seeds a row's ``PCG64`` from
them, which ``substreams`` does only when that row's generator is read. It
pays off from about 15-20 rows. Contract: row i is bit-for-bit
the generator ``substream(seed, *labels_list[i])`` returns - the same
``bit_generator.state`` and the same draws (tests/test_rng.py compares both).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# numpy.random.SeedSequence's constants: a pool of four 32-bit words, hashed
# in with a multiplier that advances on every use
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = np.uint32(16)


def _label_digest(labels) -> bytes:
    joined = "\x1f".join(map(str, labels)).encode("utf-8")
    return hashlib.blake2b(joined, digest_size=16).digest()


def _seed_words(seed: int) -> list[int]:
    seed = int(seed) & _MASK64
    return [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]


def substream(seed: int, *labels: object) -> np.random.Generator:
    """Generator for the substream named by ``labels`` under ``seed``."""
    label_words = np.frombuffer(_label_digest(labels), dtype="<u4")
    entropy = np.concatenate((np.array(_seed_words(seed), dtype=np.uint32), label_words))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


class _Hasher:
    """SeedSequence's multiply-xorshift hash over uint32 columns; the
    multiplier sequence does not depend on the data, only on the call count."""

    def __init__(self, init: int, mult: int):
        self._const = init
        self._mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self._const)
        self._const = self._const * self._mult & _MASK32
        value = value * np.uint32(self._const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _state_words(seed: int, label_words: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed] + row).generate_state(4, np.uint64)`` for every
    row of the (n, 4) uint32 ``label_words``, as an (n, 4) uint64 array."""
    n = len(label_words)
    entropy = [np.full(n, w, dtype=np.uint32) for w in _seed_words(seed)]
    entropy += [label_words[:, j] for j in range(4)]

    # SeedSequence.mix_entropy; five or six words, so the pool needs no padding
    hashmix = _Hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))

    # SeedSequence.generate_state(4, np.uint64): eight uint32 words cycling
    # through the pool, paired low word first
    hash_out = _Hasher(_INIT_B, _MULT_B)
    out = [hash_out(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return np.stack([out[2 * k] | out[2 * k + 1] << np.uint64(32) for k in range(4)], axis=1)


class _StateWords(ISeedSequence):
    """One row of precomputed state words, handed to PCG64 as its seed
    sequence (PCG64 asks for exactly ``generate_state(4, np.uint64)``)."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


def substream_states(seed: int, labels_list: Iterable) -> np.ndarray:
    """The PCG64 state words of ``substream(seed, *labels)`` for every label
    tuple in ``labels_list``, as an (n, 4) uint64 array: row i seeds, through
    ``generator``, the generator ``substream`` returns for the i-th tuple."""
    digests = b"".join(_label_digest(labels) for labels in labels_list)
    label_words = np.frombuffer(digests, dtype="<u4").reshape(-1, 4)
    return _state_words(seed, label_words)


def generator(words: np.ndarray) -> np.random.Generator:
    """The generator seeded by one row of ``substream_states``."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


def substreams(seed: int, labels_list: Iterable) -> Iterator[np.random.Generator]:
    """The generators ``substream(seed, *labels)`` for every label tuple in
    ``labels_list``, in order.

    Labels are hashed and mixed at call time and only 32 bytes of state are
    kept per row; each Generator is built when the iterator reaches it.

    The array pass has a fixed cost: about 0.3 ms for one row and 0.3-0.4 ms
    for 5-20 rows, against about 20 us per ``substream`` call (each generator
    read once; 2-vCPU VM, Python 3.11, numpy 2.4). A batch breaks even with
    scalar ``substream`` calls at about 15-20 rows; below that, call
    ``substream`` per row.
    """
    return map(generator, substream_states(seed, labels_list))
