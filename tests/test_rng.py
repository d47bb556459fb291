import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madd import rng as rngmod

LABELS = [
    ("act", "user_00000"),
    ("act", "user_00001"),
    ("schedule", "mbot_politics_000"),
    ("evaluator", b'{"kind":"trust_threshold"}'),  # hashed through its repr
    ("evaluator", b"\x00\xff"),
    ("bot-si", "lbot_café_001"),  # non-ASCII
    ("belief", "user_00002", "claim-7", 3),  # multi-part, a non-string part
    ("accept",),
    (),
]


def test_minus_one_is_the_top_seed():
    for labels in LABELS[:2]:
        top, minus_one = (rngmod.substream(s, *labels) for s in (2**64 - 1, -1))
        assert top.bit_generator.state == minus_one.bit_generator.state


def test_bytes_label_hashes_its_repr():
    as_bytes = rngmod.substream(5, "evaluator", b"abc")
    as_repr = rngmod.substream(5, "evaluator", "b'abc'")
    assert as_bytes.bit_generator.state == as_repr.bit_generator.state


class _Words(np.random.bit_generator.ISeedSequence):
    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def hashlib_words(seed, labels):
    """The four little-endian 64-bit words of blake2b over the labels joined
    with "\\x1f", keyed by the seed masked to 64 bits as eight little-endian
    bytes, as Python ints."""
    key = (seed & (2**64 - 1)).to_bytes(8, "little")
    joined = "\x1f".join(map(str, labels)).encode("utf-8")
    digest = hashlib.blake2b(joined, digest_size=32, key=key).digest()
    return [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]


def hashlib_generator(seed, labels):
    """The generator PCG64 seeds from ``hashlib_words``, built without madd.rng."""
    return np.random.Generator(np.random.PCG64(_Words(hashlib_words(seed, labels))))


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**32 + 7, 2**64 - 1, -1])
def test_substream_matches_hashlib_reference(seed):
    for labels in LABELS:
        expected = hashlib_generator(seed, labels)
        assert rngmod.substream(seed, *labels).bit_generator.state == (
            expected.bit_generator.state
        ), labels


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(-(2**64), 2**65 - 1),
    labels=st.lists(st.one_of(st.text(), st.binary(), st.integers()), max_size=4),
)
def test_substream_matches_hashlib_reference_for_any_seed(seed, labels):
    expected = hashlib_generator(seed, labels)
    assert rngmod.substream(seed, *labels).bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize(
    "seed, labels, doubles",
    [
        (7, ("act", "user_00000"),
         [0.6683327396211814, 0.08815469572309675, 0.5242312117304374]),
        (2**32 + 7, ("evaluator", b'{"kind":"trust_threshold"}'),
         [0.6890446262462384, 0.4138751632655253, 0.880885747446523]),
        (2**64 - 1, (), [0.6262227685389702, 0.6801151333251672, 0.9617019950195022]),
    ],
    ids=["act", "evaluator-bytes", "top-seed-no-labels"],
)
def test_first_doubles_pinned(seed, labels, doubles):
    # a change in numpy's PCG64 seeding or draws fails here, before any digest
    assert rngmod.substream(seed, *labels).random(3).tolist() == doubles
