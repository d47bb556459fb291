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


def assert_same_generators(seed, labels_list):
    batch = list(rngmod.substreams(seed, labels_list))
    assert len(batch) == len(labels_list)
    for labels, gen in zip(labels_list, batch):
        reference = rngmod.substream(seed, *labels)
        assert gen.bit_generator.state == reference.bit_generator.state, labels
        assert np.array_equal(gen.random(8), reference.random(8)), labels


@pytest.mark.parametrize(
    "seed",
    [0, 7, 2**32 - 1, 2**32, 2**32 + 7, 2**64 - 1, -1],
    ids=["zero", "seven", "top-one-word", "two-words", "two-words-plus-7", "max", "minus-one"],
)
def test_substreams_match_substream(seed):
    # a seed at or above 2**32 enters SeedSequence as two entropy words, so
    # its rows mix six words instead of five; -1 is masked to 2**64 - 1
    assert_same_generators(seed, LABELS)


def test_minus_one_is_the_top_seed():
    top, minus_one = (list(rngmod.substreams(s, LABELS[:2])) for s in (2**64 - 1, -1))
    for a, b in zip(top, minus_one):
        assert a.bit_generator.state == b.bit_generator.state


def test_many_rows_match():
    assert_same_generators(2**32 + 7, [("act", f"user_{i:05d}") for i in range(300)])


def test_bytes_label_hashes_its_repr():
    (as_bytes,) = rngmod.substreams(5, [("evaluator", b"abc")])
    (as_repr,) = rngmod.substreams(5, [("evaluator", "b'abc'")])
    assert as_bytes.bit_generator.state == as_repr.bit_generator.state


def test_rows_independent_of_batch():
    alone = [next(rngmod.substreams(11, [labels])) for labels in LABELS]
    batch = list(rngmod.substreams(11, LABELS[::-1]))[::-1]
    for a, b in zip(alone, batch):
        assert a.bit_generator.state == b.bit_generator.state


def test_empty_list():
    assert list(rngmod.substreams(3, [])) == []


def int_list_generator(seed, labels):
    """The generator numpy builds from ``[seed & (2**64 - 1)]`` plus the label
    digest's four little-endian words as Python ints, coerced by SeedSequence."""
    digest = rngmod._label_digest(labels)
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    entropy = np.random.SeedSequence([seed & (2**64 - 1)] + words)
    return np.random.Generator(np.random.PCG64(entropy))


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**32 + 7, 2**64 - 1, -1])
def test_substream_matches_int_list_entropy(seed):
    for labels in LABELS:
        expected = int_list_generator(seed, labels)
        assert rngmod.substream(seed, *labels).bit_generator.state == (
            expected.bit_generator.state
        ), labels


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(-(2**64), 2**65 - 1),
    labels=st.lists(st.one_of(st.text(), st.binary(), st.integers()), max_size=4),
)
def test_substream_matches_int_list_entropy_for_any_seed(seed, labels):
    expected = int_list_generator(seed, labels)
    assert rngmod.substream(seed, *labels).bit_generator.state == expected.bit_generator.state
