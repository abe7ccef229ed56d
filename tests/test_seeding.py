"""Tests for the counter-keyed frame streams."""

import itertools

import numpy as np
import pytest

from rfmc.seeding import KEY_MASK, FrameStreams, frame_seed


def test_streams_of_distinct_triples_differ():
    first = {}
    for cls, idx, stream in itertools.product(range(7), range(40), range(2)):
        draws = frame_seed(2024, cls, idx, stream).bit_generator.random_raw(4)
        first[(cls, idx, stream)] = tuple(draws.tolist())
    assert len(set(first.values())) == len(first)


def test_stream_is_keyed_by_the_master_seed():
    a = frame_seed(1, 3, 5, 0).bit_generator.random_raw(8)
    b = frame_seed(2, 3, 5, 0).bit_generator.random_raw(8)
    assert not np.array_equal(a, b)
    c = frame_seed(1 + (1 << 128), 3, 5, 0).bit_generator.random_raw(8)
    assert np.array_equal(a, c)  # the key is the master seed mod 2**128


def test_block_counter_carries_into_the_frame_index_word():
    # Word 0 counts blocks; past 2**64 - 1 it wraps and carries into word 1,
    # the frame index, so a frame's stream only reaches its neighbour's
    # after 2**64 blocks.
    bit_gen = frame_seed(7, 2, 9, 1).bit_generator
    state = bit_gen.state
    state["state"]["counter"] = np.array([2**64 - 1, 9, 2, 1], dtype=np.uint64)
    bit_gen.state = state
    bit_gen.random_raw(4)  # one 4-word block
    assert bit_gen.state["state"]["counter"].tolist() == [0, 10, 2, 1]
    assert bit_gen.state["state"]["key"].tolist() == [7 & KEY_MASK, 0]


@pytest.mark.parametrize("start", [0, 257])
def test_frame_streams_give_each_frame_its_frame_seed_stream(start):
    master = (1 << 130) + 11
    streams = FrameStreams(master, 4, 6, stream=1, start=start)
    assert len(streams) == 6
    for _ in range(2):  # a second pass starts again at frame ``start``
        seen = 0
        for idx, rng in enumerate(streams, start):
            expected = frame_seed(master, 4, idx, 1)
            # an odd number of 32-bit draws leaves half a word buffered;
            # the next frame's stream must not see it
            assert np.array_equal(rng.integers(0, 4, size=3, dtype=np.uint32),
                                  expected.integers(0, 4, size=3, dtype=np.uint32))
            assert np.array_equal(rng.standard_normal(5), expected.standard_normal(5))
            seen += 1
        assert seen == 6
