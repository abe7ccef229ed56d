"""Deterministic, platform-independent random streams.

Every stochastic operation in the package draws from a counter-based
Philox4x64 generator, so identical seeds reproduce identical bits on any
platform.

Dataset frames draw from counter-keyed streams (Salmon et al., "Parallel
Random Numbers: As Easy as 1, 2, 3", SC'11). The master seed is the
128-bit Philox key; the 256-bit counter starts at
``[0, frame index, class, stream]``. Word 0 is the block counter and
carries into word 1, so the streams of distinct (class, index, stream)
triples are disjoint for the first 2**64 blocks (2**66 raw 64-bit draws)
of each. A frame's randomness is therefore a pure function of
(master seed, class, index, stream), whatever order frames are made in,
and no hash is computed to find it.

``frame_seed`` builds one frame's generator. ``FrameStreams`` gives the
same streams for a run of frames more cheaply: constructing a ``Philox``
draws OS entropy for a seed sequence that the key then overrides, while
re-keying one generator through its ``state`` does not.
"""

from __future__ import annotations

import numpy as np

KEY_MASK = (1 << 128) - 1
_WORD_MASK = (1 << 64) - 1


def rng_from_seed(seed: int) -> np.random.Generator:
    """Return a Philox generator keyed directly by ``seed``."""
    return np.random.Generator(np.random.Philox(key=seed & KEY_MASK))


def split_seed(seed: int, n: int) -> list[int]:
    """Derive ``n`` independent 64-bit child seeds from one master seed."""
    ss = np.random.SeedSequence(seed & KEY_MASK)
    return [int(child.generate_state(1, np.uint64)[0]) for child in ss.spawn(n)]


def frame_seed(master_seed: int, class_id: int, frame_index: int, stream: int = 0) -> np.random.Generator:
    """One frame's stream, seeded: a Philox generator keyed by ``master_seed``
    with its counter starting at ``[0, frame_index, class_id, stream]``.

    ``stream`` separates independent uses for the same frame (symbols or
    the noise-class samples are stream 0, channel noise is stream 1).
    """
    counter = np.array([0, frame_index, class_id, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=master_seed & KEY_MASK, counter=counter))


class FrameStreams:
    """The streams ``frame_seed(master_seed, class_id, i, stream)`` of frames
    ``i = start .. start + n - 1``, as one generator re-keyed as it is iterated.

    Iteration yields that one generator ``n`` times, set to the next frame's
    stream just before each yield, so each frame's draws must be
    taken before the iteration moves on, as ``sigsynth.modulate_batch``,
    ``sigsynth.gen_noise_batch`` and ``channel.apply_awgn_batch`` take them.
    """

    def __init__(self, master_seed: int, class_id: int, n: int, stream: int = 0,
                 start: int = 0) -> None:
        key = master_seed & KEY_MASK
        self._key = np.array([key & _WORD_MASK, key >> 64], dtype=np.uint64)
        self._class_id = class_id
        self._n = n
        self._stream = stream
        self._start = start

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        bit_gen = np.random.Philox(0)
        generator = np.random.Generator(bit_gen)
        counter = np.array([0, 0, self._class_id, self._stream], dtype=np.uint64)
        state = {
            "bit_generator": "Philox",
            "state": {"counter": counter, "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,  # the buffer is empty, as in a new generator
            "has_uint32": 0,
            "uinteger": 0,
        }
        for index in range(self._start, self._start + self._n):
            counter[1] = index
            bit_gen.state = state  # copied in, so ``counter`` can change next
            yield generator
