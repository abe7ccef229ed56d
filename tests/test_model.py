"""Tests for rfmc.model: one batch-first way to run either model kind."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfmc import model, nn, quant
from rfmc.model import FRAME_BYTES
from rfmc.quant import INPUT_FORMAT
from test_quant import per_neuron_accumulators

# Fixed ways a reader may receive a byte stream of two frames or more, as
# the offsets it is cut at: uncut, every 1001 bytes, one byte at a time
# through the second frame, and inside the last sample of the first frame
# and the first sample of the second.
SPLITS = {
    "one_piece": lambda n_bytes: [],
    "odd_chunks": lambda n_bytes: list(range(1001, n_bytes, 1001)),
    "byte_by_byte": lambda n_bytes: list(range(FRAME_BYTES, 2 * FRAME_BYTES + 1)),
    "inside_a_sample": lambda n_bytes: [FRAME_BYTES - 1, FRAME_BYTES + 1],
}


def pieces(blob: bytes, cuts) -> list[bytes]:
    """``blob`` cut at the sorted offsets ``cuts``."""
    return [blob[start:end] for start, end in zip([0, *cuts], [*cuts, len(blob)])]


@pytest.fixture(scope="module")
def frames(small_pipeline):
    """Held-out float frames plus random unit-power frames."""
    rng = np.random.default_rng(41)
    noise = rng.standard_normal((6, 1800)) * np.sqrt(0.5)
    return np.concatenate([small_pipeline["test"].frames[:10], noise])


@pytest.fixture(scope="module")
def qnet(small_pipeline):
    return small_pipeline["qnet"]


@pytest.fixture(params=["float", "quantized"])
def net(request, small_pipeline, qnet):
    return small_pipeline["params"] if request.param == "float" else qnet


def raw_frames(frames):
    return quant.quantize_array(frames, INPUT_FORMAT)


def read_in_pieces(parts):
    """The frames and the leftover bytes of a stream that arrives in
    ``parts``, each part fed to one ``model.FrameReader``."""
    reader = model.FrameReader()
    frames = [reader.feed(part) for part in parts]
    return np.concatenate(frames), reader.held


class TestFrameReader:
    @staticmethod
    def stream(n_frames, tail_len, seed):
        rng = np.random.default_rng(seed)
        frames = rng.integers(-32768, 32768, (n_frames, 1800), dtype=np.int16)
        tail = rng.bytes(tail_len)
        return frames, tail, frames.astype("<i2").tobytes() + tail

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_cuts_give_the_frames_then_the_tail(self, data):
        frames, tail, blob = self.stream(
            data.draw(st.integers(0, 4), label="frames"),
            data.draw(st.integers(0, FRAME_BYTES - 1), label="tail"),
            data.draw(st.integers(0, 2**32 - 1), label="seed"),
        )
        cuts = sorted(data.draw(st.lists(st.integers(0, len(blob)), max_size=12), label="cuts"))
        got, held = read_in_pieces(pieces(blob, cuts))
        assert np.array_equal(got, frames)
        assert held == tail

    @pytest.mark.parametrize("split", SPLITS)
    def test_fixed_cuts_give_the_frames_then_the_tail(self, split):
        frames, tail, blob = self.stream(3, 77, seed=8)
        got, held = read_in_pieces(pieces(blob, SPLITS[split](len(blob))))
        assert np.array_equal(got, frames)
        assert held == tail

    def test_frames_view_the_bytes_held(self):
        frames, tail, blob = self.stream(2, 5, seed=9)
        reader = model.FrameReader()
        assert reader.held == b""
        frames_q = reader.feed(blob)
        assert frames_q.dtype == np.dtype("<i2") and frames_q.shape == (2, 1800)
        assert np.shares_memory(frames_q, np.frombuffer(blob, np.uint8))
        assert np.array_equal(frames_q, frames) and reader.held == tail

    @staticmethod
    def assert_labels_of_whole_frames(net, frames, cuts):
        """Assert that the raw frames of ``frames`` plus a 77-byte tail, cut
        at ``cuts`` and fed to one reader with each piece's frames classified
        as they complete, as the server and ``classify --raw`` do, give the
        labels of the frames classified whole."""
        frames_q = raw_frames(frames)
        reader = model.FrameReader()
        labels = [np.argmax(model.raw_logits(net, reader.feed(part)), axis=1)
                  for part in pieces(frames_q.astype("<i2").tobytes() + b"\x55" * 77, cuts)]
        whole = np.argmax(model.raw_logits(net, frames_q), axis=1)
        assert np.concatenate(labels).tolist() == whole.tolist()
        assert len(reader.held) == 77

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("kind", ["float", "quantized"])
    def test_any_cuts_give_the_labels_of_the_whole_frames(self, small_pipeline, qnet, frames,
                                                          kind, data):
        net = small_pipeline["params"] if kind == "float" else qnet
        n_bytes = len(frames) * FRAME_BYTES + 77
        cuts = sorted(data.draw(st.lists(st.integers(0, n_bytes), max_size=12), label="cuts"))
        self.assert_labels_of_whole_frames(net, frames, cuts)

    @pytest.mark.parametrize("split", SPLITS)
    def test_fixed_cuts_give_the_labels_of_the_whole_frames(self, net, frames, split):
        cuts = SPLITS[split](len(frames) * FRAME_BYTES + 77)
        self.assert_labels_of_whole_frames(net, frames, cuts)


class TestKind:
    def test_path(self, small_pipeline, qnet):
        assert model.path(small_pipeline["params"]) == "float"
        assert model.path(qnet) == "quantized"


class TestBatchRows:
    def test_raw_logits_rows_equal_one_row_calls(self, net, frames):
        frames_q = raw_frames(frames)
        batch = model.raw_logits(net, frames_q)
        rows = np.concatenate([model.raw_logits(net, f[np.newaxis]) for f in frames_q])
        assert batch.shape == (len(frames), 7)
        if model.path(net) == "quantized":
            assert batch.dtype == np.int64
            assert np.array_equal(batch, rows)
        else:
            assert np.array_equal(np.argmax(batch, axis=1), np.argmax(rows, axis=1))

    def test_slices_give_the_whole_batch(self, net, frames, monkeypatch):
        frames_q = raw_frames(frames)
        whole = model.raw_logits(net, frames_q)
        monkeypatch.setattr(model, "LOGITS_SLICE", 3)  # 16 frames: 5 slices of 3, then 1
        sliced = model.raw_logits(net, frames_q)
        if model.path(net) == "quantized":
            assert np.array_equal(sliced, whole)
        else:
            assert np.allclose(sliced, whole, rtol=1e-12, atol=1e-12)

    def test_empty_batch(self, net):
        assert model.raw_logits(net, np.zeros((0, 1800), np.int16)).shape == (0, 7)


class TestQuantized:
    def test_raw_logits_match_per_neuron_oracle(self, qnet, frames):
        frames_q = raw_frames(frames[:4])
        expected = [per_neuron_accumulators(qnet, f)[-1] for f in frames_q]
        assert model.raw_logits(qnet, frames_q).tolist() == expected

    def test_raw_input_must_be_int16(self, qnet):
        with pytest.raises(ValueError):
            model.raw_logits(qnet, np.zeros((1, 1800)))


class TestFloat:
    def test_raw_logits_read_q2_13(self, small_pipeline):
        params = small_pipeline["params"]
        rng = np.random.default_rng(5)
        frames_q = rng.integers(-32768, 32768, size=(9, 1800), dtype=np.int16)
        expected = nn.forward_batch(params, frames_q / 8192)
        assert np.array_equal(model.raw_logits(params, frames_q), expected)

    def test_logits_match_forward_batch(self, small_pipeline):
        # a dataset's int16 frames read as the real values ``frames`` gives
        params, test_ds = small_pipeline["params"], small_pipeline["test"]
        expected = nn.forward_batch(params, test_ds.frames.astype(np.float64))
        assert np.array_equal(model.raw_logits(params, test_ds.frames_q), expected)
