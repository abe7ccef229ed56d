"""The one way to run a model: a batch of raw frames in, a batch of logits out.

A model is either a float ``nn.NetworkParams`` (the "float" path) or a
``quant.QuantizedNetwork`` (the "quantized" path); this is the only module
outside ``fileio`` that tells the two apart. Every frame enters a model
through ``raw_logits``: eval, train's accuracy lines, classify, bench and
the stream server.

Raw input. A raw frame is 1800 int16 values (interleaved I, Q) in Q2.13
(``quant.INPUT_FORMAT``), whichever model reads it: the quantized path
feeds them to its datapath, whose input format is always Q2.13, and the
float path dequantizes them under the same format. A dataset holds its
frames in this form (``data.Dataset.frames_q``). On the wire (``rfmc
serve``, ``classify --raw``) a frame is ``FRAME_BYTES`` = 3600 bytes of
little-endian int16, frames back to back, and bytes arrive cut anywhere,
even inside a sample. Each byte stream has one ``FrameReader``: it turns
each piece of the stream into the whole frames that piece completes, and
holds the partial frame's bytes until more arrive; bytes held when the
stream ends are no frame.
"""

from __future__ import annotations

import numpy as np

from . import nn, quant
from .quant import INPUT_FORMAT, LOGITS_SLICE, QuantizedNetwork
from .sigsynth import FRAME_LEN, NUM_CLASSES

FRAME_BYTES = 2 * FRAME_LEN


class FrameReader:
    """The receiving end of one raw byte stream: ``feed`` it each piece as
    it arrives. ``held`` is the bytes of the partial frame, ``b""`` at the
    start."""

    __slots__ = ("held",)

    def __init__(self) -> None:
        self.held = b""

    def feed(self, data: bytes) -> np.ndarray:
        """The whole frames that ``data`` completes, as an (n, 1800) ``<i2``
        view of the bytes held so far (no copy); the tail stays in ``held``."""
        data = self.held + data
        n_frames = len(data) // FRAME_BYTES
        self.held = data[n_frames * FRAME_BYTES :]
        return np.frombuffer(data, "<i2", n_frames * FRAME_LEN).reshape(n_frames, FRAME_LEN)


def check_shape(model, source: str = "") -> None:
    """Raise ``ValueError`` unless ``model`` maps ``FRAME_LEN`` inputs to
    ``NUM_CLASSES`` outputs; the message starts with ``source`` (a file
    path) when one is given."""
    n_in, n_out = model.weights[0].shape[1], model.weights[-1].shape[0]
    if (n_in, n_out) != (FRAME_LEN, NUM_CLASSES):
        prefix = f"{source}: " if source else ""
        raise ValueError(f"{prefix}network has {n_in} inputs and {n_out} outputs, "
                         f"expected {FRAME_LEN} and {NUM_CLASSES}")


def path(model) -> str:
    """The model's kind: "quantized" for a ``QuantizedNetwork``, else "float"."""
    return "quantized" if isinstance(model, QuantizedNetwork) else "float"


def raw_logits(model, frames_q: np.ndarray) -> np.ndarray:
    """Raw int16 frames (n, 1800) in ``INPUT_FORMAT`` -> logits (n, 7), run
    ``LOGITS_SLICE`` frames at a time and concatenated.

    The quantized path feeds the integers to the datapath unchanged and
    returns its exact int64 logits; the float path reads them dequantized.
    """
    if len(frames_q) > LOGITS_SLICE:
        return np.concatenate([raw_logits(model, frames_q[i : i + LOGITS_SLICE])
                               for i in range(0, len(frames_q), LOGITS_SLICE)])
    if path(model) == "quantized":
        return quant.quantized_logits(model, frames_q)
    return nn.forward_batch(model, quant.dequantize_array(frames_q, INPUT_FORMAT))
