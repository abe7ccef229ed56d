"""Tests for the model container's checks on files from outside."""

import struct
import zlib

import numpy as np
import pytest

from rfmc import fileio, quant
from rfmc.fileio import FileFormatError


def model_header(dims, kind=fileio.KIND_FLOAT):
    """An RFMC header for ``dims`` [(out, in), ...] with no body after it."""
    blob = fileio.MODEL_MAGIC + struct.pack("<HBB", fileio.MODEL_VERSION, kind, len(dims))
    return blob + b"".join(struct.pack("<II", o, i) for o, i in dims)


def with_input_frac(blob: bytes, frac: int) -> bytes:
    """A quantized model file with layer 0's act_frac byte set to ``frac``,
    its bias-shift byte and the body CRC32 made consistent again."""
    n_layers = blob[7]
    body = bytearray(blob[8 + 8 * n_layers : -4])
    body[1] = frac
    body[2] = body[0] + frac
    return blob[: 8 + 8 * n_layers] + bytes(body) + struct.pack("<I", zlib.crc32(body))


def test_second_input_format_rejected(tmp_path):
    qnet = quant.QuantizedNetwork(
        [np.array([[3, -1], [2, 5]], np.int16), np.array([[1, 1]], np.int16)],
        [np.array([10, -4], np.int64), np.array([7], np.int64)],
        weight_frac=[14, 12],
        act_frac=[13, 11],
    )
    path = tmp_path / "q.rfmc"
    fileio.save_quantized_model(path, qnet)
    blob = path.read_bytes()
    assert with_input_frac(blob, 13) == blob
    assert fileio.load_model(path).act_frac == [13, 11]
    path.write_bytes(with_input_frac(blob, 14))
    with pytest.raises(ValueError, match="Q2.13"):
        fileio.load_model(path)


@pytest.mark.parametrize("kind", [fileio.KIND_FLOAT, fileio.KIND_QUANTIZED])
def test_layer_larger_than_the_file_rejected(tmp_path, kind):
    path = tmp_path / "hostile.rfmc"
    path.write_bytes(model_header([(2**32 - 1, 2**20)], kind) + bytes(64))
    with pytest.raises(FileFormatError):
        fileio.load_model(path)


def test_dims_that_do_not_chain_rejected_before_the_body(tmp_path):
    path = tmp_path / "unchained.rfmc"
    path.write_bytes(model_header([(100, 1800), (7, 20)]))
    with pytest.raises(FileFormatError, match="chain"):
        fileio.load_model(path)
