"""Tests for the model container's checks on headers from outside."""

import struct

import pytest

from rfmc import fileio
from rfmc.fileio import FileFormatError


def model_header(dims, kind=fileio.KIND_FLOAT):
    """An RFMC header for ``dims`` [(out, in), ...] with no body after it."""
    blob = fileio.MODEL_MAGIC + struct.pack("<HBB", fileio.MODEL_VERSION, kind, len(dims))
    return blob + b"".join(struct.pack("<II", o, i) for o, i in dims)


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
