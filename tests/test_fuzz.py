"""Fuzz tests: damaged dataset and model files are rejected, never crash.

A file from outside the program may be truncated, bit-flipped, carry a
random header, carry a damaged body under a valid CRC, or carry bytes
after its CRC trailer. Loading one must either succeed or raise
``ContainerError`` or ``ValueError``, the two exceptions the CLI reports
as an ``error:`` line.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfmc import data, fileio, nn, quant
from rfmc.fileio import ContainerError, FileFormatError
from rfmc.sigsynth import FRAME_LEN

EXAMPLES = settings(max_examples=25, deadline=None)

# Leading header bytes the fuzzing keeps intact, the magic and the
# version, so that random header bytes reach the checks behind them.
KEPT = 6
DATASET_HEADER = 12
# A dataset record: label u8, snr flag u8, snr_db f32, 1800 int16 samples.
DATASET_RECORD = 6 + 2 * FRAME_LEN
TINY_DIMS = (6, 4, 3)


def model_header_len(n_layers):
    return 8 + 8 * n_layers


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """kind -> (intact file bytes, header length, loader)."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    dataset = data.Dataset(
        rng.integers(-32768, 32768, (2, FRAME_LEN), dtype=np.int16),
        np.array([0, 3], np.uint8),
        np.array([np.nan, 6.0], np.float32),
    )
    params = nn.init_params(TINY_DIMS, seed=1)
    qnet = quant.quantize_network(params, rng.standard_normal((8, TINY_DIMS[0])))
    data.save_dataset(dataset, root / "ds.rfds")
    fileio.save_float_model(root / "float.rfmc", params)
    fileio.save_quantized_model(root / "quant.rfmc", qnet)
    n_layers = len(TINY_DIMS) - 1
    assert (root / "ds.rfds").stat().st_size == DATASET_HEADER + 2 * DATASET_RECORD + 4
    return {
        "dataset": ((root / "ds.rfds").read_bytes(), DATASET_HEADER, data.load_dataset),
        "float": ((root / "float.rfmc").read_bytes(), model_header_len(n_layers), fileio.load_model),
        "quantized": ((root / "quant.rfmc").read_bytes(), model_header_len(n_layers),
                      fileio.load_model),
    }


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzzed") / "file"


def load(path, blob, loader):
    """Write ``blob`` and load it; True if it loaded, False if it was rejected
    with one of the exceptions the CLI reports."""
    path.write_bytes(blob)
    try:
        loader(path)
    except (ContainerError, ValueError):
        return False
    return True


KINDS = pytest.mark.parametrize("kind", ["dataset", "float", "quantized"])


@KINDS
@EXAMPLES
@given(fraction=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_file_rejected(originals, scratch, kind, fraction):
    blob, _, loader = originals[kind]
    assert not load(scratch, blob[: int(len(blob) * fraction)], loader)


@KINDS
@EXAMPLES
@given(picks=st.data())
def test_single_bit_flip_rejected(originals, scratch, kind, picks):
    blob, header, loader = originals[kind]
    # half the draws land in the header, where each field has its own check
    limit = picks.draw(st.sampled_from([header, len(blob)]))
    bit = picks.draw(st.integers(0, 8 * limit - 1))
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    assert not load(scratch, bytes(flipped), loader)


def overwrite(draw, buf, start):
    """Set 1 to 8 random bytes of ``buf`` at or after ``start`` to random values."""
    for _ in range(draw(st.integers(1, 8))):
        buf[draw(st.integers(start, len(buf) - 1))] = draw(st.integers(0, 255))


@KINDS
@EXAMPLES
@given(edits=st.data())
def test_random_header_bytes_rejected_or_loaded(originals, scratch, kind, edits):
    blob, header, loader = originals[kind]
    fields = bytearray(blob[:header])
    overwrite(edits.draw, fields, KEPT)
    load(scratch, bytes(fields) + blob[header:], loader)


@KINDS
@EXAMPLES
@given(edits=st.data())
def test_damaged_body_with_valid_crc_rejected_or_loaded(originals, scratch, kind, edits):
    blob, header, loader = originals[kind]
    body = bytearray(blob[header:-4])
    overwrite(edits.draw, body, 0)
    crc = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    load(scratch, blob[:header] + bytes(body) + crc, loader)


@KINDS
@EXAMPLES
@given(junk=st.binary(min_size=1, max_size=64))
def test_bytes_after_trailer_rejected(originals, scratch, kind, junk):
    blob, _, loader = originals[kind]
    scratch.write_bytes(blob + junk)
    with pytest.raises(FileFormatError, match="after the checksum trailer"):
        loader(scratch)


@KINDS
def test_second_file_appended_rejected(originals, scratch, kind):
    blob, _, loader = originals[kind]
    scratch.write_bytes(blob + blob)
    with pytest.raises(FileFormatError, match="after the checksum trailer"):
        loader(scratch)
