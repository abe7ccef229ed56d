"""Golden pins: content checksums of a fixed-seed dataset and of models.

A pin is the body CRC32 that a ``.rfds`` or ``.rfmc`` file stores in its
trailer, i.e. the checksum of the file's content. The CRC32 of a whole
file would pin nothing: a file that ends in the CRC32 of its body has the
same whole-file CRC32 for every body under a given header (the CRC
residue).

A change to synthesis, seeding, training or quantization must keep these
values, or update them and say why in CHANGES.md.
"""

from __future__ import annotations

import logging
import struct

import pytest

import synth_oracle
from rfmc import blas, data, fileio, nn, quant

GOLDEN_SPEC = data.DatasetSpec(frames_per_class=20, master_seed=0)
GOLDEN_TRAIN = {"epochs": 3, "seed": 0}

DATASET_CRC = 0x907D81A6
FLOAT_MODEL_CRC = 0xF3B6FD06
QUANTIZED_MODEL_CRC = 0xAE59391F

# The dataset built under SeedSequence-keyed streams, and the float model
# trained on it. Training must keep giving that model bit for bit.
SEEDSEQUENCE_DATASET_CRC = 0xBBEB82C5
SEEDSEQUENCE_FLOAT_MODEL_CRC = 0x134DD5E0


def body_crc(path) -> int:
    with open(path, "rb") as f:
        return struct.unpack("<I", f.read()[-4:])[0]


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    dataset = data.build_dataset(GOLDEN_SPEC)
    params, _ = nn.train(dataset.frames, dataset.labels, **GOLDEN_TRAIN)
    qnet = quant.quantize_network(params, dataset.frames)
    paths = {name: tmp / name for name in ("golden.rfds", "float.rfmc", "quant.rfmc")}
    data.save_dataset(dataset, paths["golden.rfds"])
    fileio.save_float_model(paths["float.rfmc"], params)
    fileio.save_quantized_model(paths["quant.rfmc"], qnet)
    return {name: body_crc(path) for name, path in paths.items()}


def test_dataset_pin(golden):
    assert golden["golden.rfds"] == DATASET_CRC


def test_dataset_pin_without_blas_thread_control(tmp_path, monkeypatch, caplog):
    # another BLAS build: the one-thread hold is a no-op that says so once
    monkeypatch.setattr(blas, "_library", None)
    with caplog.at_level(logging.INFO, logger="rfmc.blas"):
        dataset = data.build_dataset(GOLDEN_SPEC)
    assert [r.name for r in caplog.records] == ["rfmc.blas"]
    data.save_dataset(dataset, tmp_path / "golden.rfds")
    assert body_crc(tmp_path / "golden.rfds") == DATASET_CRC


def test_float_model_pin(golden):
    assert golden["float.rfmc"] == FLOAT_MODEL_CRC


def test_quantized_model_pin(golden):
    assert golden["quant.rfmc"] == QUANTIZED_MODEL_CRC


def test_training_on_seedsequence_dataset_file_is_unchanged(tmp_path):
    path = tmp_path / "seedsequence.rfds"
    data.save_dataset(synth_oracle.seedsequence_dataset(GOLDEN_SPEC), path)
    assert body_crc(path) == SEEDSEQUENCE_DATASET_CRC
    dataset = data.load_dataset(path)
    params, _ = nn.train(dataset.frames, dataset.labels, **GOLDEN_TRAIN)
    fileio.save_float_model(tmp_path / "float.rfmc", params)
    assert body_crc(tmp_path / "float.rfmc") == SEEDSEQUENCE_FLOAT_MODEL_CRC
