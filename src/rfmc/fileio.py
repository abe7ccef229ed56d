"""Binary model container shared by the float and quantized networks.

Layout (all little-endian):

  header:  magic "RFMC" | version u16 | kind u8 (0=float, 1=quantized)
           | layer count u8 | per layer: out_dim u32, in_dim u32
  float body:      per layer: weights f64 row-major, then biases f64
  quantized body:  per layer: weight frac_bits u8, activation frac_bits u8,
                   bias shift u8 (= weight_frac + act_frac), weights int16
                   row-major, biases int32 (pre-aligned at the bias shift)
  trailer: CRC32 of the body, u32, which ends the file

Corruption, truncation, and unknown formats raise distinct exceptions so
callers can report them separately. Headers come from outside the
program: layer dims must chain, and every size a header claims is checked
against the size of the file before it is read, so a hostile header ends
in a ``FileFormatError`` (``TruncatedFileError`` is one), never in an
allocation of the size it claims. Bytes after the trailer are a
``FileFormatError`` too.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import BinaryIO, Union

import numpy as np

from .nn import NetworkParams
from .quant import QuantizedNetwork

MODEL_MAGIC = b"RFMC"
MODEL_VERSION = 1
KIND_FLOAT = 0
KIND_QUANTIZED = 1


class ContainerError(Exception):
    """Base class for model/dataset container problems."""


class FileFormatError(ContainerError):
    """Bad magic, unsupported version, or malformed structure."""


class ChecksumError(ContainerError):
    """Body CRC32 does not match the stored trailer."""


class TruncatedFileError(FileFormatError):
    """File holds fewer bytes than its header claims."""


def check_remaining(f: BinaryIO, n: int, what: str) -> None:
    """Raise ``TruncatedFileError`` unless at least ``n`` bytes are left in
    the file (``os.fstat``), so a claimed size is checked before anything of
    that size is allocated or read."""
    remaining = os.fstat(f.fileno()).st_size - f.tell()
    if n > remaining:
        raise TruncatedFileError(
            f"truncated file: expected {n} bytes for {what}, {max(remaining, 0)} left"
        )


def read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes of a file.

    ``n`` is checked against the bytes left in the file (``os.fstat``)
    before anything is read, so a header claiming a huge size is rejected
    without allocating it.
    """
    check_remaining(f, n, what)
    data = f.read(n)
    if len(data) != n:
        raise TruncatedFileError(f"truncated file: expected {n} bytes for {what}, got {len(data)}")
    return data


def _write_header(f: BinaryIO, kind: int, dims: list[tuple[int, int]]) -> None:
    f.write(MODEL_MAGIC)
    f.write(struct.pack("<HBB", MODEL_VERSION, kind, len(dims)))
    for out_dim, in_dim in dims:
        f.write(struct.pack("<II", out_dim, in_dim))


def _read_header(f: BinaryIO) -> tuple[int, list[tuple[int, int]]]:
    magic = read_exact(f, 4, "magic")
    if magic != MODEL_MAGIC:
        raise FileFormatError(f"not a model file: bad magic {magic!r}")
    version, kind, n_layers = struct.unpack("<HBB", read_exact(f, 4, "header"))
    if version != MODEL_VERSION:
        raise FileFormatError(f"unsupported model version {version}")
    if kind not in (KIND_FLOAT, KIND_QUANTIZED):
        raise FileFormatError(f"unknown model kind {kind}")
    if n_layers == 0:
        raise FileFormatError("model has no layers")
    dims = []
    for i in range(n_layers):
        out_dim, in_dim = struct.unpack("<II", read_exact(f, 8, f"layer {i} dims"))
        if dims and in_dim != dims[-1][0]:
            raise FileFormatError(
                f"layer {i} input dim {in_dim} does not chain to the previous "
                f"output dim {dims[-1][0]}"
            )
        dims.append((out_dim, in_dim))
    return kind, dims


def write_body(f: BinaryIO, body: bytes) -> None:
    """Write ``body`` and the CRC32 trailer that ends the file."""
    f.write(body)
    f.write(struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def check_trailer(f: BinaryIO, crc: int, what: str) -> None:
    """Read the CRC32 trailer, which must end the file, and check it against
    ``crc``, the ``zlib.crc32`` of the body; ``what`` names the body in a
    mismatch."""
    (stored,) = struct.unpack("<I", read_exact(f, 4, "checksum"))
    extra = os.fstat(f.fileno()).st_size - f.tell()
    if extra:
        raise FileFormatError(f"{extra} unexpected bytes after the checksum trailer")
    actual = crc & 0xFFFFFFFF
    if stored != actual:
        raise ChecksumError(f"{what} CRC mismatch: stored {stored:#x}, computed {actual:#x}")


def save_float_model(path: str, params: NetworkParams) -> None:
    params.validate()
    chunks = []
    for w, b in zip(params.weights, params.biases):
        chunks.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    body = b"".join(chunks)
    with open(path, "wb") as f:
        _write_header(f, KIND_FLOAT, [w.shape for w in params.weights])
        write_body(f, body)


def save_quantized_model(path: str, qnet: QuantizedNetwork) -> None:
    qnet.validate()
    chunks = []
    for i, (w, b) in enumerate(zip(qnet.weights, qnet.biases)):
        chunks.append(
            struct.pack("<BBB", qnet.weight_frac[i], qnet.act_frac[i], qnet.acc_frac(i))
        )
        chunks.append(np.ascontiguousarray(w, dtype="<i2").tobytes())
        chunks.append(b.astype("<i4").tobytes())
    body = b"".join(chunks)
    with open(path, "wb") as f:
        _write_header(f, KIND_QUANTIZED, [w.shape for w in qnet.weights])
        write_body(f, body)


def _float_body_size(dims: list[tuple[int, int]]) -> int:
    return sum(8 * (o * i + o) for o, i in dims)


def _quant_body_size(dims: list[tuple[int, int]]) -> int:
    return sum(3 + 2 * o * i + 4 * o for o, i in dims)


def load_model(path: str) -> Union[NetworkParams, QuantizedNetwork]:
    """Load either model kind, dispatching on the header."""
    with open(path, "rb") as f:
        kind, dims = _read_header(f)
        size = _float_body_size(dims) if kind == KIND_FLOAT else _quant_body_size(dims)
        body = read_exact(f, size, "model body")
        check_trailer(f, zlib.crc32(body), "model body")
    if kind == KIND_FLOAT:
        return _parse_float_body(body, dims)
    return _parse_quant_body(body, dims)


def load_float_model(path: str) -> NetworkParams:
    model = load_model(path)
    if not isinstance(model, NetworkParams):
        raise FileFormatError(f"{path} holds a quantized model, expected float")
    return model


def load_quantized_model(path: str) -> QuantizedNetwork:
    model = load_model(path)
    if not isinstance(model, QuantizedNetwork):
        raise FileFormatError(f"{path} holds a float model, expected quantized")
    return model


def _parse_float_body(body: bytes, dims: list[tuple[int, int]]) -> NetworkParams:
    weights, biases = [], []
    offset = 0
    for out_dim, in_dim in dims:
        n = out_dim * in_dim
        weights.append(
            np.frombuffer(body, "<f8", n, offset).reshape(out_dim, in_dim).astype(np.float64)
        )
        offset += 8 * n
        biases.append(np.frombuffer(body, "<f8", out_dim, offset).astype(np.float64))
        offset += 8 * out_dim
    params = NetworkParams(weights, biases)
    params.validate()
    return params


def _parse_quant_body(body: bytes, dims: list[tuple[int, int]]) -> QuantizedNetwork:
    weights, biases, weight_frac, act_frac = [], [], [], []
    offset = 0
    for out_dim, in_dim in dims:
        wf, af, shift = struct.unpack_from("<BBB", body, offset)
        offset += 3
        if shift != wf + af:
            raise FileFormatError(
                f"inconsistent bias shift {shift} for formats w={wf}, a={af}"
            )
        weight_frac.append(wf)
        act_frac.append(af)
        n = out_dim * in_dim
        weights.append(
            np.ascontiguousarray(
                np.frombuffer(body, "<i2", n, offset).reshape(out_dim, in_dim)
            )
        )
        offset += 2 * n
        biases.append(np.frombuffer(body, "<i4", out_dim, offset).astype(np.int64))
        offset += 4 * out_dim
    return QuantizedNetwork(weights, biases, weight_frac, act_frac)
