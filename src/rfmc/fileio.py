"""Binary containers: the float model, the quantized model and the dataset.

All three kinds share one framing (little-endian), written by
``write_file`` and opened by ``read_preamble``:

  magic, 4 bytes | version u16 | the kind's other header fields | body
  | CRC32 of the body, u32: the trailer, which ends the file

Files come from outside the program. Every size a header claims is
checked against the size of the file before anything of that size is
allocated or read, so a hostile header ends in a ``FileFormatError``
(``TruncatedFileError`` is one), never in an allocation. Bytes after the
trailer are a ``FileFormatError`` too; a body failing its CRC is a
``ChecksumError``. ``rfmc.data`` gives the dataset's header and body
(version 2: records of int16 Q2.13 frames).

A model file has the magic "RFMC", a header of kind u8 (0=float,
1=quantized), layer count u8 and per layer out_dim u32, in_dim u32 (the
dims must chain), and a body of, per layer, the format bytes, the weights
row-major and the biases, as ``BODY_LAYOUTS`` gives them for the kind:
  float:      no format bytes, weights f64, biases f64
  quantized:  weight frac_bits u8, activation frac_bits u8, bias shift u8
              (= weight_frac + act_frac), weights int16, biases int32
              (pre-aligned at the bias shift)
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import BinaryIO, Iterable, NamedTuple, Union

import numpy as np

from .nn import NetworkParams
from .quant import QuantizedNetwork

MODEL_MAGIC = b"RFMC"
MODEL_VERSION = 1
KIND_FLOAT = 0
KIND_QUANTIZED = 1


class BodyLayout(NamedTuple):
    format_bytes: int  # per layer, before the weights: 0 float, 3 quantized
    weight: np.dtype
    bias: np.dtype


# Each kind's body layout (see above): ``_save_model`` writes and
# ``load_model`` reads both kinds from this one table.
BODY_LAYOUTS = {
    KIND_FLOAT: BodyLayout(0, np.dtype("<f8"), np.dtype("<f8")),
    KIND_QUANTIZED: BodyLayout(3, np.dtype("<i2"), np.dtype("<i4")),
}


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
    """Read exactly ``n`` bytes of a file, checked by ``check_remaining`` first."""
    check_remaining(f, n, what)
    data = f.read(n)
    if len(data) != n:
        raise TruncatedFileError(f"truncated file: expected {n} bytes for {what}, got {len(data)}")
    return data


def write_file(path: str, magic: bytes, fmt: str, header: tuple, body_parts: Iterable) -> None:
    """Write a container: ``magic``, ``header`` packed by ``fmt`` (the version
    u16 first), each of ``body_parts`` (contiguous buffers) as it is, and the
    CRC32 trailer."""
    crc = 0
    with open(path, "wb") as f:
        f.write(magic + struct.pack(fmt, *header))
        for part in body_parts:
            f.write(part)
            crc = zlib.crc32(part, crc)
        f.write(struct.pack("<I", crc))


def read_preamble(f: BinaryIO, magic: bytes, version: int, fmt: str, what: str) -> list:
    """Check a container's magic and version, and return the other fields of
    its header (``fmt``, the version u16 first); ``what`` names the kind."""
    found = read_exact(f, len(magic), "magic")
    if found != magic:
        raise FileFormatError(f"not a {what} file: bad magic {found!r}")
    found_version, *fields = struct.unpack(fmt, read_exact(f, struct.calcsize(fmt), "header"))
    if found_version != version:
        raise FileFormatError(f"unsupported {what} version {found_version}")
    return fields


def check_trailer(f: BinaryIO, crc: int, what: str) -> None:
    """Read the CRC32 trailer, which must end the file, and check it against
    ``crc``, the ``zlib.crc32`` of the body; ``what`` names the body in a
    mismatch."""
    (stored,) = struct.unpack("<I", read_exact(f, 4, "checksum"))
    extra = os.fstat(f.fileno()).st_size - f.tell()
    if extra:
        raise FileFormatError(f"{extra} unexpected bytes after the checksum trailer")
    if stored != crc:
        raise ChecksumError(f"{what} CRC mismatch: stored {stored:#x}, computed {crc:#x}")


def _read_header(f: BinaryIO) -> tuple[int, list[tuple[int, int]]]:
    kind, n_layers = read_preamble(f, MODEL_MAGIC, MODEL_VERSION, "<HBB", "model")
    if kind not in BODY_LAYOUTS:
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


def _save_model(path: str, net: Union[NetworkParams, QuantizedNetwork], kind: int,
                formats: list[tuple[int, ...]]) -> None:
    """Write ``net`` as a model of ``kind``, with each layer's ``formats`` bytes."""
    layout = BODY_LAYOUTS[kind]
    dims = [d for w in net.weights for d in w.shape]
    body_parts = (
        part
        for w, b, layer_format in zip(net.weights, net.biases, formats)
        for part in (bytes(layer_format), np.ascontiguousarray(w, dtype=layout.weight),
                     np.ascontiguousarray(b, dtype=layout.bias))
    )
    write_file(path, MODEL_MAGIC, f"<HBB{len(dims)}I", (MODEL_VERSION, kind, net.n_layers, *dims),
               body_parts)


def save_float_model(path: str, params: NetworkParams) -> None:
    params.validate()
    _save_model(path, params, KIND_FLOAT, [()] * params.n_layers)


def save_quantized_model(path: str, qnet: QuantizedNetwork) -> None:
    qnet.validate()
    formats = [(qnet.weight_frac[i], qnet.act_frac[i], qnet.acc_frac(i))
               for i in range(qnet.n_layers)]
    _save_model(path, qnet, KIND_QUANTIZED, formats)


def load_model(path: str) -> Union[NetworkParams, QuantizedNetwork]:
    """Load either model kind, dispatching on the header."""
    with open(path, "rb") as f:
        kind, dims = _read_header(f)
        layout = BODY_LAYOUTS[kind]
        size = sum(
            layout.format_bytes + layout.weight.itemsize * o * i + layout.bias.itemsize * o
            for o, i in dims
        )
        body = read_exact(f, size, "model body")
        check_trailer(f, zlib.crc32(body), "model body")
    weights, biases, formats = [], [], []
    offset = 0
    for out_dim, in_dim in dims:
        formats.append(tuple(body[offset : offset + layout.format_bytes]))
        offset += layout.format_bytes
        # Views into the body: both kinds' weights are used as read, uncopied.
        n = out_dim * in_dim
        weights.append(np.frombuffer(body, layout.weight, n, offset).reshape(out_dim, in_dim))
        offset += weights[-1].nbytes
        biases.append(np.frombuffer(body, layout.bias, out_dim, offset))
        offset += biases[-1].nbytes
    if kind == KIND_FLOAT:
        params = NetworkParams(weights, biases)
        params.validate()
        return params
    for wf, af, shift in formats:
        if shift != wf + af:
            raise FileFormatError(f"inconsistent bias shift {shift} for formats w={wf}, a={af}")
    return QuantizedNetwork(
        weights,
        [b.astype(np.int64) for b in biases],
        weight_frac=[wf for wf, _, _ in formats],
        act_frac=[af for _, af, _ in formats],
    )


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
