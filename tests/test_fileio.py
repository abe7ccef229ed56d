"""Tests for the model container's checks on files from outside."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfmc import fileio, nn, quant
from rfmc.fileio import FileFormatError


def model_header(dims, kind=fileio.KIND_FLOAT):
    """An RFMC header for ``dims`` [(out, in), ...] with no body after it."""
    blob = fileio.MODEL_MAGIC + struct.pack("<HBB", fileio.MODEL_VERSION, kind, len(dims))
    return blob + b"".join(struct.pack("<II", o, i) for o, i in dims)


def with_frac(blob: bytes, frac: int, layer: int, byte: int) -> bytes:
    """A quantized model file with one format byte of layer ``layer`` set to
    ``frac`` (``byte`` 0 is weight_frac, 1 is act_frac), its bias-shift
    byte and the body CRC32 made consistent again."""
    n_layers = blob[7]
    dims = list(struct.iter_unpack("<II", blob[8 : 8 + 8 * n_layers]))
    body = bytearray(blob[8 + 8 * n_layers : -4])
    at = sum(3 + 2 * o * i + 4 * o for o, i in dims[:layer])  # the earlier layers' bytes
    body[at + byte] = frac
    body[at + 2] = body[at] + body[at + 1]
    return blob[: 8 + 8 * n_layers] + bytes(body) + struct.pack("<I", zlib.crc32(body))


def with_input_frac(blob: bytes, frac: int) -> bytes:
    """A quantized model file with layer 0's act_frac byte set to ``frac``."""
    return with_frac(blob, frac, layer=0, byte=1)


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


@pytest.mark.parametrize("layer, byte", [(0, 0), (1, 1)], ids=["weight_frac", "hidden_act_frac"])
def test_format_byte_out_of_range_rejected(tmp_path, layer, byte):
    path = tmp_path / "q.rfmc"
    fileio.save_quantized_model(path, tiny_qnet())
    blob = path.read_bytes()
    path.write_bytes(with_frac(blob, 15, layer, byte))
    qnet = fileio.load_model(path)
    assert (qnet.weight_frac, qnet.act_frac)[byte][layer] == 15
    path.write_bytes(with_frac(blob, 16, layer, byte))
    with pytest.raises(ValueError, match=r"^frac_bits must be in 0\.\.15$"):
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


def test_unchained_quantized_network_raises_before_a_file_is_written(tmp_path):
    path = tmp_path / "q.rfmc"
    message = "layer 1 input dim 5 does not chain to the previous output dim 4"
    with pytest.raises(ValueError, match=message):
        fileio.save_quantized_model(path, quant.QuantizedNetwork(
            [np.ones((4, 3), np.int16), np.ones((2, 5), np.int16)],
            [np.zeros(4, np.int64), np.zeros(2, np.int64)],
            weight_frac=[14, 12],
            act_frac=[13, 11],
        ))
    assert not path.exists()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["float", "quantized"]), data=st.data())
def test_chained_networks_of_both_kinds_load_back_equal(tmp_path_factory, kind, data):
    dims = data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=4), label="dims")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shapes = list(zip(dims[1:], dims[:-1]))
    if kind == "float":
        net = nn.NetworkParams([rng.standard_normal(s) for s in shapes],
                               [rng.standard_normal(o) for o, _ in shapes])
        net.validate()
        save = fileio.save_float_model
    else:
        def fracs(n):
            return st.lists(st.integers(0, 15), min_size=n, max_size=n)

        net = quant.QuantizedNetwork(
            [rng.integers(-32768, 32768, s).astype(np.int16) for s in shapes],
            [rng.integers(-(2**31), 2**31, o).astype(np.int64) for o, _ in shapes],
            weight_frac=data.draw(fracs(len(shapes)), label="weight_frac"),
            act_frac=[quant.INPUT_FORMAT] + data.draw(fracs(len(shapes) - 1), label="act_frac"),
        )
        save = fileio.save_quantized_model
    path = tmp_path_factory.mktemp("round_trip") / "model.rfmc"
    save(path, net)
    loaded = fileio.load_model(path)
    assert type(loaded) is type(net)
    for got, want in zip(loaded.weights + loaded.biases, net.weights + net.biases):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    if kind == "quantized":
        assert (loaded.weight_frac, loaded.act_frac) == (net.weight_frac, net.act_frac)


def tiny_float_params():
    return nn.NetworkParams(
        [np.array([[0.5, -1.25, 2.0], [3.0, 0.0, -0.75]]), np.array([[1.5, -2.5]])],
        [np.array([0.125, -4.0]), np.array([6.5])],
    )


def tiny_qnet():
    return quant.QuantizedNetwork(
        [np.array([[3, -1, 7], [-32768, 5, 32767]], np.int16), np.array([[1, -9]], np.int16)],
        [np.array([10, -4], np.int64), np.array([-(2**31)], np.int64)],
        weight_frac=[14, 12],
        act_frac=[13, 11],
    )


def file_of(kind, dims, body):
    return model_header(dims, kind) + body + struct.pack("<I", zlib.crc32(body))


class TestByteOracle:
    """Saved models equal the layout of the module docstring, byte for byte."""

    def test_float_model(self, tmp_path):
        params = tiny_float_params()
        body = b"".join(
            struct.pack(f"<{w.size}d", *w.ravel()) + struct.pack(f"<{b.size}d", *b)
            for w, b in zip(params.weights, params.biases)
        )
        path = tmp_path / "f.rfmc"
        fileio.save_float_model(path, params)
        assert path.read_bytes() == file_of(fileio.KIND_FLOAT, [(2, 3), (1, 2)], body)

    def test_quantized_model(self, tmp_path):
        qnet = tiny_qnet()
        body = b"".join(
            struct.pack("<BBB", wf, af, wf + af)
            + struct.pack(f"<{w.size}h", *w.ravel())
            + struct.pack(f"<{b.size}i", *b)
            for w, b, wf, af in zip(qnet.weights, qnet.biases, qnet.weight_frac, qnet.act_frac)
        )
        path = tmp_path / "q.rfmc"
        fileio.save_quantized_model(path, qnet)
        assert path.read_bytes() == file_of(fileio.KIND_QUANTIZED, [(2, 3), (1, 2)], body)


class TestReaderChecks:
    @pytest.fixture
    def files(self, tmp_path):
        paths = {"float": tmp_path / "f.rfmc", "quantized": tmp_path / "q.rfmc"}
        fileio.save_float_model(paths["float"], tiny_float_params())
        fileio.save_quantized_model(paths["quantized"], tiny_qnet())
        return paths

    def test_round_trip_keeps_values_and_dtypes(self, files):
        params, want = fileio.load_float_model(files["float"]), tiny_float_params()
        for got, expected in zip(params.weights + params.biases, want.weights + want.biases):
            assert got.dtype == np.float64 and np.array_equal(got, expected)
        qnet = fileio.load_quantized_model(files["quantized"])
        want = tiny_qnet()
        assert [w.dtype for w in qnet.weights] == [np.int16, np.int16]
        assert [b.dtype for b in qnet.biases] == [np.int64, np.int64]
        assert all(np.array_equal(a, b) for a, b in zip(qnet.weights, want.weights))
        assert all(np.array_equal(a, b) for a, b in zip(qnet.biases, want.biases))
        assert (qnet.weight_frac, qnet.act_frac) == (want.weight_frac, want.act_frac)

    def test_float_loader_rejects_a_quantized_file(self, files):
        with pytest.raises(FileFormatError, match="holds a quantized model, expected float"):
            fileio.load_float_model(files["quantized"])

    def test_quantized_loader_rejects_a_float_file(self, files):
        with pytest.raises(FileFormatError, match="holds a float model, expected quantized"):
            fileio.load_quantized_model(files["float"])

    def test_inconsistent_bias_shift_under_a_valid_crc(self, files):
        blob = files["quantized"].read_bytes()
        body = bytearray(blob[24:-4])  # after the header of a two-layer model
        body[2] += 1
        files["quantized"].write_bytes(blob[:24] + bytes(body) + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FileFormatError, match="inconsistent bias shift 28 for formats w=14, a=13"):
            fileio.load_model(files["quantized"])

    @pytest.mark.parametrize("offset, value, message", [
        (0, b"RFMD", "bad magic"),
        (4, struct.pack("<H", fileio.MODEL_VERSION + 1), "unsupported model version 2"),
        (6, b"\x02", "unknown model kind 2"),
        (7, b"\x00", "model has no layers"),
    ])
    def test_bad_header_field(self, files, offset, value, message):
        blob = files["float"].read_bytes()
        files["float"].write_bytes(blob[:offset] + value + blob[offset + len(value):])
        with pytest.raises(FileFormatError, match=message):
            fileio.load_model(files["float"])


def test_float_load_peaks_near_the_file_size(tmp_path):
    # The float64 layers are views into the body as read, not copies of it.
    path = tmp_path / "f.rfmc"
    fileio.save_float_model(path, nn.init_params(nn.ARCH, seed=0))
    tracemalloc.start()
    try:
        params = fileio.load_float_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert params.n_layers == len(nn.ARCH) - 1
    assert peak <= 1.5 * path.stat().st_size, peak / path.stat().st_size
