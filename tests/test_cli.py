"""Tests for the command-line interface and the TCP stream classifier."""

import argparse
import contextlib
import hashlib
import logging
import os
import queue
import select
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import model_oracle
from test_data import version_1_file
from test_fileio import with_frac, with_input_frac
from test_model import SPLITS, pieces
from test_quant import int64_logits
from rfmc import blas, cli, data, fileio, model, nn, quant, stream
from rfmc.model import FRAME_BYTES
from rfmc.quant import INPUT_FORMAT
from rfmc.seeding import split_seed
from rfmc.sigsynth import label_name
from rfmc.stream import PATH_FLOAT, PATH_QUANTIZED, StreamServer

SOCKET_TIMEOUT_S = 10.0
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny gen-data -> train -> quantize pipeline shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds.rfds"
    model = root / "model.rfmc"
    qmodel = root / "qmodel.rfmc"
    assert cli.main(["gen-data", "--out", str(ds), "--frames-per-class", "20",
                     "--snr", "0:18:6", "--seed", "5"]) == 0
    assert cli.main(["train", "--dataset", str(ds), "--out", str(model),
                     "--epochs", "2", "--seed", "5"]) == 0
    assert cli.main(["quantize", "--model", str(model), "--dataset", str(ds),
                     "--out", str(qmodel)]) == 0
    return {"root": root, "ds": ds, "model": model, "qmodel": qmodel}


class TestSnrGridArg:
    def test_range(self):
        assert cli.snr_grid_arg("0:18:2") == tuple(float(s) for s in range(0, 19, 2))

    def test_single_value(self):
        assert cli.snr_grid_arg("7.5") == (7.5,)

    def test_fine_range_builds_only_the_frames_entries(self, tmp_path, capsys):
        # the full grid would hold 18e9 entries
        first_3 = tuple(i * 1e-9 for i in range(3))
        assert cli.snr_grid_arg("0:18:1e-9", limit=3) == first_3
        out, want = tmp_path / "fine.rfds", tmp_path / "first_3.rfds"
        assert cli.main(["gen-data", "--out", str(out), "--frames-per-class", "3",
                         "--snr", "0:18:1e-9"]) == 0
        data.save_dataset(data.build_dataset(data.DatasetSpec(3, first_3)), want)
        assert out.read_bytes() == want.read_bytes()

    def test_malformed_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen-data", "--out", "x", "--snr", "0:18"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", [
        "-inf:0:1", "0:inf:1", "0:18:inf", "nan:18:2", "0:nan:1", "0:18:nan",
        "inf", "-inf", "nan", "1e400",
        "-1e308:1e308:1", "0:1e308:1e-300",  # finite, but the grid's length overflows
    ])
    def test_non_finite_exits_2(self, tmp_path, capsys, text):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.snr_grid_arg(text)
        out = tmp_path / "never.rfds"
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen-data", "--out", str(out), "--frames-per-class", "1", f"--snr={text}"])
        assert exc.value.code == 2
        assert "malformed SNR range" in capsys.readouterr().err
        assert not out.exists()


class TestGenData:
    def test_record_count(self, tmp_path, capsys):
        out = tmp_path / "d.rfds"
        code, stdout, _ = run_cli(capsys, "gen-data", "--out", str(out),
                                  "--frames-per-class", "100", "--snr", "0:18:2")
        assert code == 0
        assert "700 records" in stdout
        assert len(data.load_dataset(out)) == 700

    def test_rerun_identical_checksum(self, tmp_path):
        a, b = tmp_path / "a.rfds", tmp_path / "b.rfds"
        for out in (a, b):
            assert cli.main(["gen-data", "--out", str(out), "--frames-per-class", "5",
                             "--seed", "33"]) == 0
        assert file_digest(a) == file_digest(b)

    def test_same_bytes_at_one_blas_thread_and_at_the_default(self, tmp_path):
        # 300 frames per class: two slices per class in the pool
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        outs = []
        for threads in ("1", None):
            outs.append(tmp_path / f"threads-{threads or 'default'}.rfds")
            run_env = env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "rfmc.cli", "gen-data", "--out", str(outs[-1]),
                            "--frames-per-class", "300", "--seed", "8"],
                           env=run_env, check=True, capture_output=True, timeout=120)
        assert file_digest(outs[0]) == file_digest(outs[1])


class TestTrain:
    def test_model_has_valid_container(self, workspace):
        params = fileio.load_float_model(workspace["model"])
        assert [w.shape for w in params.weights] == list(zip(nn.ARCH[1:], nn.ARCH[:-1]))

    def test_zero_epochs_writes_initialization(self, workspace, tmp_path):
        out = tmp_path / "init.rfmc"
        assert cli.main(["train", "--dataset", str(workspace["ds"]), "--out", str(out),
                         "--epochs", "0", "--seed", "5"]) == 0
        written = fileio.load_float_model(out)
        init_seed, _ = split_seed(5, 2)
        reference = nn.init_params(nn.ARCH, seed=init_seed)
        for a, b in zip(written.weights + written.biases,
                        reference.weights + reference.biases):
            assert np.array_equal(a, b)

    def test_same_seed_identical_model(self, workspace, tmp_path):
        a, b = tmp_path / "a.rfmc", tmp_path / "b.rfmc"
        for out in (a, b):
            assert cli.main(["train", "--dataset", str(workspace["ds"]), "--out", str(out),
                             "--epochs", "1", "--seed", "9"]) == 0
        assert file_digest(a) == file_digest(b)

    def test_printed_accuracies_are_model_logits_argmax(self, workspace, tmp_path, capsys):
        out = tmp_path / "m.rfmc"
        code, stdout, _ = run_cli(capsys, "train", "--dataset", str(workspace["ds"]),
                                  "--out", str(out), "--epochs", "2", "--seed", "5")
        assert code == 0
        printed = dict(line.split() for line in stdout.splitlines()
                       if line.split()[0] in ("train_accuracy", "validation_accuracy"))
        net = fileio.load_model(out)
        splits = data.split(data.load_dataset(workspace["ds"]), 0.8, seed=5)
        for name, split in zip(("train", "validation"), splits):
            expected = np.mean(np.argmax(model.raw_logits(net, split.frames_q), axis=1)
                               == split.labels)
            assert float(printed[f"{name}_accuracy"]) == pytest.approx(expected, abs=5e-5)

    def test_missing_dataset_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "train", "--dataset", str(tmp_path / "nope.rfds"),
                               "--out", str(tmp_path / "m.rfmc"))
        assert code == 1
        assert "error" in err

    def test_negative_epochs_exits_1(self, workspace, tmp_path, capsys):
        out = tmp_path / "m.rfmc"
        code, stdout, err = run_cli(capsys, "train", "--dataset", str(workspace["ds"]),
                                    "--out", str(out), "--epochs", "-1")
        assert (code, stdout, err) == (1, "", "error: epochs must be >= 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--lr", "--batch", "--weight-decay", "--train-fraction"])
    def test_removed_flags_exit_2(self, workspace, tmp_path, capsys, flag):
        out = tmp_path / "m.rfmc"
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--dataset", str(workspace["ds"]), "--out", str(out), flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestQuantize:
    def test_deterministic(self, workspace, tmp_path):
        a, b = tmp_path / "a.rfmc", tmp_path / "b.rfmc"
        for out in (a, b):
            assert cli.main(["quantize", "--model", str(workspace["model"]),
                             "--dataset", str(workspace["ds"]), "--out", str(out)]) == 0
        assert file_digest(a) == file_digest(b)
        assert file_digest(a) == file_digest(workspace["qmodel"])

    def test_prints_formats(self, workspace, tmp_path, capsys):
        code, stdout, _ = run_cli(capsys, "quantize", "--model", str(workspace["model"]),
                                  "--dataset", str(workspace["ds"]),
                                  "--out", str(tmp_path / "q.rfmc"))
        assert code == 0
        assert "input_format Q" in stdout
        assert "weight_frac" in stdout

    def test_quantized_model_round_trips(self, workspace):
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        assert [w.shape for w in qnet.weights] == list(zip(nn.ARCH[1:], nn.ARCH[:-1]))
        assert all(0 <= f <= 15 for f in qnet.weight_frac + qnet.act_frac)


class TestEval:
    def test_missing_model_exits_2(self, workspace):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--dataset", str(workspace["ds"])])
        assert exc.value.code == 2

    def test_compare_prints_signed_gap(self, workspace, capsys):
        code, stdout, _ = run_cli(capsys, "eval", "--model", str(workspace["model"]),
                                  "--dataset", str(workspace["ds"]),
                                  "--compare", str(workspace["qmodel"]))
        assert code == 0
        line = [l for l in stdout.splitlines()
                if l.startswith("accuracy_gap_quantized_minus_float")][0]
        assert line.split()[1][0] in "+-"
        dataset = data.load_dataset(workspace["ds"])
        expected = [
            np.mean(np.argmax(model.raw_logits(fileio.load_model(workspace[m]), dataset.frames_q),
                              axis=1) == dataset.labels)
            for m in ("model", "qmodel")
        ]
        assert [float(l.split()[1]) for l in stdout.splitlines()
                if l.startswith("overall_accuracy")] == pytest.approx(expected, abs=1e-6)
        assert float(line.split()[1]) == pytest.approx(expected[1] - expected[0], abs=2e-6)
        assert len([l for l in stdout.splitlines() if l.startswith("  error_delta")]) == 7

    def test_output_parses(self, workspace, capsys):
        code, stdout, _ = run_cli(capsys, "eval", "--model", str(workspace["qmodel"]),
                                  "--dataset", str(workspace["ds"]))
        assert code == 0
        assert "path quantized" in stdout
        assert "snr_db,n,accuracy" in stdout


class TestBench:
    @pytest.mark.parametrize("kind", ["float", "quantized"])
    def test_reports_latency_for_each_model_kind(self, workspace, capsys, kind):
        model_file = workspace["model" if kind == "float" else "qmodel"]
        code, stdout, _ = run_cli(capsys, "bench", "--model", str(model_file),
                                  "--frames", "100", "--warmup", "0")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == f"path {kind}"
        fields = dict(line.split(" ", 1) for line in lines[1:8])
        assert fields["frames"] == "100"
        for name in ("min_us", "p50_us", "p99_us", "mean_us", "frames_per_second"):
            assert float(fields[name]) > 0
        assert float(fields["min_us"]) <= float(fields["p50_us"]) <= float(fields["p99_us"])
        assert "FPGA (reference) 24.0 us/sample" in lines
        assert any(line.startswith("Nano GPU (reference)") for line in lines)


class TestClassify:
    @staticmethod
    def make_raw_file(tmp_path, n_frames, trailing=0):
        rng = np.random.default_rng(77)
        frames = [
            quant.quantize_frame(rng.standard_normal(1800) * 0.7, INPUT_FORMAT)
            for _ in range(n_frames)
        ]
        blob = b"".join(f.astype("<i2").tobytes() for f in frames) + b"\x55" * trailing
        path = tmp_path / "frames.bin"
        path.write_bytes(blob)
        return path

    def test_three_complete_frames_three_lines(self, workspace, tmp_path, capsys):
        raw = self.make_raw_file(tmp_path, 3)
        code, stdout, err = run_cli(capsys, "classify", "--model", str(workspace["qmodel"]),
                                    "--raw", str(raw))
        assert code == 0
        assert len(stdout.strip().splitlines()) == 3
        assert err == ""

    def test_trailing_bytes_warn_with_offset(self, workspace, tmp_path, capsys):
        raw = self.make_raw_file(tmp_path, 3, trailing=100)
        code, stdout, err = run_cli(capsys, "classify", "--model", str(workspace["qmodel"]),
                                    "--raw", str(raw))
        assert code == 0
        assert len(stdout.strip().splitlines()) == 3
        assert f"byte offset {3 * FRAME_BYTES}" in err

    def test_raw_labels_match_single_frame_passes(self, workspace, tmp_path, capsys):
        raw = self.make_raw_file(tmp_path, 5, trailing=7)
        code, stdout, _ = run_cli(capsys, "classify", "--model", str(workspace["qmodel"]),
                                  "--raw", str(raw))
        assert code == 0
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        frames_q = np.frombuffer(raw.read_bytes(), "<i2", 5 * 1800).reshape(5, 1800)
        expected = [
            f"{i}\t{label}\t{label_name(label)}"
            for i, label in enumerate(quant.quantized_forward(qnet, f)[1] for f in frames_q)
        ]
        assert stdout.splitlines() == expected

    def test_float_raw_labels_and_probabilities(self, workspace, tmp_path, capsys):
        raw = self.make_raw_file(tmp_path, 6, trailing=3)
        code, stdout, err = run_cli(capsys, "classify", "--model", str(workspace["model"]),
                                    "--raw", str(raw))
        assert code == 0
        assert f"byte offset {6 * FRAME_BYTES}" in err
        params = fileio.load_float_model(workspace["model"])
        frames_q = np.frombuffer(raw.read_bytes(), "<i2", 6 * 1800).reshape(6, 1800)
        expected = np.argmax(model.raw_logits(params, frames_q), axis=1)
        lines = stdout.splitlines()
        assert len(lines) == 6
        for i, line in enumerate(lines):
            idx, label_id, name, probs_text = line.split("\t")
            assert (int(idx), int(label_id), name) == (i, expected[i], label_name(expected[i]))
            probs = [float(p) for p in probs_text.split()]
            assert len(probs) == 7
            assert sum(probs) == pytest.approx(1.0, abs=1e-5)

    @staticmethod
    def expected_lines(net, frames_q):
        """The classify lines of ``frames_q`` from one ``model.raw_logits``
        call over the whole array."""
        logits = model.raw_logits(net, frames_q)
        probs = nn.softmax(logits)
        lines = []
        for i, label in enumerate(np.argmax(logits, axis=1)):
            line = f"{i}\t{label}\t{label_name(label)}"
            if model.path(net) == "float":
                line += "\t" + " ".join(f"{p:.6f}" for p in probs[i])
            lines.append(line)
        return lines

    @pytest.mark.parametrize("kind", ["model", "qmodel"])
    def test_lines_across_slice_boundaries(self, workspace, tmp_path, capsys, monkeypatch,
                                           kind):
        monkeypatch.setattr(model, "LOGITS_SLICE", 3)  # 10 frames: 3 slices of 3, then 1
        batches = []
        raw_logits = model.raw_logits

        def recording(net, frames_q):
            batches.append(len(frames_q))
            return raw_logits(net, frames_q)

        raw = self.make_raw_file(tmp_path, 10, trailing=77)
        net = fileio.load_model(workspace[kind])
        frames_q = np.frombuffer(raw.read_bytes(), "<i2", 10 * 1800).reshape(10, 1800)
        expected = self.expected_lines(net, frames_q)
        monkeypatch.setattr(model, "raw_logits", recording)
        code, stdout, err = run_cli(capsys, "classify", "--model", str(workspace[kind]),
                                    "--raw", str(raw))
        assert code == 0
        assert stdout.splitlines() == expected
        assert err == (f"warning: truncated frame at byte offset {10 * FRAME_BYTES}: "
                       f"77 trailing bytes ignored\n")
        assert batches == [3, 3, 3, 1]

    class PieceReader:
        """An in-memory source for ``cli._classify_raw``: ``read1`` returns the
        given pieces in turn, no more than it is asked for, then b"" for the
        end. ``fileno`` is ``fd``, so select finds the source readable
        whenever it finds ``fd`` readable."""

        def __init__(self, parts, fd):
            self.parts = [part for part in parts if part]
            self.fd = fd

        def fileno(self):
            return self.fd

        def read1(self, size):
            if not self.parts:
                return b""
            part = self.parts.pop(0)
            if len(part) > size:
                self.parts.insert(0, part[size:])
            return part[:size]

    @pytest.mark.parametrize("waiting", [False, True], ids=["nothing_waiting", "backlog_waiting"])
    @pytest.mark.parametrize("split", SPLITS)
    def test_any_reads_give_the_whole_buffer_lines(self, workspace, capsys, split, waiting):
        # select sees an empty pipe, which never has more waiting, or
        # /dev/null, which always has: every piece is classified as it
        # comes, or the pieces are gathered up to a slice.
        frames = np.random.default_rng(80).integers(-8192, 8192, (4, 1800), dtype=np.int16)
        blob = frames.astype("<i2").tobytes() + b"\x55" * 77
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        read_fd, write_fd = os.pipe()
        try:
            with open(os.devnull, "rb") as devnull:
                source = self.PieceReader(pieces(blob, SPLITS[split](len(blob))),
                                          devnull.fileno() if waiting else read_fd)
                assert cli._classify_raw(qnet, source) == (4, 77)
        finally:
            os.close(read_fd)
            os.close(write_fd)
        assert capsys.readouterr().out.splitlines() == self.expected_lines(qnet, frames)

    def test_pipe_backlog_is_gathered_past_one_pipe_buffer(self, workspace, capsys,
                                                           monkeypatch):
        # 100 frames are 5.5 pipe buffers of 64 KiB, which hold 18 frames
        # each. The source waits after each read until the writer has put
        # more in the pipe or closed it, so a backlog is always waiting.
        batches = []
        raw_logits = model.raw_logits

        def recording(net, frames_q):
            batches.append(len(frames_q))
            return raw_logits(net, frames_q)

        class Backlogged:
            def __init__(self, pipe):
                self.pipe = pipe

            def fileno(self):
                return self.pipe.fileno()

            def read1(self, size):
                data = self.pipe.read1(size)
                select.select([self.pipe], [], [], SOCKET_TIMEOUT_S)
                return data

        frames = np.random.default_rng(81).integers(-8192, 8192, (100, 1800), dtype=np.int16)
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        expected = self.expected_lines(qnet, frames)
        monkeypatch.setattr(model, "raw_logits", recording)
        read_fd, write_fd = os.pipe()

        def write_all():
            with open(write_fd, "wb") as pipe:
                pipe.write(frames.astype("<i2").tobytes())

        writer = threading.Thread(target=write_all)
        with open(read_fd, "rb") as pipe:
            writer.start()
            try:
                assert cli._classify_raw(qnet, Backlogged(pipe)) == (100, 0)
            finally:
                writer.join(timeout=SOCKET_TIMEOUT_S)
        assert not writer.is_alive()
        assert capsys.readouterr().out.splitlines() == expected
        assert batches == [100]

    def test_peak_memory_does_not_grow_with_the_file(self, workspace, tmp_path, monkeypatch):
        # The peak counted is what classify --raw allocates on top of the
        # loaded model: the load itself peaks higher than 256 frames take.
        monkeypatch.setattr(model, "LOGITS_SLICE", 8)
        load_model = fileio.load_model
        held_by_model = []

        def load_then_reset_peak(path):
            net = load_model(path)
            held_by_model.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return net

        monkeypatch.setattr(fileio, "load_model", load_then_reset_peak)
        peaks = {}
        for n_frames in (64, 256):
            (tmp_path / str(n_frames)).mkdir()
            raw = self.make_raw_file(tmp_path / str(n_frames), n_frames, trailing=77)
            with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull), \
                    contextlib.redirect_stderr(devnull):
                tracemalloc.start()
                try:
                    code = cli.main(["classify", "--model", str(workspace["qmodel"]),
                                     "--raw", str(raw)])
                    peaks[n_frames] = tracemalloc.get_traced_memory()[1] - held_by_model[-1]
                finally:
                    tracemalloc.stop()
            assert code == 0
        assert peaks[256] <= 1.25 * peaks[64], peaks

    def test_stdin_labels_leave_before_stdin_closes(self, workspace):
        frames = np.random.default_rng(78).integers(-8192, 8192, (5, 1800), dtype=np.int16)
        blobs = [f.astype("<i2").tobytes() for f in frames]
        half = FRAME_BYTES // 2
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        lines = queue.Queue()
        with subprocess.Popen(
            [sys.executable, "-m", "rfmc.cli", "classify", "--model", str(workspace["qmodel"]),
             "--raw", "-"],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            reader = threading.Thread(target=lambda: list(map(lines.put, proc.stdout)),
                                      daemon=True)
            reader.start()
            try:
                proc.stdin.write(blobs[0] + blobs[1][:half])
                proc.stdin.flush()
                time.sleep(0.2)  # the second frame arrives in two halves
                proc.stdin.write(blobs[1][half:] + blobs[2])
                proc.stdin.flush()
                # stdin is still open: the first three labels must arrive anyway.
                early = [lines.get(timeout=60) for _ in range(3)]
                proc.stdin.write(blobs[3] + blobs[4] + b"\x55" * 77)
                proc.stdin.close()
                assert proc.wait(timeout=60) == cli.EXIT_OK
                reader.join(timeout=60)
                err = proc.stderr.read()
            finally:
                proc.kill()
        late = [lines.get_nowait() for _ in range(lines.qsize())]
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        expected = self.expected_lines(qnet, frames)
        assert [line.decode() for line in early + late] == [line + "\n" for line in expected]
        assert err.decode() == (f"warning: truncated frame at byte offset {5 * FRAME_BYTES}: "
                                f"77 trailing bytes ignored\n")

    @pytest.mark.parametrize("kind", ["model", "qmodel"])
    def test_raw_file_of_a_dataset_prints_the_dataset_lines(self, workspace, tmp_path,
                                                            capsys, kind):
        # a dataset holds the raw frames both paths read, so both inputs
        # print the same lines, the float path's probabilities included
        raw = tmp_path / "ds.bin"
        frames_q = data.load_dataset(workspace["ds"]).frames_q
        raw.write_bytes(frames_q.astype("<i2").tobytes())
        printed = [run_cli(capsys, "classify", "--model", str(workspace[kind]), flag, str(path))
                   for flag, path in (("--dataset", workspace["ds"]), ("--raw", raw))]
        assert printed[0] == printed[1]
        assert printed[0][0] == 0 and len(printed[0][1].splitlines()) == len(frames_q)

    def test_dataset_labels_match_eval_path(self, workspace, capsys):
        code, stdout, _ = run_cli(capsys, "classify", "--model", str(workspace["qmodel"]),
                                  "--dataset", str(workspace["ds"]))
        assert code == 0
        dataset = data.load_dataset(workspace["ds"])
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        expected = np.argmax(model.raw_logits(qnet, dataset.frames_q), axis=1)
        for line in stdout.strip().splitlines():
            idx, label_id, name = line.split("\t")[:3]
            assert int(label_id) == expected[int(idx)]

    def test_float_path_prints_probabilities(self, workspace, capsys):
        code, stdout, _ = run_cli(capsys, "classify", "--model", str(workspace["model"]),
                                  "--dataset", str(workspace["ds"]))
        assert code == 0
        first = stdout.splitlines()[0].split("\t")
        assert len(first) == 4
        probs = [float(p) for p in first[3].split()]
        assert len(probs) == 7
        assert sum(probs) == pytest.approx(1.0, abs=1e-5)
        params = fileio.load_float_model(workspace["model"])
        frames_q = data.load_dataset(workspace["ds"]).frames_q
        expected = nn.softmax(model.raw_logits(params, frames_q))
        for line, row in zip(stdout.splitlines(), expected):
            assert line.split("\t")[3] == " ".join(f"{p:.6f}" for p in row)

    @pytest.mark.parametrize("kind", ["model", "qmodel"])
    def test_empty_dataset_prints_nothing(self, workspace, tmp_path, capsys, kind):
        empty = tmp_path / "empty.rfds"
        data.save_dataset(data.Dataset(np.empty((0, 1800), np.int16),
                                       np.empty(0, np.uint8), np.empty(0, np.float32)), empty)
        code, stdout, err = run_cli(capsys, "classify", "--model", str(workspace[kind]),
                                    "--dataset", str(empty))
        assert (code, stdout, err) == (0, "", "")

    def test_both_inputs_rejected(self, workspace, tmp_path, capsys):
        raw = self.make_raw_file(tmp_path, 1)
        code, _, err = run_cli(capsys, "classify", "--model", str(workspace["qmodel"]),
                               "--dataset", str(workspace["ds"]), "--raw", str(raw))
        assert code == 2


class TestServe:
    @staticmethod
    def read_replies(sock, n_replies):
        replies = b""
        while len(replies) < 2 * n_replies:
            got = sock.recv(4096)
            if not got:
                break
            replies += got
        return replies

    def send_frames(self, address, frames_blob, n_replies, chunk=None):
        with socket.create_connection(address, timeout=SOCKET_TIMEOUT_S) as sock:
            if chunk is None:
                sock.sendall(frames_blob)
            else:
                for start in range(0, len(frames_blob), chunk):
                    sock.sendall(frames_blob[start : start + chunk])
            return self.read_replies(sock, n_replies)

    def test_single_frame_two_byte_reply(self, workspace):
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        server = StreamServer(qnet)
        server.start()
        try:
            frame = quant.quantize_frame(
                np.random.default_rng(1).standard_normal(1800), INPUT_FORMAT
            )
            replies = self.send_frames(server.address, frame.astype("<i2").tobytes(), 1)
            assert len(replies) == 2
            label, path = replies
            assert path == PATH_QUANTIZED
            assert label == quant.quantized_forward(qnet, frame)[1]
        finally:
            server.stop()

    def test_fragmented_send_still_framed(self, workspace):
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        server = StreamServer(qnet)
        server.start()
        try:
            rng = np.random.default_rng(2)
            frames = [
                quant.quantize_frame(rng.standard_normal(1800), INPUT_FORMAT)
                for _ in range(3)
            ]
            blob = b"".join(f.astype("<i2").tobytes() for f in frames)
            replies = self.send_frames(server.address, blob, 3, chunk=1000)
            assert len(replies) == 6
            labels = replies[0::2]
            for frame, label in zip(frames, labels):
                assert label == quant.quantized_forward(qnet, frame)[1]
        finally:
            server.stop()

    def test_two_concurrent_connections_isolated(self, workspace):
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        server = StreamServer(qnet)
        server.start()
        try:
            rng = np.random.default_rng(3)
            per_client = [
                [quant.quantize_frame(rng.standard_normal(1800), INPUT_FORMAT)
                 for _ in range(5)]
                for _ in range(2)
            ]
            results = [None, None]

            def client(k):
                blob = b"".join(f.astype("<i2").tobytes() for f in per_client[k])
                results[k] = self.send_frames(server.address, blob, 5)

            threads = [threading.Thread(target=client, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for k in range(2):
                labels = results[k][0::2]
                expected = [quant.quantized_forward(qnet, f)[1] for f in per_client[k]]
                assert list(labels) == expected
        finally:
            server.stop()

    @staticmethod
    def mid_frame_warnings(caplog):
        return [r.getMessage() for r in caplog.records if "mid-frame" in r.getMessage()]

    def test_short_frame_dropped_cleanly(self, workspace, caplog):
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        server = StreamServer(qnet)
        server.start()
        try:
            with caplog.at_level("WARNING", logger="rfmc.stream"):
                with socket.create_connection(server.address) as sock:
                    sock.sendall(b"\x01" * 100)  # partial frame, then close
                # server must still answer a fresh connection afterwards
                frame = quant.quantize_frame(
                    np.random.default_rng(4).standard_normal(1800), INPUT_FORMAT
                )
                replies = self.send_frames(server.address, frame.astype("<i2").tobytes(), 1)
                assert len(replies) == 2
                # the loop may log the close after it has answered
                deadline = time.monotonic() + SOCKET_TIMEOUT_S
                while not self.mid_frame_warnings(caplog) and time.monotonic() < deadline:
                    time.sleep(0.01)
        finally:
            server.stop()
        # the benchmark counts dropped bytes by parsing this warning
        [warning] = self.mid_frame_warnings(caplog)
        assert warning.endswith(" closed mid-frame: 100 residual bytes dropped")

    def test_frame_then_short_tail_gets_one_reply(self, workspace, caplog):
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        frame = self.random_frames(1, seed=4)[0]
        server = StreamServer(qnet)
        server.start()
        try:
            with caplog.at_level("WARNING", logger="rfmc.stream"), \
                 socket.create_connection(server.address, timeout=SOCKET_TIMEOUT_S) as sock:
                sock.sendall(frame.astype("<i2").tobytes() + b"\x01" * 100)
                sock.shutdown(socket.SHUT_WR)
                # the server closes once it has sent every reply
                replies = self.read_replies(sock, 2)
        finally:
            server.stop()
        assert replies == bytes((quant.quantized_forward(qnet, frame)[1], PATH_QUANTIZED))
        [warning] = self.mid_frame_warnings(caplog)
        assert warning.endswith(" closed mid-frame: 100 residual bytes dropped")

    @staticmethod
    def random_frames(n, seed):
        rng = np.random.default_rng(seed)
        return [quant.quantize_frame(rng.standard_normal(1800), INPUT_FORMAT)
                for _ in range(n)]

    @pytest.mark.parametrize("split", SPLITS.values(),
                             ids=["one_sendall", "odd_chunks", "byte_by_byte", "inside_a_sample"])
    def test_forty_frames_in_order(self, workspace, split):
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        frames = self.random_frames(40, seed=5)
        server = StreamServer(qnet)
        server.start()
        try:
            blob = b"".join(f.astype("<i2").tobytes() for f in frames)
            with socket.create_connection(server.address, timeout=SOCKET_TIMEOUT_S) as sock:
                for part in pieces(blob, split(len(blob))):
                    sock.sendall(part)
                replies = self.read_replies(sock, 40)
        finally:
            server.stop()
        assert len(replies) == 80
        assert list(replies[0::2]) == [quant.quantized_forward(qnet, f)[1] for f in frames]
        assert list(replies[0::2]) == list(np.argmax(model.raw_logits(qnet, np.stack(frames)), 1))
        assert set(replies[1::2]) == {PATH_QUANTIZED}

    def test_client_that_never_reads_does_not_stall_others(self, workspace):
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        frames = self.random_frames(40, seed=6)
        blob = b"".join(f.astype("<i2").tobytes() for f in frames)
        server = StreamServer(qnet)
        server.start()
        try:
            with socket.create_connection(server.address, timeout=SOCKET_TIMEOUT_S) as silent:
                for _ in range(10):
                    silent.sendall(blob)  # 400 frames whose replies nobody reads
                replies = self.send_frames(server.address, blob, 40)
        finally:
            server.stop()
        assert list(replies[0::2]) == [quant.quantized_forward(qnet, f)[1] for f in frames]

    def test_unread_replies_pause_reading_until_drained(self, workspace, monkeypatch):
        # Accepted sockets inherit the listener's buffer sizes; with the
        # smallest ones a few MB of frames fill every kernel buffer, so
        # the replies the client does not read pile up in the server.
        monkeypatch.setattr(stream, "MAX_PENDING_REPLY_BYTES", 64)
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        frames = self.random_frames(100, seed=9)
        labels = [quant.quantized_forward(qnet, f)[1] for f in frames]
        blob = b"".join(f.astype("<i2").tobytes() for f in frames)
        server = StreamServer(qnet)
        server.start()
        try:
            for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                server._listener.setsockopt(socket.SOL_SOCKET, option, 1)
            with socket.socket() as reader_later:
                for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                    reader_later.setsockopt(socket.SOL_SOCKET, option, 1)
                reader_later.settimeout(SOCKET_TIMEOUT_S)
                reader_later.connect(server.address)
                reader_later.settimeout(0.5)
                sent = 0
                with pytest.raises(socket.timeout):  # the server stopped reading
                    while sent < 20 * 2**20:
                        sent += reader_later.send(blob[sent % len(blob):])
                # the loop still serves everyone else
                replies = self.send_frames(server.address, blob[: 40 * FRAME_BYTES], 40)
                assert list(replies[0::2]) == labels[:40]

                # once the replies drain, the rest is read and answered
                reader_later.settimeout(SOCKET_TIMEOUT_S)
                reader_later.shutdown(socket.SHUT_WR)
                pending = bytearray()
                while chunk := reader_later.recv(65536):
                    pending += chunk
        finally:
            server.stop()
        n_frames = sent // FRAME_BYTES
        assert n_frames >= 100
        assert list(pending[0::2]) == [labels[i % 100] for i in range(n_frames)]
        assert set(pending[1::2]) == {PATH_QUANTIZED}

    def test_half_closed_client_gets_every_reply(self, workspace):
        # The client sends everything, shuts its side and only then reads:
        # with small kernel buffers the server meets end of stream while
        # replies still wait in its own buffer, and must send them all.
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        frames = self.random_frames(100, seed=11)
        labels = [quant.quantized_forward(qnet, f)[1] for f in frames]
        blob = b"".join(f.astype("<i2").tobytes() for f in frames)
        server = StreamServer(qnet)
        server.start()
        try:
            server._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)
            with socket.socket() as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1)
                sock.settimeout(SOCKET_TIMEOUT_S)
                sock.connect(server.address)
                for _ in range(40):
                    sock.sendall(blob)
                sock.shutdown(socket.SHUT_WR)
                time.sleep(0.3)
                replies = bytearray()
                while chunk := sock.recv(65536):
                    replies += chunk
        finally:
            server.stop()
        assert list(replies[0::2]) == labels * 40
        assert set(replies[1::2]) == {PATH_QUANTIZED}

    @staticmethod
    def free_port():
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def test_serve_forever_serves_the_started_listener(self, workspace):
        # rfmc serve starts the server, prints its address, then serves
        # forever on that same listener, at a fixed port
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        frame = self.random_frames(1, seed=10)[0]
        port = self.free_port()
        server = StreamServer(qnet, port=port)
        server.start()
        errors = []

        def serve():
            try:
                server.serve_forever()
            except OSError as exc:
                errors.append(exc)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            replies = self.send_frames(("127.0.0.1", port), frame.astype("<i2").tobytes(), 1)
        finally:
            server.stop()
            thread.join(timeout=SOCKET_TIMEOUT_S)
        assert not thread.is_alive() and not errors
        assert replies == bytes((quant.quantized_forward(qnet, frame)[1], PATH_QUANTIZED))

    @staticmethod
    def failing_classifier(frames_q):
        raise MemoryError("no room for the batch")

    def send_one_frame_unanswered(self, address):
        """Send one frame; the failing loop closes the connection unanswered."""
        with socket.create_connection(address, timeout=SOCKET_TIMEOUT_S) as sock:
            sock.sendall(self.random_frames(1, seed=15)[0].astype("<i2").tobytes())
            try:
                assert sock.recv(2) == b""
            except ConnectionResetError:
                pass

    def test_serve_forever_raises_what_ended_the_loop(self, workspace, blas_threads):
        server = StreamServer(fileio.load_quantized_model(workspace["qmodel"]))
        server._classify = self.failing_classifier
        server.start()
        address = server.address
        errors = []

        def serve():
            try:
                server.serve_forever()
            except MemoryError as exc:
                errors.append(exc)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        self.send_one_frame_unanswered(address)
        thread.join(timeout=SOCKET_TIMEOUT_S)
        assert not thread.is_alive()
        assert [str(exc) for exc in errors] == ["no room for the batch"]
        assert blas_threads() == 2
        with pytest.raises(ConnectionRefusedError):  # the listener is closed
            socket.create_connection(address, timeout=SOCKET_TIMEOUT_S).close()
        assert server.address == address
        server.stop()  # the failure was raised once

    def test_stop_raises_what_ended_the_loop(self, workspace, blas_threads):
        server = StreamServer(fileio.load_quantized_model(workspace["qmodel"]))
        server._classify = self.failing_classifier
        server.start()
        self.send_one_frame_unanswered(server.address)
        with pytest.raises(MemoryError, match="^no room for the batch$"):
            server.stop()
        assert blas_threads() == 2

    def test_serve_exits_1_with_one_error_line_when_the_loop_fails(self, workspace, capsys,
                                                                   monkeypatch):
        monkeypatch.setattr(stream, "make_raw_classifier",
                            lambda net: (self.failing_classifier, PATH_QUANTIZED))
        port = self.free_port()
        codes = []
        thread = threading.Thread(daemon=True, target=lambda: codes.append(cli.main(
            ["serve", "--model", str(workspace["qmodel"]), "--port", str(port)])))
        thread.start()
        deadline = time.monotonic() + SOCKET_TIMEOUT_S
        while True:  # until rfmc serve listens
            try:
                self.send_one_frame_unanswered(("127.0.0.1", port))
                break
            except ConnectionRefusedError:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        thread.join(timeout=SOCKET_TIMEOUT_S)
        assert not thread.is_alive()
        captured = capsys.readouterr()
        assert codes == [cli.EXIT_RUNTIME]
        assert captured.out.startswith(f"serving quantized model on 127.0.0.1:{port} ")
        assert captured.err == ("error: the server loop failed: "
                                "MemoryError('no room for the batch')\n")

    @pytest.mark.parametrize("kind", ["model", "qmodel"])
    def test_replies_run_at_one_blas_thread_and_stop_restores(self, workspace, blas_threads,
                                                              kind):
        server = StreamServer(fileio.load_model(workspace[kind]))
        classify, seen = server._classify, []

        def recording(frames_q):
            seen.append(blas_threads())
            return classify(frames_q)

        server._classify = recording
        server.start()
        try:
            blob = b"".join(f.astype("<i2").tobytes() for f in self.random_frames(5, seed=14))
            replies = self.send_frames(server.address, blob, 5, chunk=1000)
            assert blas_threads() == 1  # the count is the whole process's
        finally:
            server.stop()
        assert len(replies) == 10
        assert seen and set(seen) == {1}
        assert blas_threads() == 2

    def test_serves_where_the_thread_count_cannot_be_set(self, workspace, monkeypatch, caplog):
        # another BLAS build: the loop's hold is a no-op that says so once
        monkeypatch.setattr(blas, "_library", None)
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        frames = np.stack(self.random_frames(6, seed=16))
        server = StreamServer(qnet)
        with caplog.at_level(logging.INFO):
            server.start()
            try:
                replies = self.send_frames(server.address, frames.astype("<i2").tobytes(), 6)
            finally:
                server.stop()
        assert list(replies[0::2]) == np.argmax(int64_logits(qnet, frames), axis=1).tolist()
        assert [r.levelno for r in caplog.records if r.name == "rfmc.blas"] == [logging.INFO]
        assert not [r for r in caplog.records
                    if r.name == "rfmc.stream" and r.levelno >= logging.WARNING]

    def test_float_replies_equal_the_classify_raw_labels(self, workspace, tmp_path, capsys):
        # replies come from logits rounded at one BLAS thread, classify --raw's
        # at the library's count; only an exact tie could tell them apart
        raw = TestClassify.make_raw_file(tmp_path, 300)
        code, stdout, _ = run_cli(capsys, "classify", "--model", str(workspace["model"]),
                                  "--raw", str(raw))
        assert code == 0
        labels = [int(line.split("\t")[1]) for line in stdout.splitlines()]
        assert len(labels) == 300
        server = StreamServer(fileio.load_float_model(workspace["model"]))
        server.start()
        try:
            replies = self.send_frames(server.address, raw.read_bytes(), 300, chunk=7001)
        finally:
            server.stop()
        assert list(replies[0::2]) == labels
        assert set(replies[1::2]) == {PATH_FLOAT}

    def test_one_thread_whatever_the_connections(self, workspace):
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        frame = self.random_frames(1, seed=7)[0].astype("<i2").tobytes()
        before = threading.active_count()
        server = StreamServer(qnet)
        server.start()
        try:
            assert threading.active_count() == before + 1
            socks = [socket.create_connection(server.address, timeout=SOCKET_TIMEOUT_S)
                     for _ in range(4)]
            try:
                for sock in socks:
                    sock.sendall(frame)
                for sock in socks:
                    assert len(sock.recv(2)) == 2  # every connection accepted and served
                assert threading.active_count() == before + 1
            finally:
                for sock in socks:
                    sock.close()
        finally:
            server.stop()
        assert threading.active_count() == before

    def hold_first_batch(self, monkeypatch):
        """Wrap the integer engine, ``quant.quantized_logits``, so it records
        every batch size and holds its first call until the returned
        ``release`` event is set; ``entered`` is set once that first call
        has begun."""
        inner = quant.quantized_logits
        sizes, entered, release = [], threading.Event(), threading.Event()

        def recording(qnet, frames_q):
            sizes.append(len(frames_q))
            if len(sizes) == 1:
                entered.set()
                release.wait(SOCKET_TIMEOUT_S)
            return inner(qnet, frames_q)

        monkeypatch.setattr(quant, "quantized_logits", recording)
        return sizes, entered, release

    @pytest.mark.parametrize("logits_slice, batches", [(None, [1, 4]), (3, [1, 3, 1])],
                             ids=["one_call", "sliced"])
    def test_ready_connections_share_one_batch(self, workspace, monkeypatch,
                                               logits_slice, batches):
        if logits_slice is not None:
            monkeypatch.setattr(model, "LOGITS_SLICE", logits_slice)
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        frames = self.random_frames(5, seed=12)
        blobs = [f.astype("<i2").tobytes() for f in frames]
        labels = [quant.quantized_forward(qnet, f)[1] for f in frames]
        server = StreamServer(qnet)
        sizes, entered, release = self.hold_first_batch(monkeypatch)
        server.start()
        try:
            with socket.create_connection(server.address, timeout=SOCKET_TIMEOUT_S) as a, \
                 socket.create_connection(server.address, timeout=SOCKET_TIMEOUT_S) as b:
                a.sendall(blobs[0])
                assert entered.wait(SOCKET_TIMEOUT_S)
                # while the loop is held, both clients send two more frames
                a.sendall(blobs[1] + blobs[2])
                b.sendall(blobs[3] + blobs[4])
                time.sleep(0.2)
                release.set()
                replies_a = self.read_replies(a, 3)
                replies_b = self.read_replies(b, 2)
        finally:
            release.set()
            server.stop()
        assert sizes == batches
        assert list(replies_a[0::2]) == labels[:3]
        assert list(replies_b[0::2]) == labels[3:]
        assert set(replies_a[1::2] + replies_b[1::2]) == {PATH_QUANTIZED}

    @pytest.mark.parametrize("b_sends", [0, 1], ids=["fails_on_recv", "fails_on_send"])
    def test_connection_error_mid_round_spares_the_others(self, workspace, caplog, monkeypatch,
                                                          b_sends):
        # Client b resets its connection while the loop is held. With no
        # frame sent, the round's recv on b fails; with one, the recv
        # returns it, b's frame joins the round's batch and the send of its
        # reply fails. Either way a is answered in full.
        qnet = fileio.load_quantized_model(workspace["qmodel"])
        frames = self.random_frames(4, seed=13)
        blobs = [f.astype("<i2").tobytes() for f in frames]
        labels = [quant.quantized_forward(qnet, f)[1] for f in frames]
        server = StreamServer(qnet)
        sizes, entered, release = self.hold_first_batch(monkeypatch)
        server.start()
        try:
            with socket.create_connection(server.address, timeout=SOCKET_TIMEOUT_S) as a, \
                 socket.create_connection(server.address, timeout=SOCKET_TIMEOUT_S) as b:
                a.sendall(blobs[0])
                assert entered.wait(SOCKET_TIMEOUT_S)
                a.sendall(blobs[1] + blobs[2])
                b.sendall(blobs[3] * b_sends)
                b.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                b.close()  # a reset, not an orderly close
                time.sleep(0.2)
                with caplog.at_level("WARNING", logger="rfmc.stream"):
                    release.set()
                    replies_a = self.read_replies(a, 3)
                    # the loop still serves a fresh connection afterwards
                    fresh = self.send_frames(server.address, blobs[3], 1)
        finally:
            release.set()
            server.stop()
        assert sizes == [1, 2 + b_sends, 1]
        assert list(replies_a[0::2]) == labels[:3]
        assert fresh == bytes((labels[3], PATH_QUANTIZED))
        assert any("dropped" in r.getMessage() for r in caplog.records)

    def test_float_model_replies_float_labels(self, workspace):
        params = fileio.load_float_model(workspace["model"])
        frames = self.random_frames(12, seed=8)
        server = StreamServer(params)
        server.start()
        try:
            blob = b"".join(f.astype("<i2").tobytes() for f in frames)
            replies = self.send_frames(server.address, blob, 12, chunk=1001)
        finally:
            server.stop()
        expected = [model_oracle.classify(params, quant.dequantize_array(f, INPUT_FORMAT))
                    for f in frames]
        assert list(replies[0::2]) == expected
        assert set(replies[1::2]) == {PATH_FLOAT}


class TestExitCodes:
    def test_corrupt_model_exits_1(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.rfmc"
        blob = bytearray(workspace["model"].read_bytes())
        blob[50] ^= 0xFF
        bad.write_bytes(bytes(blob))
        code, _, err = run_cli(capsys, "eval", "--model", str(bad),
                               "--dataset", str(workspace["ds"]))
        assert code == 1
        assert "CRC" in err or "error" in err

    def test_hostile_dataset_header_exits_1(self, workspace, tmp_path, capsys):
        bad = tmp_path / "hostile.rfds"
        bad.write_bytes(b"RFDS" + struct.pack("<HIH", data.DATASET_VERSION, 2**32 - 1, 1800))
        code, _, err = run_cli(capsys, "eval", "--model", str(workspace["qmodel"]),
                               "--dataset", str(bad))
        assert code == 1
        assert err.startswith("error: truncated file:")

    @pytest.mark.parametrize("command", ["train", "quantize", "eval", "classify"])
    def test_version_1_dataset_exits_1(self, workspace, tmp_path, capsys, command):
        # a well-formed file of f32 frames under a valid CRC: no reader
        # takes it, and no output file is written
        v1, out = tmp_path / "v1.rfds", tmp_path / "out.rfmc"
        v1.write_bytes(version_1_file(7))
        argv = {
            "train": ["--dataset", v1, "--out", out],
            "quantize": ["--model", workspace["model"], "--dataset", v1, "--out", out],
            "eval": ["--model", workspace["model"], "--dataset", v1],
            "classify": ["--model", workspace["qmodel"], "--dataset", v1],
        }[command]
        assert run_cli(capsys, command, *map(str, argv)) == (
            1, "", "error: unsupported dataset version 1\n")
        assert not out.exists()

    def test_model_with_a_second_input_format_exits_1(self, workspace, tmp_path, capsys):
        bad = tmp_path / "q1_14.rfmc"
        bad.write_bytes(with_input_frac(workspace["qmodel"].read_bytes(), 14))
        raw = TestClassify.make_raw_file(tmp_path, 2)
        code, stdout, err = run_cli(capsys, "classify", "--model", str(bad), "--raw", str(raw))
        assert code == 1
        assert stdout == ""
        assert err.startswith("error:") and "Q2.13" in err

    @pytest.mark.parametrize("layer, byte", [(0, 0), (1, 1)],
                             ids=["weight_frac", "hidden_act_frac"])
    def test_model_with_an_out_of_range_format_exits_1(self, workspace, tmp_path, capsys,
                                                       layer, byte):
        bad = tmp_path / "q16.rfmc"
        bad.write_bytes(with_frac(workspace["qmodel"].read_bytes(), 16, layer, byte))
        raw = TestClassify.make_raw_file(tmp_path, 2)
        code, stdout, err = run_cli(capsys, "classify", "--model", str(bad), "--raw", str(raw))
        assert (code, stdout, err) == (1, "", "error: frac_bits must be in 0..15\n")

    @pytest.fixture(scope="class")
    def wrong_shape(self, tmp_path_factory):
        """CRC-valid 1800-10-8 models of both kinds whose output 7 wins on every frame."""
        root = tmp_path_factory.mktemp("wrong_shape")
        params = nn.init_params((1800, 10, 8), seed=3)
        params.weights[-1][:] = 0.0
        params.biases[-1][7] = 1.0
        frames = np.random.default_rng(3).standard_normal((16, 1800))
        paths = {"model": root / "float.rfmc", "qmodel": root / "quant.rfmc"}
        fileio.save_float_model(paths["model"], params)
        fileio.save_quantized_model(paths["qmodel"], quant.quantize_network(params, frames))
        frames_q = quant.quantize_array(frames, INPUT_FORMAT)
        for path in paths.values():
            assert set(np.argmax(model.raw_logits(fileio.load_model(path), frames_q), axis=1)) == {7}
        return paths

    @staticmethod
    def wrong_shape_error(path):
        return f"error: {path}: network has 1800 inputs and 8 outputs, expected 1800 and 7\n"

    @pytest.mark.parametrize("kind", ["model", "qmodel"])
    @pytest.mark.parametrize("command", ["classify", "eval", "bench", "serve"])
    def test_model_of_the_wrong_shape_exits_1(self, workspace, wrong_shape, tmp_path, capsys,
                                              monkeypatch, command, kind):
        def no_server(*args, **kwargs):
            raise AssertionError("a server was made")

        monkeypatch.setattr(cli, "StreamServer", no_server)
        bad = str(wrong_shape[kind])
        argv = {
            "classify": ["--raw", str(TestClassify.make_raw_file(tmp_path, 3))],
            "eval": ["--dataset", str(workspace["ds"])],
            "bench": ["--frames", "2", "--warmup", "0"],
            "serve": ["--port", "0"],
        }[command]
        code, stdout, err = run_cli(capsys, command, "--model", bad, *argv)
        assert (code, stdout, err) == (1, "", self.wrong_shape_error(bad))

    @pytest.mark.parametrize("kind", ["model", "qmodel"])
    def test_stream_server_rejects_the_wrong_shape(self, wrong_shape, monkeypatch, kind):
        def no_bind(*args, **kwargs):
            raise AssertionError("a socket was bound")

        monkeypatch.setattr(stream.socket, "create_server", no_bind)
        with pytest.raises(ValueError, match="^network has 1800 inputs and 8 outputs, "
                                             "expected 1800 and 7$"):
            StreamServer(fileio.load_model(wrong_shape[kind])).start()

    def test_quantize_and_compare_reject_the_wrong_shape(self, workspace, wrong_shape, tmp_path,
                                                         capsys):
        out = tmp_path / "q.rfmc"
        code, stdout, err = run_cli(capsys, "quantize", "--model", str(wrong_shape["model"]),
                                    "--dataset", str(workspace["ds"]), "--out", str(out))
        assert (code, stdout, err) == (1, "", self.wrong_shape_error(wrong_shape["model"]))
        assert not out.exists()
        code, stdout, err = run_cli(capsys, "eval", "--model", str(workspace["model"]),
                                    "--dataset", str(workspace["ds"]),
                                    "--compare", str(wrong_shape["qmodel"]))
        assert (code, stdout, err) == (1, "", self.wrong_shape_error(wrong_shape["qmodel"]))

    def test_hostile_model_header_exits_1(self, workspace, tmp_path, capsys):
        bad = tmp_path / "hostile.rfmc"
        bad.write_bytes(b"RFMC" + struct.pack("<HBBII", 1, 0, 1, 2**32 - 1, 2**20))
        code, _, err = run_cli(capsys, "eval", "--model", str(bad),
                               "--dataset", str(workspace["ds"]))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("kind", ["model", "qmodel"])
    def test_model_with_appended_bytes_exits_1(self, workspace, tmp_path, capsys, kind):
        bad = tmp_path / "appended.rfmc"
        bad.write_bytes(workspace[kind].read_bytes() + b"junk")
        code, _, err = run_cli(capsys, "eval", "--model", str(bad),
                               "--dataset", str(workspace["ds"]))
        assert code == 1
        assert err.startswith("error:") and "after the checksum trailer" in err

    def test_dataset_with_appended_bytes_exits_1(self, workspace, tmp_path, capsys):
        bad = tmp_path / "appended.rfds"
        bad.write_bytes(workspace["ds"].read_bytes() + b"junk")
        code, _, err = run_cli(capsys, "eval", "--model", str(workspace["model"]),
                               "--dataset", str(bad))
        assert code == 1
        assert err.startswith("error:") and "after the checksum trailer" in err

    @pytest.mark.parametrize("command, unbuffered", [
        ("gen-data", ""), ("gen-data", "1"), ("train", "1"), ("classify", ""), ("classify", "1"),
    ])
    def test_closed_stdout_exits_0_quietly(self, workspace, tmp_path, command, unbuffered):
        # Unbuffered, the first print meets the closed pipe; buffered, the
        # flush at the end does (classify --raw: the flush after its first batch).
        out = tmp_path / "out.bin"
        raw = tmp_path / "frames.bin"
        if command == "classify":  # three batches: the pipe is closed mid-stream
            n_frames = 2 * quant.LOGITS_SLICE + 52
            raw.write_bytes(np.random.default_rng(79).integers(
                -8192, 8192, n_frames * 1800, dtype=np.int16).astype("<i2").tobytes())
        argv = {
            "gen-data": ["gen-data", "--frames-per-class", "5", "--out", str(out)],
            "train": ["train", "--dataset", str(workspace["ds"]), "--epochs", "1",
                      "--out", str(out)],
            "classify": ["classify", "--model", str(workspace["qmodel"]), "--raw", str(raw)],
        }[command]
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        with subprocess.Popen([sys.executable, "-m", "rfmc.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == cli.EXIT_OK
        assert err == b""
        if command == "gen-data":
            assert len(data.load_dataset(out)) == 35
        elif command == "train":
            assert fileio.load_float_model(out).n_layers == 3

    @pytest.mark.parametrize("port", ["99999", "65536", "-1", "http"])
    def test_serve_port_outside_0_65535_exits_2(self, workspace, monkeypatch, capsys, port):
        loaded = []
        monkeypatch.setattr(cli.fileio, "load_model", loaded.append)

        def no_server(*args, **kwargs):
            raise AssertionError("a server was made")

        monkeypatch.setattr(cli, "StreamServer", no_server)
        with pytest.raises(SystemExit) as exc:
            cli.main(["serve", "--model", str(workspace["qmodel"]), "--port", port])
        assert exc.value.code == 2
        assert "0..65535" in capsys.readouterr().err
        assert loaded == []

    @pytest.mark.parametrize("port", [0, 1, 65535])
    def test_serve_port_edges_parse(self, port):
        args = cli.build_parser().parse_args(["serve", "--model", "m", "--port", str(port)])
        assert args.port == port

    @pytest.mark.parametrize("argv, host", [([], "127.0.0.1"), (["--host", "0.0.0.0"], "0.0.0.0")])
    def test_serve_host_parses(self, argv, host):
        args = cli.build_parser().parse_args(["serve", "--model", "m", "--port", "0", *argv])
        assert args.host == host

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
