"""Tests of the benchmark's own checks, plus a tiny run of every workload.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` so the package's own test suite does
not collect it.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)

run.import_program()

import client  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FRAME_BYTES = 3600


class ScriptedServer:
    """Answers frame i with ``replies[i]``; ``None`` means no reply.

    With ``close_after`` set, it reads that many frames and then closes
    the connection, leaving every frame it did not answer in flight.
    """

    def __init__(self, replies, close_after=None):
        self.replies = list(replies)
        self.close_after = close_after
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    @property
    def address(self):
        return self.listener.getsockname()[:2]

    def _serve(self):
        conn, _ = self.listener.accept()
        with conn:
            buf = bytearray()
            i = 0
            while i != self.close_after:
                data = conn.recv(65536)
                if not data:
                    return
                buf += data
                while len(buf) >= FRAME_BYTES:
                    del buf[:FRAME_BYTES]
                    reply = self.replies[i] if i < len(self.replies) else None
                    i += 1
                    if reply is not None:
                        conn.sendall(bytes(reply))

    def close(self):
        self.listener.close()
        self.thread.join(timeout=5)


def frames(n):
    return client.Frames(
        payloads=[bytes(FRAME_BYTES)] * n,
        expected=np.arange(n) % 7,
        truth=np.arange(n) % 7,
    )


def exchange(replies, n, close_after=None):
    server = ScriptedServer(replies, close_after)
    c = client.Client(server.address, 1, frames(n))
    for _ in range(n):
        c._send(c._conns[0])
    c.close()
    server.close()
    return c


@pytest.fixture(autouse=True)
def short_drain(monkeypatch):
    monkeypatch.setattr(client, "DRAIN_TIMEOUT_S", 0.5)


def test_right_replies_pass():
    c = exchange([(k % 7, 1) for k in range(5)], 5)
    assert (c.attempted, c.failed) == (5, 0)


def test_wrong_label_fails():
    replies = [(k % 7, 1) for k in range(5)]
    replies[2] = (3, 1)
    c = exchange(replies, 5)
    assert (c.failed, c.wrong) == (1, 1)


def test_wrong_path_byte_fails():
    replies = [(k % 7, 1) for k in range(5)]
    replies[4] = (4, 0)
    assert exchange(replies, 5).failed == 1


def test_missing_reply_fails():
    replies = [(k % 7, 1) for k in range(4)] + [None]
    assert exchange(replies, 5).failed == 1


def test_server_closing_with_frames_in_flight_fails_them():
    c = exchange([(0, 1), (1, 1)], 5, close_after=5)
    assert c.failed == 3


def test_reference_matches_big_int_oracle():
    rng = np.random.default_rng(5)

    class Net:
        weights = [rng.integers(-32768, 32768, (6, 9)).astype(np.int16),
                   rng.integers(-32768, 32768, (3, 6)).astype(np.int16)]
        biases = [rng.integers(-2**31, 2**31, 6), rng.integers(-2**31, 2**31, 3)]
        weight_frac = [14, 13]
        act_frac = [12, 3]

    x = rng.integers(-32768, 32768, (4, 9)).astype(np.int16)
    for row, got in zip(x, reference.logits(Net, x)):
        h = [int(v) for v in row]
        for i, (w, b) in enumerate(zip(Net.weights, Net.biases)):
            acc = [sum(int(a) * v for a, v in zip(w_row, h)) + int(bj) for w_row, bj in zip(w, b)]
            if i == len(Net.weights) - 1:
                assert acc == [int(v) for v in got]
                break
            shift = Net.weight_frac[i] + Net.act_frac[i] - Net.act_frac[i + 1]
            h = []
            for a in acc:
                a = max(a, 0)
                a = (a + (1 << (shift - 1))) >> shift if shift > 0 else a << -shift
                h.append(max(-32768, min(32767, a)))


def test_quantize_frames_rounds_half_away_and_saturates():
    got = reference.quantize_frames(np.array([0.5, -0.5, 1.5, -1.5, 1e9, -1e9]), 0)
    assert got.tolist() == [1, -1, 2, -2, 32767, -32768]


def test_tracer_reports_absent_names_and_restores():
    import rfmc.kernels

    original = rfmc.kernels.round_shift
    t = tracer.Tracer()
    t.install([
        tracer.Target("rfmc.kernels.round_shift", "kernels.round_shift"),
        tracer.Target("rfmc.kernels.no_such_function", "kernels.none"),
        tracer.Target("rfmc.no_such_module.f", "none.f"),
    ])
    assert t.absent == ["rfmc.kernels.no_such_function", "rfmc.no_such_module.f"]
    t.recording = True
    rfmc.kernels.round_shift(np.array([5]), 1)
    t.recording = False
    rfmc.kernels.round_shift(np.array([5]), 1)
    t.uninstall()
    assert rfmc.kernels.round_shift is original
    assert [s.name for s in t.spans] == ["kernels.round_shift"]


def test_self_time_subtracts_children():
    parent = tracer.Span("a.f", None, 0)
    parent.start, parent.end, parent.child_time = 0.0, 10.0, 4.0
    child = tracer.Span("b.g", parent, 0)
    child.start, child.end = 1.0, 5.0
    values = layers.per_layer_values([child, parent], {}, 2)
    assert parent.self_time == 6.0 and child.self_time == 4.0
    assert set(values) == {m.name for m in layers.PER_LAYER}


def test_module_totals_are_per_frame():
    spans = []
    for _ in range(6):
        span = tracer.Span("seeding.frame_seed", None, 0)
        span.end = 2e-6
        spans.append(span)
    values = layers.per_layer_values(spans, {}, 3)
    assert values["seeding.frame_seed_calls"] == 2.0
    assert values["seeding.self_us_per_frame"] == pytest.approx(4.0)


def test_metrics_of_a_deleted_function_are_absent():
    gone = layers.absent_metrics(["rfmc.kernels.layer_forward"])
    assert set(gone) == {"kernels.layer_forward_us.L0", "kernels.layer_forward_us.L1",
                         "kernels.layer_forward_us.L2", "stream.frames_per_classify_call"}
    assert "fileio.save_model_s" not in layers.absent_metrics(["rfmc.fileio.save_float_model"])
    assert layers.absent_metrics([]) == []


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER
    ]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


@pytest.fixture
def tiny(monkeypatch):
    for name, value in {
        "SETUP_REPEATS": 1, "SETUP_FRAMES_PER_CLASS": 10, "SETUP_EPOCHS": 1,
        "HELDOUT_FRAMES_PER_CLASS": 4, "OFFLINE_FRAMES_PER_CLASS": 10,
        "OFFLINE_EPOCHS": 1, "LOGIT_SAMPLE": 4, "WARMUP_S": 0.1,
    }.items():
        monkeypatch.setattr(workloads, name, value)


def test_altered_logit_fails_offline(tiny, monkeypatch, tmp_path):
    import rfmc.quant

    honest = rfmc.quant.quantized_forward

    def off_by_one(qnet, frame_q, *args, **kwargs):
        logits, label = honest(qnet, frame_q, *args, **kwargs)
        logits = logits.copy()
        logits[np.argmin(logits)] += 1  # the label stays the same
        return logits, label

    monkeypatch.setattr(rfmc.quant, "quantized_forward", off_by_one)
    r = workloads.Run("offline", 3, 0.1, tmp_path)
    workloads.pipeline_once(r, tmp_path / "p")
    assert r.failed == workloads.LOGIT_SAMPLE


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run(tiny, workload, trace, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "STATE", tmp_path)
    result = run.run_workload(workload, 2, 1.0, bool(trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.E2E_UNITS if not trace else {m.name: m.unit for m in layers.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
