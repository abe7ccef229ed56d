"""The workloads: offline and serve_burst.

Every workload starts with the same set-up, repeated ``SETUP_REPEATS``
times and reported as a median: build a small quantized model from the
seed through the CLI (gen-data, train, quantize) and load it.
``serve_burst`` also starts the stream server in this process; its
client runs in a process of its own (``client.py``), one per measured
block. Inputs the benchmark derives from the seed (held-out frames, the
labels replies must carry) are made after the set-up clock stops and
before the measuring clock starts.

In a traced run the tracer records only while the traced half of the
measuring time runs, and never the benchmark's own checks.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import logging
import re
import statistics
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from client import Frames, Window

import rfmc.cli
import rfmc.data
import rfmc.fileio
import rfmc.quant
import rfmc.stream

SETUP_REPEATS = 3
SETUP_FRAMES_PER_CLASS = 250
SETUP_EPOCHS = 6
HELDOUT_FRAMES_PER_CLASS = 200

OFFLINE_FRAMES_PER_CLASS = 300
OFFLINE_EPOCHS = 5
LOGIT_SAMPLE = 32

CONNECTIONS = 2
BURST_WINDOW = 16
WARMUP_S = 0.5
# A measured block: one client process with fresh connections. Latency
# settles into a level per pair of connections, so the serve metrics are
# medians over blocks rather than over one long stretch.
BLOCK_S = 4.5
THREAD_EXIT_TIMEOUT_S = 5.0
CLIENT = Path(__file__).resolve().parent / "client.py"
CLIENT_GRACE_S = 60.0  # start-up and drain allowance beyond the measured time

NUM_CLASSES = 7


def derive_seeds(seed: int, n: int) -> list[int]:
    """``n`` program seeds from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, np.uint32)]


class StampedOutput(io.TextIOBase):
    """A stdout stand-in that keeps the text and the time each line ended."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.line_times: list[float] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.parts.append(text)
        newlines = text.count("\n")
        if newlines:
            self.line_times.extend([time.perf_counter()] * newlines)
        return len(text)

    @property
    def text(self) -> str:
        return "".join(self.parts)


def run_cli(argv: list[str]) -> tuple[int, StampedOutput, float, float]:
    """rfmc.cli.main in-process: (exit code, stdout, start, end)."""
    out = StampedOutput()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = rfmc.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out, start, time.perf_counter()


class StreamLogCounter(logging.Handler):
    """Counts warnings from ``rfmc.stream`` and the partial bytes it drops."""

    _DROPPED = re.compile(r"(\d+) residual bytes")

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.warnings = 0
        self.partial_bytes = 0
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        self.warnings += 1
        self.messages.append(message)
        match = self._DROPPED.search(message)
        if match:
            self.partial_bytes += int(match.group(1))


@dataclass
class Run:
    """State of one benchmark run and what it found."""

    workload: str
    seed: int
    seconds: float
    work: Path
    tracer: object | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    traced_frames: int = 0  # frames the traced half processed
    e2e: dict[str, float] = field(default_factory=dict)
    report: dict[str, float] = field(default_factory=dict)  # named per workload
    extra: dict[str, float] = field(default_factory=dict)   # per-layer, not from spans
    fingerprints: dict[str, str] = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)

    def set_recording(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.recording = on

    @contextlib.contextmanager
    def untraced(self):
        """Keep the benchmark's own work out of the spans."""
        was = self.tracer is not None and self.tracer.recording
        self.set_recording(False)
        try:
            yield
        finally:
            self.set_recording(was)

    def measure_halves(self, measure):
        """Untraced runs use all the time; traced runs split it in two.

        Returns (untraced result, traced result or None).
        """
        if self.tracer is None:
            return measure(self.seconds), None
        plain = measure(self.seconds / 2)
        self.set_recording(True)
        try:
            traced = measure(self.seconds / 2)
        finally:
            self.set_recording(False)
        return plain, traced


def build_model(run: Run, directory: Path):
    """Set-up model: a small dataset, a short training run, quantized."""
    directory.mkdir(parents=True, exist_ok=True)
    data_seed, _, train_seed = derive_seeds(run.seed, 3)
    ds, fm, qm = (str(directory / n) for n in ("setup.rfds", "setup_float.rfmc", "setup_quant.rfmc"))
    for argv in (
        ["gen-data", "--out", ds, "--frames-per-class", str(SETUP_FRAMES_PER_CLASS),
         "--seed", str(data_seed)],
        ["train", "--dataset", ds, "--out", fm, "--epochs", str(SETUP_EPOCHS),
         "--seed", str(train_seed)],
        ["quantize", "--model", fm, "--dataset", ds, "--out", qm],
    ):
        code, out, _, _ = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"set-up command {argv[0]} exited {code}: {out.text[-500:]}")
    return rfmc.fileio.load_model(qm)


def heldout_frames(run: Run, qnet) -> Frames:
    """Held-out frames quantized under the model's input format, with labels."""
    _, heldout_seed, _ = derive_seeds(run.seed, 3)
    dataset = rfmc.data.build_dataset(
        rfmc.data.DatasetSpec(frames_per_class=HELDOUT_FRAMES_PER_CLASS, master_seed=heldout_seed)
    )
    frames_q = reference.quantize_frames(dataset.frames, qnet.act_frac[0])
    return Frames(
        payloads=[row.astype("<i2").tobytes() for row in frames_q],
        expected=reference.labels(qnet, frames_q),
        truth=dataset.labels.astype(np.int64),
    )


def crc_of(path: Path) -> str:
    return f"{zlib.crc32(path.read_bytes()) & 0xFFFFFFFF:08x}"


def percentile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q) * 1e3) if seconds else 0.0


# -- offline ------------------------------------------------------------------


@dataclass
class PipelineRep:
    stages: dict[str, float]
    completion_s: list[float]  # from the start of classify --raw to each result line
    quantized_accuracy: float
    fingerprints: dict[str, str]

    @property
    def pipeline_s(self) -> float:
        return sum(self.stages.values())


def pipeline_once(run: Run, directory: Path) -> PipelineRep | None:
    """gen-data -> train -> quantize -> eval --compare -> classify --raw."""
    directory.mkdir(parents=True)
    data_seed, heldout_seed, train_seed = derive_seeds(run.seed, 3)
    p = {n: str(directory / n) for n in
         ("train.rfds", "heldout.rfds", "float.rfmc", "quant.rfmc", "heldout.raw")}
    stages: dict[str, float] = {}
    outputs: dict[str, tuple] = {}

    def stage(name, argv):
        code, out, start, end = run_cli(argv)
        stages[name] = end - start
        outputs[name] = (out, start)
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}")

    n_heldout = NUM_CLASSES * HELDOUT_FRAMES_PER_CLASS
    try:
        stage("gen_data", ["gen-data", "--out", p["train.rfds"], "--frames-per-class",
                           str(OFFLINE_FRAMES_PER_CLASS), "--seed", str(data_seed)])
        stage("gen_heldout", ["gen-data", "--out", p["heldout.rfds"], "--frames-per-class",
                              str(HELDOUT_FRAMES_PER_CLASS), "--seed", str(heldout_seed)])
        stage("train", ["train", "--dataset", p["train.rfds"], "--out", p["float.rfmc"],
                        "--epochs", str(OFFLINE_EPOCHS), "--seed", str(train_seed)])
        stage("quantize", ["quantize", "--model", p["float.rfmc"], "--dataset",
                           p["train.rfds"], "--out", p["quant.rfmc"]])
        stage("eval", ["eval", "--model", p["float.rfmc"], "--dataset", p["heldout.rfds"],
                       "--compare", p["quant.rfmc"]])
        # Input for classify --raw, made outside the stage clocks.
        with run.untraced():
            qnet = rfmc.fileio.load_model(p["quant.rfmc"])
            heldout = rfmc.data.load_dataset(p["heldout.rfds"])
        frames_q = reference.quantize_frames(heldout.frames, qnet.act_frac[0])
        Path(p["heldout.raw"]).write_bytes(frames_q.astype("<i2").tobytes())
        stage("classify", ["classify", "--model", p["quant.rfmc"], "--raw", p["heldout.raw"]])
    except RuntimeError as exc:
        run.attempted += 1 + n_heldout + LOGIT_SAMPLE
        run.fail(1 + n_heldout + LOGIT_SAMPLE, str(exc))
        return None

    ref_logits = reference.logits(qnet, frames_q)
    ref_labels = np.argmax(ref_logits, axis=1)
    accuracy = float(np.mean(ref_labels == heldout.labels))
    run.attempted += 1 + n_heldout + LOGIT_SAMPLE

    # eval --compare: the quantized report must match the reference accuracy.
    accuracies = re.findall(r"^overall_accuracy (\S+)$", outputs["eval"][0].text, re.M)
    if len(accuracies) != 2 or accuracies[1] != f"{accuracy:.6f}":
        run.fail(1, f"eval quantized accuracy {accuracies[1:]} != reference {accuracy:.6f}")

    # classify --raw: one line per frame carrying the reference label.
    out, start = outputs["classify"]
    lines = out.text.splitlines()
    got = np.full(n_heldout, -1)
    for line in lines:
        fields = line.split("\t")
        if len(fields) >= 2 and fields[0].isdigit() and int(fields[0]) < n_heldout:
            got[int(fields[0])] = int(fields[1])
    wrong = int(np.sum(got != ref_labels))
    if wrong or len(lines) != n_heldout:
        run.fail(max(wrong, 1), f"classify --raw: {wrong} labels differ from the reference")
        run.extra["quant.reference_mismatches"] = run.extra.get("quant.reference_mismatches", 0) + wrong

    # The program's integer logits on a fixed sample must equal the oracle's.
    mismatched = 0
    with run.untraced():
        for i in range(LOGIT_SAMPLE):
            program = np.asarray(rfmc.quant.quantized_forward(qnet, frames_q[i])[0], np.int64)
            mismatched += int(not np.array_equal(program, ref_logits[i]))
    if mismatched:
        run.fail(mismatched, f"{mismatched} of {LOGIT_SAMPLE} sampled logit vectors differ")
        run.extra["quant.reference_mismatches"] = (
            run.extra.get("quant.reference_mismatches", 0) + mismatched)

    fingerprints = {
        "dataset": crc_of(Path(p["train.rfds"])),
        "float_model": crc_of(Path(p["float.rfmc"])),
        "quantized_model": crc_of(Path(p["quant.rfmc"])),
    }
    return PipelineRep(
        stages=stages,
        completion_s=[t - start for t in out.line_times],
        quantized_accuracy=accuracy,
        fingerprints=fingerprints,
    )


def offline(run: Run) -> None:
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        build_model(run, run.work / f"setup{rep}")
        run.setup_s.append(time.perf_counter() - start)

    counter = itertools.count()

    def measure(seconds):
        reps = []
        end = time.perf_counter() + seconds
        while not reps or time.perf_counter() < end:
            rep = pipeline_once(run, run.work / f"pipeline{next(counter)}")
            if rep is None:
                break
            reps.append(rep)
        return reps

    plain, traced = run.measure_halves(measure)
    reps = plain + (traced or [])
    if not reps:
        run.fail(1, "no pipeline run completed")
        return
    run.fingerprints = reps[0].fingerprints
    differing = sum(r.fingerprints != reps[0].fingerprints for r in reps)
    if differing:
        run.fail(differing, f"{differing} pipeline runs of one seed gave different CRC32s")

    def med(values):
        return statistics.median(values)

    frames_done = NUM_CLASSES * (OFFLINE_FRAMES_PER_CLASS + HELDOUT_FRAMES_PER_CLASS)
    n_heldout = NUM_CLASSES * HELDOUT_FRAMES_PER_CLASS
    run.e2e = {
        "frames_per_s": med([frames_done / r.pipeline_s for r in plain]),
        "p50_ms": med([percentile_ms(r.completion_s, 50) for r in plain]),
        "p99_ms": med([percentile_ms(r.completion_s, 99) for r in plain]),
        "accuracy": reps[0].quantized_accuracy,
    }
    run.report = {
        "gen_data_fps": med([NUM_CLASSES * OFFLINE_FRAMES_PER_CLASS / r.stages["gen_data"]
                             for r in plain]),
        "train_epoch_s": med([r.stages["train"] / OFFLINE_EPOCHS for r in plain]),
        "eval_fps": med([2 * n_heldout / r.stages["eval"] for r in plain]),
        "classify_fps": med([n_heldout / r.stages["classify"] for r in plain]),
        "pipeline_s": med([r.pipeline_s for r in plain]),
        "accuracy": reps[0].quantized_accuracy,
        "pipelines": len(plain),
    }
    if traced:
        run.traced_frames = frames_done * len(traced)
        plain_s = med([r.pipeline_s for r in plain])
        run.extra["trace.overhead_pct"] = (med([r.pipeline_s for r in traced]) / plain_s - 1) * 100


# -- serve ----------------------------------------------------------------------


def _threads() -> set[threading.Thread]:
    return set(threading.enumerate())


def _wait_threads(run: Run, allowed: set[threading.Thread], what: str) -> None:
    deadline = time.perf_counter() + THREAD_EXIT_TIMEOUT_S
    while _threads() - allowed:
        if time.perf_counter() > deadline:
            run.fail(1, f"{what}: {len(_threads() - allowed)} server threads still running")
            return
        time.sleep(0.005)


class Serving:
    """A started server; ``close`` stops it once its threads have ended."""

    def __init__(self, run: Run, qnet):
        self.run = run
        self.before = _threads()
        self.server = rfmc.stream.StreamServer(qnet)
        self.server.start()
        self.listening = _threads()
        self._clients = itertools.count()

    def drive(self, frames_file: Path, seconds: float) -> Window:
        """One client process running the closed loop for ``seconds``."""
        out = frames_file.with_name(f"client{next(self._clients)}.npz")
        host, port = self.server.address[:2]
        argv = [sys.executable, str(CLIENT), "--host", host, "--port", str(port),
                "--frames", str(frames_file), "--out", str(out),
                "--connections", str(CONNECTIONS), "--window", str(BURST_WINDOW),
                "--seconds", repr(seconds)]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=seconds + CLIENT_GRACE_S)
        # The server's connection threads end on their own at end of stream.
        _wait_threads(self.run, self.listening, "after the client closed")
        if proc.returncode != 0:
            self.run.fail(1, f"client exited {proc.returncode}: {proc.stderr[-500:]}")
            return Window()
        with np.load(out) as r:
            self.run.attempted += int(r["attempted"])
            if r["failed"]:
                self.run.fail(int(r["failed"]), f"{int(r['failed'])} frames got a wrong or no reply")
            self.run.extra["quant.reference_mismatches"] = (
                self.run.extra.get("quant.reference_mismatches", 0.0) + int(r["wrong"]))
            return Window(seconds=float(r["seconds"]), replies=int(r["replies"]),
                          true_labels=int(r["true_labels"]),
                          sent_s=r["sent_s"].tolist(), latency_s=r["latency_s"].tolist())

    def close(self) -> None:
        self.server.stop()
        _wait_threads(self.run, self.before, "after server stop")


def serve_burst(run: Run) -> None:
    serving = None
    for rep in range(SETUP_REPEATS):
        if serving is not None:
            serving.close()
        start = time.perf_counter()
        qnet = build_model(run, run.work / f"setup{rep}")
        serving = Serving(run, qnet)
        run.setup_s.append(time.perf_counter() - start)

    def measure(seconds):
        blocks = max(1, round(seconds / BLOCK_S))
        windows = [serving.drive(frames_file, seconds / blocks) for _ in range(blocks)]
        return [w for w in windows if w.replies]

    try:
        frames_file = run.work / "frames.npz"
        heldout_frames(run, qnet).save(frames_file)
        serving.drive(frames_file, WARMUP_S)
        plain, traced = run.measure_halves(measure)
    finally:
        serving.close()

    if not plain:
        run.fail(1, "no replies in the measured window")
        return
    replies = sum(w.replies for w in plain)
    run.e2e = {
        "frames_per_s": statistics.median(w.replies / w.seconds for w in plain),
        "p50_ms": statistics.median(percentile_ms(w.latency_s, 50) for w in plain),
        "p99_ms": statistics.median(percentile_ms(w.latency_s, 99) for w in plain),
        "accuracy": sum(w.true_labels for w in plain) / replies,
    }
    run.report = {
        "serve_fps": run.e2e["frames_per_s"],
        "p50_ms": run.e2e["p50_ms"],
        "p99_ms": run.e2e["p99_ms"],
        "blocks": len(plain),
        "latency_samples": replies,
    }
    if traced:
        run.traced_frames = sum(w.replies for w in traced)
        _stream_layer(run, traced)


def _stream_layer(run: Run, windows: list[Window]) -> None:
    """Server-side per-layer values from the traced blocks' spans.

    A classify invocation is one first-layer kernel call on a server
    thread, batched or not, so the count keeps its meaning whichever
    wrapper sits above the kernel. Busy time is the time server threads
    spent inside outermost traced calls.
    """
    main = threading.main_thread().ident
    server = [s for s in run.tracer.spans if s.thread != main]
    calls = [s for s in server if s.name == "kernels.layer_forward.L0"]
    roots = [s for s in server if s.parent is None]
    replies = sum(w.replies for w in windows)
    seconds = sum(w.seconds for w in windows)
    extra = run.extra
    if calls:
        extra["stream.frames_per_classify_call"] = replies / len(calls)
    if roots:
        extra["stream.classify_busy_frac"] = sum(s.duration for s in roots) / seconds
        root_p50 = float(np.median([s.duration for s in roots]))
        latency_p50 = statistics.median(float(np.median(w.latency_s)) for w in windows)
        extra["stream.overhead_us"] = (latency_p50 - root_p50) * 1e6
    traced_fps = statistics.median(w.replies / w.seconds for w in windows)
    extra["trace.overhead_pct"] = (run.e2e["frames_per_s"] / traced_fps - 1) * 100


WORKLOADS = {
    "offline": offline,
    "serve_burst": serve_burst,
}
