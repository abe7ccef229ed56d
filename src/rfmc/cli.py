"""Command-line entry point: rfmc <subcommand>.

Subcommands wire the library end to end: gen-data -> train -> quantize ->
eval / bench / classify / serve. Every command exits 0 on success, 1 on a
runtime failure (missing/corrupt files and the like), and 2 on usage
errors; a reader that closes stdout early is not a failure. All
randomness hangs off --seed, so reruns are byte-identical.

``classify --raw`` classifies frames as they are read, at most
``model.LOGITS_SLICE`` per batch, and flushes each batch's lines, so a
live stream on stdin gets its labels before it ends and memory stays
bounded whatever the input's length.
"""

from __future__ import annotations

import argparse
import os
import select
import sys
import time

import numpy as np

from . import bench, data, evaluation, fileio, model, nn, quant, seeding, sigsynth
from .fileio import ContainerError
from .sigsynth import LABEL_NAMES, ModulationLabel, label_name
from .stream import StreamServer

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# ``train`` fits on this share of each class and reports accuracy on the rest.
TRAIN_FRACTION = 0.8


class UsageError(Exception):
    """Bad flag combinations detected after argparse."""


def snr_grid_arg(text: str, limit: int = sys.maxsize) -> tuple[float, ...]:
    """Parse --snr: 'start:end:step' in dB (inclusive), or one value; all
    finite. At most the first ``limit`` entries are built."""
    try:
        values = tuple(float(v) for v in text.split(":"))
        if not np.all(np.isfinite(values)):
            raise ValueError
        if len(values) == 1:
            return values
        start, end, step = values
        if step <= 0 or end < start:
            raise ValueError
        count = int(round((end - start) / step)) + 1
        return tuple(start + i * step for i in range(min(count, limit))
                     if start + i * step <= end + 1e-9)
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"malformed SNR range {text!r}: expected finite 'start:end:step' in dB"
        ) from None


def snr_arg(text: str) -> str:
    """Check --snr as it is parsed; ``cmd_gen_data`` builds the entries it uses."""
    snr_grid_arg(text, limit=1)
    return text


def port_arg(text: str) -> int:
    """Parse --port: a TCP port, 0..65535 (0 picks a free one)."""
    if not (text.isdecimal() and int(text) <= 65535):
        raise argparse.ArgumentTypeError(f"expected a port in 0..65535, got {text!r}")
    return int(text)


def cmd_gen_data(args: argparse.Namespace) -> int:
    spec = data.DatasetSpec(
        frames_per_class=args.frames_per_class,
        snr_grid=snr_grid_arg(args.snr, limit=args.frames_per_class),
        master_seed=args.seed,
    )
    t0 = time.time()
    dataset = data.build_dataset(spec)
    data.save_dataset(dataset, args.out)
    print(f"wrote {args.out}: {len(dataset)} records in {time.time() - t0:.1f}s")
    counts = dataset.class_counts()
    for cls, name in enumerate(LABEL_NAMES):
        print(f"  class {cls} {name:6s} {counts[cls]} frames")
    valid = ~np.isnan(dataset.snr_db)
    for snr in np.unique(dataset.snr_db[valid]):
        print(f"  snr {snr:g} dB: {int((dataset.snr_db == snr).sum())} frames")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    dataset = data.load_dataset(args.dataset)
    train_ds, val_ds = data.split(dataset, TRAIN_FRACTION, seed=args.seed)
    t0 = time.time()
    params, history = nn.train(train_ds.frames, train_ds.labels, args.epochs, args.seed)
    elapsed = time.time() - t0
    fileio.save_float_model(args.out, params)
    print(f"trained {len(train_ds)} frames, {args.epochs} epochs in {elapsed:.1f}s")
    for epoch, loss in enumerate(history, 1):
        print(f"  epoch {epoch:3d} loss {loss:.4f}")
    for name, split in (("train", train_ds), ("validation", val_ds)):
        print(f"{name}_accuracy {np.mean(_labeler(params)(split.frames) == split.labels):.4f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _load_classifier(load, path: str):
    """``load(path)``, checked by ``model.check_shape``."""
    net = load(path)
    model.check_shape(net, path)
    return net


def cmd_quantize(args: argparse.Namespace) -> int:
    params = _load_classifier(fileio.load_float_model, args.model)
    calibration = data.load_dataset(args.dataset)
    qnet = quant.quantize_network(params, calibration.frames)
    fileio.save_quantized_model(args.out, qnet)
    print(f"wrote {args.out}")
    print(f"input_format Q{15 - quant.INPUT_FORMAT}.{quant.INPUT_FORMAT} "
          f"(raw int16 streams must be pre-quantized to this format)")
    for i in range(qnet.n_layers):
        err = np.max(np.abs(
            quant.dequantize_array(qnet.weights[i], qnet.weight_frac[i]) - params.weights[i]
        ))
        print(
            f"  layer {i}: weight_frac {qnet.weight_frac[i]} act_frac {qnet.act_frac[i]} "
            f"bias_shift {qnet.acc_frac(i)} max_weight_roundtrip_err {err:.2e}"
        )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    dataset = data.load_dataset(args.dataset)
    net = _load_classifier(fileio.load_model, args.model)

    if args.compare is not None:
        if model.path(net) != "float":
            raise UsageError("--compare needs a float --model")
        qnet = _load_classifier(fileio.load_quantized_model, args.compare)
        float_report = evaluation.evaluate(_labeler(net), dataset)
        quant_report = evaluation.evaluate(_labeler(qnet), dataset)
        print("# float path")
        print(evaluation.format_report(float_report))
        print()
        print("# quantized path")
        print(evaluation.format_report(quant_report))
        print()
        gap = quant_report.overall_accuracy - float_report.overall_accuracy
        print(f"accuracy_gap_quantized_minus_float {gap:+.6f}")
        error_delta = quant_report.per_class_error - float_report.per_class_error
        for cls, name in enumerate(LABEL_NAMES):
            print(f"  error_delta {name:6s} {error_delta[cls]:+.4f}")
        return EXIT_OK

    report = evaluation.evaluate(_labeler(net), dataset)
    print(f"path {model.path(net)}")
    print(evaluation.format_report(report))
    return EXIT_OK


def _labeler(net):
    """Float frames (n, 1800) -> labels (n,), the argmax of ``model.logits``."""
    return lambda frames: np.argmax(model.logits(net, frames), axis=1)


def cmd_bench(args: argparse.Namespace) -> int:
    net = _load_classifier(fileio.load_model, args.model)
    streams = seeding.FrameStreams(bench.FRAME_SEED, ModulationLabel.NOISE, max(args.frames, 0))
    frames_q = quant.quantize_array(sigsynth.gen_noise_batch(streams), quant.INPUT_FORMAT)

    def classifier(frame_q):
        return int(np.argmax(model.raw_logits(net, frame_q[np.newaxis])[0]))

    report = bench.bench_inference(classifier, frames_q, warmup=args.warmup)
    print(f"path {model.path(net)}")
    print(bench.format_latency_report(report))
    return EXIT_OK


def _print_labels(net, logits: np.ndarray, start: int = 0) -> None:
    """One line per frame: index (counted from ``start``), label id, label
    name; the float path adds the 7 class probabilities. The batch's lines
    go out in one write; an empty batch prints nothing."""
    if not len(logits):
        return
    lines = [
        f"{start + i}\t{label}\t{label_name(label)}"
        for i, label in enumerate(np.argmax(logits, axis=1).tolist())
    ]
    if model.path(net) == "float":
        lines = [
            line + "\t" + " ".join(f"{p:.6f}" for p in row)
            for line, row in zip(lines, nn.softmax(logits).tolist())
        ]
    print("\n".join(lines))


def cmd_classify(args: argparse.Namespace) -> int:
    if (args.dataset is None) == (args.raw is None):
        raise UsageError("give exactly one of --dataset or --raw")
    net = _load_classifier(fileio.load_model, args.model)
    if args.dataset is not None:
        _print_labels(net, model.logits(net, data.load_dataset(args.dataset).frames))
        return EXIT_OK

    if args.raw == "-":
        n_frames, remainder = _classify_raw(net, sys.stdin.buffer)
    else:
        with open(args.raw, "rb") as source:
            n_frames, remainder = _classify_raw(net, source)
    if remainder:
        print(
            f"warning: truncated frame at byte offset {n_frames * model.FRAME_BYTES}: "
            f"{remainder} trailing bytes ignored",
            file=sys.stderr,
        )
    return EXIT_OK


def _classify_raw(net, source) -> tuple[int, int]:
    """Classify and print the raw frames of ``source`` as they arrive:
    (frames classified, trailing bytes of a partial frame at the end).

    Each ``read1`` asks for ``model.LOGITS_SLICE`` frames. A regular file
    returns them all; a pipe returns what has arrived, and reads go on while
    select finds more waiting, so the batch follows the arrival rate. A
    partial frame waits for the next read.
    """
    slice_bytes = model.LOGITS_SLICE * model.FRAME_BYTES
    n_frames = 0
    pending = b""
    while chunk := source.read1(slice_bytes):
        pieces = [pending + chunk]  # joined once; a lone piece is not copied
        held = len(pieces[0])
        while held < slice_bytes and select.select([source], [], [], 0)[0]:
            if not (more := source.read1(slice_bytes - held)):
                break
            pieces.append(more)
            held += len(more)
        frames_q, pending = model.split_frames(b"".join(pieces))
        if len(frames_q):
            _print_labels(net, model.raw_logits(net, frames_q), start=n_frames)
            sys.stdout.flush()
            n_frames += len(frames_q)
    return n_frames, len(pending)


def cmd_serve(args: argparse.Namespace) -> int:
    net = _load_classifier(fileio.load_model, args.model)
    server = StreamServer(net, host=args.host, port=args.port)
    server.start()
    host, port = server.address
    print(f"serving {model.path(net)} model on {host}:{port} "
          f"({model.FRAME_BYTES}-byte int16 frames in, 2-byte replies out)")
    server.serve_forever()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfmc", description="RF modulation classifier pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a labeled dataset file")
    p.add_argument("--out", required=True)
    p.add_argument("--frames-per-class", type=int, default=100)
    p.add_argument("--snr", type=snr_arg, default="0:18:2")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the float network on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=nn.EPOCHS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("quantize", help="quantize a float model to int16")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True, help="calibration dataset file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("eval", help="confusion matrix and accuracy report")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--compare", metavar="QUANT_MODEL",
                   help="also evaluate this quantized model and print the gap")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="latency/throughput of an inference path")
    p.add_argument("--model", required=True)
    p.add_argument("--frames", type=int, default=1000)
    p.add_argument("--warmup", type=int, default=100)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("classify", help="print one line per classified frame")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", help="dataset file input")
    p.add_argument("--raw", help="raw frames in rfmc.model's wire format, from a file or "
                   "'-' for stdin; frames are classified as they are read, at most "
                   "LOGITS_SLICE per batch, and each batch's lines are flushed")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("serve", help="TCP stream classifier")
    p.add_argument("--model", required=True)
    p.add_argument("--port", type=port_arg, required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (say, `| head -1`). Each command has written
        # its file before printing; what is still buffered goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ContainerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
