#!/usr/bin/env python3
"""Benchmark of the rfmc package: offline pipeline and loopback serving.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload offline --seed 1 --seconds 45 --trace 0

``--workload all`` runs every workload in turn and prints a summary.

The program is imported from ``src/`` of the checkout and nowhere else.
Every input comes from ``--seed``. The run prints a machine block, the
paper's latencies as context, the CRC32 fingerprints of what it built,
the workload's own named figures, and, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
they are the per-layer metrics, and the spans are saved under
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import logging
import os
import platform
import shutil
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# Paper-reported per-frame latencies: context for the integer path, not metrics.
PAPER_CONTEXT = (
    ("fpga_us", 24.0, "16-bit fixed-point MLP on the FPGA"),
    ("jetson_xavier_us", 3600.0, "GPU, Jetson Xavier"),
    ("jetson_nano_us", 4100.0, "GPU, Jetson Nano"),
)

E2E_UNITS = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "accuracy": "ratio",
}
REPORT_UNITS = {
    "gen_data_fps": "frames/s", "train_epoch_s": "s", "eval_fps": "records/s",
    "classify_fps": "frames/s", "pipeline_s": "s", "accuracy": "ratio",
    "serve_fps": "replies/s", "p50_ms": "ms", "p99_ms": "ms",
    "pipelines": "count", "blocks": "count", "latency_samples": "count",
}


def import_program():
    """Import rfmc from this checkout's src/, refusing any other copy."""
    if not (SRC / "rfmc" / "__init__.py").is_file():
        raise SystemExit(f"error: no rfmc sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import rfmc

    if Path(rfmc.__file__).resolve().parent != SRC / "rfmc":
        raise SystemExit(f"error: imported rfmc from {rfmc.__file__}, not {SRC}")
    return rfmc


def machine_block() -> dict:
    import numpy as np
    import rfmc.kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ[k] for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": threads or "library default",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": getattr(rfmc.kernels, "BACKEND", "absent"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import workloads
    from tracer import Tracer

    work = STATE / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(name, seed, seconds, work)
    log_counter = workloads.StreamLogCounter()
    stream_logger = logging.getLogger("rfmc.stream")
    stream_logger.addHandler(log_counter)
    if trace:
        run.tracer = Tracer()
        run.tracer.install(layers.TARGETS)
    try:
        workloads.WORKLOADS[name](run)
    finally:
        stream_logger.removeHandler(log_counter)
        if run.tracer is not None:
            run.tracer.recording = False
            run.tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if log_counter.warnings:
        run.problems.append(f"rfmc.stream logged {log_counter.warnings} warnings: "
                            f"{log_counter.messages[:3]}")
    run.extra["stream.conn_warnings"] = float(log_counter.warnings)
    run.extra["stream.partial_bytes_dropped"] = float(log_counter.partial_bytes)
    correct = run.failed == 0 and not run.problems and bool(run.e2e)

    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    for key, value in sorted(run.fingerprints.items()):
        print(f"crc32 {key} {value}")
    for key, value in run.report.items():
        print(f"figure {key} {value:.6g} {REPORT_UNITS.get(key, '')}")
    print(f"setup_s runs {' '.join(f'{s:.4f}' for s in run.setup_s)}")
    print(f"operations attempted {run.attempted} failed {run.failed}")
    for problem in run.problems:
        print(f"problem {problem}")

    if trace:
        STATE.joinpath("traces").mkdir(parents=True, exist_ok=True)
        trace_file = STATE / "traces" / f"{name}-seed{seed}.npz"
        run.tracer.write(trace_file)
        print(f"spans {len(run.tracer.spans)} written to {os.path.relpath(trace_file, ROOT)}")
        if run.tracer.absent:
            print(f"absent {' '.join(run.tracer.absent)}")
        values = layers.per_layer_values(run.tracer.spans, run.extra, run.traced_frames)
        gone = layers.absent_metrics(run.tracer.absent)
        if gone:
            print(f"absent metrics {' '.join(gone)}")
        values = {k: v for k, v in values.items() if k not in gone}
        units = {m.name: m.unit for m in layers.PER_LAYER}
        qf = values.get("quant.quantized_forward_us.p50")
        if qf:
            print(f"quant.quantized_forward_us.p50 {qf:.1f} us against the paper's FPGA 24 us "
                  f"({qf / 24.0:.1f}x)")
    else:
        values = {"setup_s": statistics.median(run.setup_s), **run.e2e} if run.setup_s else {}
        units = E2E_UNITS
    return {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if correct else max(run.failed, 1),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("offline", "serve_burst", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads
    print("machine " + json.dumps(machine_block()))
    for key, value, what in PAPER_CONTEXT:
        print(f"context paper_{key} {value:g} us per frame ({what}; context, not a metric)")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except Exception:
            traceback.print_exc()
            print(f"error: workload {name} did not complete", file=sys.stderr)
            return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
