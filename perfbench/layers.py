"""The traced layers, the per-layer metrics, and what each should move.

Layers are the package's modules. Each ``Target`` names the module
attribute the package calls through (``rfmc.data.frame_seed`` rather than
``rfmc.seeding.frame_seed``, because ``data`` binds that name at import).

``PER_LAYER`` lists every per-layer metric with its unit, its direction,
the end-to-end metric it should move and the workload on which it should
move it. The prediction on the other workloads is no change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tracer import Target

MODULES = (
    "seeding", "sigsynth", "channel", "data", "fileio", "nn",
    "quant", "kernels", "evaluation", "stream", "cli",
)
MODULATIONS = ("BPSK", "QPSK", "CPM", "GFSK", "QAM16", "GMSK")

# Input width -> layer index of the paper's 1800-100-20-7 network.
LAYER_OF_INPUT_DIM = {1800: 0, 100: 1, 20: 2}


def _modulation_tag(args: tuple) -> str:
    label = args[0] if args else None
    return "." + getattr(label, "name", str(label))


def _layer_tag(args: tuple) -> str:
    weights = args[0] if args else None
    in_dim = getattr(weights, "shape", (0, 0))[-1]
    return f".L{LAYER_OF_INPUT_DIM.get(in_dim, in_dim)}"


TARGETS = (
    Target("rfmc.data.frame_seed", "seeding.frame_seed"),
    Target("rfmc.sigsynth.modulate", "sigsynth.modulate", tag=_modulation_tag),
    Target("rfmc.sigsynth.gen_noise_frame", "sigsynth.gen_noise_frame"),
    Target("rfmc.channel.apply_awgn", "channel.apply_awgn"),
    Target("rfmc.data.build_dataset", "data.build_dataset"),
    Target("rfmc.data.save_dataset", "data.save_dataset"),
    Target("rfmc.data.load_dataset", "data.load_dataset"),
    Target("rfmc.data.split", "data.split"),
    Target("rfmc.fileio.save_float_model", "fileio.save_model"),
    Target("rfmc.fileio.save_quantized_model", "fileio.save_model"),
    Target("rfmc.fileio.load_model", "fileio.load_model"),
    Target("rfmc.nn._forward_backward", "nn.train_batch"),
    Target("rfmc.nn.adam_step", "nn.adam_step"),
    Target("rfmc.nn.forward", "nn.forward"),
    Target("rfmc.quant.quantize_network", "quant.quantize_network"),
    Target("rfmc.quant.quantize_frame", "quant.quantize_frame"),
    Target("rfmc.quant.quantized_forward", "quant.quantized_forward"),
    Target("rfmc.kernels.layer_forward", "kernels.layer_forward", tag=_layer_tag),
    Target("rfmc.evaluation.evaluate", "evaluation.evaluate"),
    Target("rfmc.stream.make_raw_classifier", "stream.classify", wraps_result=True),
    Target("rfmc.cli.cmd_gen_data", "cli.gen_data"),
    Target("rfmc.cli.cmd_train", "cli.train"),
    Target("rfmc.cli.cmd_quantize", "cli.quantize"),
    Target("rfmc.cli.cmd_eval", "cli.eval"),
    Target("rfmc.cli.cmd_classify", "cli.classify"),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    on: str
    source: str | None = None  # span name the metric is read from


def _m(name, unit, moves, on, better="lower", source=None):
    return LayerMetric(name, unit, better, moves, on, source)


def _fn(span, suffix, unit, moves, on):
    """A metric read from the spans of one traced function."""
    return _m(span + suffix, unit, moves, on, source=span)


_OFF = "offline (serve_burst: no change)"
_SETUP = "offline; setup_s on all workloads, whose set-up runs the same commands"
PER_LAYER = (
    _fn("seeding.frame_seed", "_us", "us", "frames_per_s, gen_data_fps, pipeline_s", _OFF),
    _fn("seeding.frame_seed", "_calls", "calls/frame", "frames_per_s, gen_data_fps", _OFF),
    *(_m(f"sigsynth.modulate_us.{c}", "us", "frames_per_s, gen_data_fps", _OFF,
         source=f"sigsynth.modulate.{c}") for c in MODULATIONS),
    _fn("sigsynth.gen_noise_frame", "_us", "us", "frames_per_s, gen_data_fps", _OFF),
    _fn("channel.apply_awgn", "_us", "us", "frames_per_s, gen_data_fps", _OFF),
    _fn("data.build_dataset", "_s", "s", "frames_per_s, gen_data_fps, pipeline_s", _OFF),
    _fn("data.save_dataset", "_s", "s", "frames_per_s, pipeline_s", _OFF),
    _fn("data.load_dataset", "_s", "s", "frames_per_s, pipeline_s", _OFF),
    _fn("data.split", "_s", "s", "frames_per_s, pipeline_s", _OFF),
    _fn("fileio.save_model", "_s", "s", "frames_per_s, pipeline_s, setup_s", _SETUP),
    _fn("fileio.load_model", "_s", "s", "frames_per_s, pipeline_s, setup_s", _SETUP),
    _fn("nn.train_batch", "_us", "us", "frames_per_s, train_epoch_s", _OFF),
    _fn("nn.adam_step", "_us", "us", "frames_per_s, train_epoch_s", _OFF),
    _fn("nn.forward", "_us", "us", "frames_per_s, eval_fps",
        "offline (serve_burst: the quantized model is served)"),
    _fn("quant.quantize_network", "_s", "s", "frames_per_s, pipeline_s", _OFF),
    _fn("quant.quantize_frame", "_us", "us", "frames_per_s, eval_fps",
        "offline (serve_burst: input is already int16)"),
    _fn("quant.quantized_forward", "_us.p50", "us", "p50_ms, frames_per_s",
        "offline (p50_ms, eval_fps, classify_fps), serve_burst (frames_per_s)"),
    _fn("quant.quantized_forward", "_us.p99", "us", "p99_ms", "offline, serve_burst"),
    *(_m(f"kernels.layer_forward_us.L{i}", "us", "p50_ms, frames_per_s",
         "offline, serve_burst", source=f"kernels.layer_forward.L{i}") for i in range(3)),
    _m("evaluation.evaluate_s.float", "s", "frames_per_s, eval_fps", "offline",
       source="evaluation.evaluate"),
    _m("evaluation.evaluate_s.quantized", "s", "frames_per_s, eval_fps", "offline",
       source="evaluation.evaluate"),
    _fn("cli.gen_data", "_s", "s", "frames_per_s, gen_data_fps, setup_s", _SETUP),
    _fn("cli.train", "_s", "s", "frames_per_s, train_epoch_s, setup_s", _SETUP),
    _fn("cli.quantize", "_s", "s", "frames_per_s, pipeline_s, setup_s", _SETUP),
    _fn("cli.eval", "_s", "s", "frames_per_s, eval_fps", "offline"),
    _fn("cli.classify", "_s", "s", "p50_ms, p99_ms, classify_fps", "offline"),
    _m("stream.frames_per_classify_call", "frames", "frames_per_s",
       "serve_burst (offline: no server)", better="higher",
       source="kernels.layer_forward.L0"),
    _m("stream.classify_busy_frac", "ratio", "frames_per_s, p99_ms", "serve_burst"),
    _m("stream.overhead_us", "us", "p50_ms", "serve_burst"),
    _m("stream.conn_warnings", "count", "failures", "serve_burst"),
    _m("stream.partial_bytes_dropped", "bytes", "failures", "serve_burst"),
    _m("quant.reference_mismatches", "count", "failures", "all"),
    _m("trace.overhead_pct", "%", "none (cost of tracing itself)", "all"),
    *(_m(f"{mod}.self_us_per_frame", "us/frame", "the end-to-end metrics of its rows above", "all")
      for mod in MODULES),
)


def absent_metrics(absent_paths) -> list[str]:
    """Metrics read from functions that are all missing from the code.

    Such a metric cannot keep its definition, so it is left out of the
    result instead of reading 0.
    """
    present = {t.name for t in TARGETS if t.path not in absent_paths}

    def traced(source):  # a tagged span name extends its target's name
        return any(source == n or source.startswith(n + ".") for n in present)

    return [m.name for m in PER_LAYER if m.source is not None and not traced(m.source)]


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def per_layer_values(spans, extra: dict[str, float], frames: int) -> dict[str, float]:
    """Every PER_LAYER metric from the recorded spans plus run-level values.

    ``spans`` are those of the traced half only, and ``frames`` is the
    number of frames that half processed (frames synthesized on offline,
    replies on serve_burst), the same unit as ``frames_per_s``. Function
    metrics are the median inclusive duration per call; module metrics
    (``<module>.self_us_per_frame``) are total self time per frame, and
    ``seeding.frame_seed_calls`` is calls per frame. A function that was
    never called reads 0.
    """
    durations: dict[str, list[float]] = {}
    self_total = dict.fromkeys(MODULES, 0.0)
    eval_kind: dict[int, str] = {}
    for span in spans:
        durations.setdefault(span.name, []).append(span.duration)
        module = span.name.split(".", 1)[0]
        if module in self_total:
            self_total[module] += span.self_time
        if module == "quant":
            ancestor = span.parent
            while ancestor is not None:
                if ancestor.name == "evaluation.evaluate":
                    eval_kind[id(ancestor)] = "quantized"
                ancestor = ancestor.parent
    evals = {"float": [], "quantized": []}
    for span in spans:
        if span.name == "evaluation.evaluate":
            evals[eval_kind.get(id(span), "float")].append(span.duration)

    per = max(frames, 1)

    def us(name):
        return _median(durations.get(name, ())) * 1e6

    def s(name):
        return _median(durations.get(name, ()))

    qf = np.asarray(durations.get("quant.quantized_forward", ()), dtype=float) * 1e6
    out = {
        "seeding.frame_seed_us": us("seeding.frame_seed"),
        "seeding.frame_seed_calls": len(durations.get("seeding.frame_seed", ())) / per,
        **{f"sigsynth.modulate_us.{c}": us(f"sigsynth.modulate.{c}") for c in MODULATIONS},
        "sigsynth.gen_noise_frame_us": us("sigsynth.gen_noise_frame"),
        "channel.apply_awgn_us": us("channel.apply_awgn"),
        **{f"data.{f}_s": s(f"data.{f}")
           for f in ("build_dataset", "save_dataset", "load_dataset", "split")},
        "fileio.save_model_s": s("fileio.save_model"),
        "fileio.load_model_s": s("fileio.load_model"),
        "nn.train_batch_us": us("nn.train_batch"),
        "nn.adam_step_us": us("nn.adam_step"),
        "nn.forward_us": us("nn.forward"),
        "quant.quantize_network_s": s("quant.quantize_network"),
        "quant.quantize_frame_us": us("quant.quantize_frame"),
        "quant.quantized_forward_us.p50": float(np.percentile(qf, 50)) if len(qf) else 0.0,
        "quant.quantized_forward_us.p99": float(np.percentile(qf, 99)) if len(qf) else 0.0,
        **{f"kernels.layer_forward_us.L{i}": us(f"kernels.layer_forward.L{i}") for i in range(3)},
        "evaluation.evaluate_s.float": _median(evals["float"]),
        "evaluation.evaluate_s.quantized": _median(evals["quantized"]),
        **{f"cli.{c}_s": s(f"cli.{c}")
           for c in ("gen_data", "train", "quantize", "eval", "classify")},
        **{f"{mod}.self_us_per_frame": total * 1e6 / per for mod, total in self_total.items()},
    }
    out.update(extra)
    return {m.name: float(out.get(m.name, 0.0)) for m in PER_LAYER}
