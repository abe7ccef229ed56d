"""Every module attribute the benchmark in ``perfbench/`` traces or calls exists.

The benchmark's tracer records an attribute it cannot find as absent
instead of failing, so deleting one from the package would drop its
metrics silently. This test loads the benchmark's target list without
running or changing anything under ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Called directly rather than traced: the offline workload checks
# ``quantized_forward``'s logits against its int64 oracle, and the
# tracer's self-test wraps ``round_shift``.
CALLED = ("rfmc.quant.quantized_forward", "rfmc.kernels.round_shift")


def load_perfbench_module(mp, name):
    """Import ``perfbench/<name>.py`` under its own name, which ``mp`` removes
    from ``sys.modules`` again on exit."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    mp.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_target_resolves():
    with pytest.MonkeyPatch.context() as mp:
        tracer = load_perfbench_module(mp, "tracer")
        layers = load_perfbench_module(mp, "layers")
    paths = [target.path for target in layers.TARGETS] + list(CALLED)
    assert [path for path in paths if tracer.resolve(path) is None] == []
