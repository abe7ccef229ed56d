"""The benchmark in ``perfbench/`` still runs on the package.

Every module attribute it traces or calls exists: the benchmark's tracer
records an attribute it cannot find as absent instead of failing, so
deleting one from the package would drop its metrics silently. And the
benchmark's own self-test passes, so a change to what it calls (say
``round_shift`` or ``quantized_forward``) cannot break it unseen. Nothing
under ``perfbench/`` is changed.
"""

import importlib.util
import subprocess
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


def test_benchmark_self_test_passes():
    # run as the self-test's docstring says: from the root of the checkout
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/selftest.py"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
