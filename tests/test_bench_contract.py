"""What the benchmark in bench/ needs of redld: every per-layer metric that
BENCHMARK.json declares is one the tracer reports, and the kernel functions
the backend cross-check calls exist on both backends.  The tracer leaves a
metric out when redld no longer has the function it wraps (the candidate
and descent figures need grids' helpers of those names), so deleting such a
function fails here rather than in a benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

# Tracer.install wraps functions in these modules, so they must be loaded
import redld.cli  # noqa: F401
import redld.graph  # noqa: F401
import redld.grids  # noqa: F401
import redld.satreduce  # noqa: F401
import redld.solver  # noqa: F401
import redld.trees  # noqa: F401
import redld.verify  # noqa: F401
from redld._kernels import pybits

try:
    from redld._kernels import _ckern
except ImportError:
    _ckern = None

ROOT = Path(__file__).resolve().parent.parent


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reports_every_declared_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    tracer = bench_module("tracer").Tracer()
    tracer.install()
    try:
        reported = set(tracer.metrics()) | {"trace.overhead_frac"}
    finally:
        tracer.uninstall()
    assert reported == {metric["name"] for metric in declared}


@pytest.mark.parametrize("kern", [pybits, pytest.param(_ckern, marks=pytest.mark.skipif(
    _ckern is None, reason="compiled kernel not built"))], ids=["py", "c"])
def test_backend_check_finds_its_kernel_functions(kern):
    bench_module("backends")  # imports the grids helpers it builds its inputs with
    for name in ("make_ctx", "brute_force_min", "pairs_scan", "bnb"):
        assert callable(getattr(kern, name, None)), name
