"""One repeat of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload solve --seed 0 --result r.json
        [--trace] [--smoke] [--setup-only] [--check-backends]

Imports redld from the checkout's `src`, writes the workload's inputs to a
scratch directory, runs every instance once (the timed region), then checks
every answer with tracing removed.  The JSON written to `--result` holds the
monotonic time at which the first instance started, so the caller can take
set-up time from its own clock, and the machine's speed right then, to scale
it by; plus the wall time (as measured and scaled to an undisturbed
machine), peak RSS, each instance's exit code, output digest and verdict,
and the trace figures.

Exit status 0 means the repeat ran, whatever its answers; anything else
means it could not run (redld missing or not importable).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def _import_redld():
    sys.path.insert(0, str(SRC))
    import redld

    if Path(redld.__file__).resolve().parent != SRC / "redld":
        raise ImportError(f"redld imported from {redld.__file__}, not from {SRC}")
    return redld


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check-backends", action="store_true")
    args = parser.parse_args()

    try:
        redld = _import_redld()
    except ImportError as exc:
        print(f"worker: cannot import redld: {exc}", file=sys.stderr)
        return 2

    if args.check_backends:
        import backends

        Path(args.result).write_text(json.dumps(backends.check()))
        return 0

    import workloads
    from redld.cli import build_parser

    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=Path(args.result).parent))
    try:
        instances = workloads.BUILDERS[args.workload](args.seed, workdir, args.smoke)
        record = {
            "backend": redld.kernel_backend,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "grid_threads": build_parser().get_default("threads"),
        }
        if args.setup_only:
            record["t_first"] = time.monotonic()
            record["setup_speed"] = REF_NOMINAL_S / _reference()
        else:
            record.update(_run(instances, args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(record))
    return 0


# The machine's momentary speed, read from a fixed pure-Python loop.  On a
# shared machine the same work slows down by up to 1.7x, in stretches of a
# few seconds to half a minute, on every CPU alike; dividing each stretch of
# the timed region by the loop's time around it removes that.  Over 1.8 s
# windows of a fixed solve this cut the run-to-run variation from 12% to 2%.
REF_ITERATIONS = 50_000
# The loop's time on an undisturbed 2.1 GHz Xeon vCPU under CPython 3.11, so
# that scaled times read as seconds on that machine.
REF_NOMINAL_S = 0.0091
SEGMENT_S = 0.25


def _reference() -> float:
    t0 = time.perf_counter()
    x, acc = 0x9E3779B97F4A7C15, 0
    for _ in range(REF_ITERATIONS):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc += (x >> 17).bit_count() & 3
    return time.perf_counter() - t0


def _run(instances, trace: bool) -> dict:
    """Run every instance once.  `wall_s` is the measured time of the
    instances; `scaled_wall_s` divides each stretch of at least SEGMENT_S of
    it by the mean time of the reference loops run just before and after
    that stretch, times REF_NOMINAL_S."""
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    results = []
    wall = scaled = segment = 0.0
    t_first = time.monotonic()
    ref_before = _reference()
    setup_speed = REF_NOMINAL_S / ref_before
    for i, inst in enumerate(instances):
        t0 = time.perf_counter()
        results.append(inst.run())
        dt = time.perf_counter() - t0
        wall += dt
        segment += dt
        if segment >= SEGMENT_S or i == len(instances) - 1:
            ref_after = _reference()
            scaled += segment * 2 * REF_NOMINAL_S / (ref_before + ref_after)
            ref_before, segment = ref_after, 0.0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace_metrics = None
    if tracer is not None:
        tracer.uninstall()
        trace_metrics = tracer.metrics()
    verdicts = []
    for inst, (code, out) in zip(instances, results):
        try:
            reason = inst.check(code, out)
        except Exception as exc:  # a malformed answer must fail its check, not the repeat
            reason = f"check raised {type(exc).__name__}: {exc}"
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]
        verdicts.append({"name": inst.name, "code": code, "digest": digest, "error": reason})
    return {
        "t_first": t_first,
        "setup_speed": setup_speed,
        "wall_s": wall,
        "scaled_wall_s": scaled,
        "peak_rss_mb": rss_kb / 1024,
        "instances": verdicts,
        "trace": trace_metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
