#!/usr/bin/env python3
"""redld benchmark: four workloads, each answer checked, one JSON result line.

    python3 bench/run.py --workload {solve,sat,grid,sweep} [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out FILE] [--write-digests]

Run from anywhere; the program measured is `src/redld` of the checkout that
holds this file, on whichever kernel backend it selects by default.

Each repeat runs in a fresh interpreter (`worker.py`), one after another, so
import cost stays in the set-up time and no cache carries over.  Repeats go
on until `--seconds` have passed, and at least two are made.

With `--trace 0` the last line holds the end-to-end metrics, medians over
the repeats:
  wall_s       time to run every instance of the workload once, scaled to
               an undisturbed machine by a reference loop timed around each
               quarter second of it (see `worker.py`): on a shared machine
               identical work slows down by up to 1.7x for seconds at a time
  setup_s      process start to first instance: interpreter start,
               `import redld` and input generation (at least five samples),
               scaled by one reference loop timed right after it
  peak_rss_mb  peak resident memory of a repeat's process
With `--trace 1`, untraced and traced repeats alternate; the last line holds
the per-layer figures of the traced ones (see `tracer.py`) and
`trace.overhead_frac`, the traced wall_s over the untraced one, minus 1.
The compiled kernel is also checked against the pure-Python one when it is
built.

Every answer is checked outside the timed region (see `workloads.py`), each
output is compared across repeats (so tracing cannot change an answer) and,
where the input does not depend on a seed other than the default, with the
digest stored in `digests.json`.  `failed` counts instances that broke any of
these; `failed / attempted` is the failure fraction, which must be 0.
Lines before the last one describe the run for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = BENCH / ".work"
DIGESTS = BENCH / "digests.json"
WORKLOADS = ("solve", "sat", "grid", "sweep")
DEFAULT_SEED = 0
MIN_REPEATS = 2
SETUP_SAMPLES = 5
# No repeat starts once this much of the run has passed, and no worker
# outlives LIMIT_S, so a run ends within three minutes.
START_BY_S = 120.0
LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, smoke: bool, work: Path):
        self.workload, self.seed, self.smoke, self.work = workload, seed, smoke, work
        self.start = time.monotonic()

    def worker(self, *flags: str) -> tuple[dict, float]:
        """Run one worker; returns its record and the set-up time, from
        just before the process starts to its first instance, scaled by the
        machine's speed measured right after."""
        result = self.work / f"result-{time.monotonic_ns()}.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--result", str(result), *flags]
        if self.smoke:
            cmd.append("--smoke")
        timeout = max(1.0, LIMIT_S - (time.monotonic() - self.start))
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerError(f"worker {' '.join(flags)} ran out of time") from None
        try:
            if proc.returncode != 0:
                raise WorkerError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
            record = json.loads(result.read_text())
        finally:
            result.unlink(missing_ok=True)
        setup = (record.get("t_first", t_spawn) - t_spawn) * record.get("setup_speed", 1.0)
        return record, setup

    def elapsed(self) -> float:
        return time.monotonic() - self.start


def _commit() -> str | None:
    """The checked-out commit when the checkout is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args, work: Path) -> tuple[dict, dict]:
    r = Runner(args.workload, args.seed, args.smoke, work)
    r.worker("--setup-only")  # warm-up: byte-compiles redld; not a sample
    untraced, traced, setups = [], [], []
    while True:
        rec, setup = r.worker()
        untraced.append(rec)
        setups.append(setup)
        if args.trace:
            traced.append(r.worker("--trace")[0])
        rounds = len(untraced)
        if rounds >= MIN_REPEATS and r.elapsed() >= args.seconds:
            break
        if r.elapsed() * (rounds + 1) / rounds > START_BY_S:
            break
    while not args.trace and len(setups) < SETUP_SAMPLES and r.elapsed() < START_BY_S:
        setups.append(r.worker("--setup-only")[1])
    backend_check = r.worker("--check-backends")[0] if args.trace else None

    stored = {}
    if DIGESTS.is_file() and not args.write_digests:
        stored = json.loads(DIGESTS.read_text()).get(args.workload, {})
    first: dict[str, str] = {}
    attempted = failed = 0
    problems = []
    for rec in untraced + traced:
        for v in rec["instances"]:
            attempted += 1
            digest = first.setdefault(v["name"], v["digest"])
            problem = v["error"]
            if problem is None and stored.get(v["name"], v["digest"]) != v["digest"]:
                problem = "output differs from the stored digest"
            if problem is None and digest != v["digest"]:
                problem = "output differs between repeats"
            if problem is not None:
                failed += 1
                problems.append(f"{v['name']}: {problem}")
    if backend_check and backend_check["rows"]:
        attempted += 1
        if backend_check["status"] != "ok":
            failed += 1
            problems.append(f"backends disagree: {backend_check['rows']}")

    head = untraced[0]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "commit": _commit(),
        "backend": head["backend"], "python": head["python"],
        "cpu_count": head["cpu_count"], "grid_threads": head["grid_threads"],
        "repeats": len(untraced), "traced_repeats": len(traced),
        "setup_samples": len(setups), "instances": len(head["instances"]),
        "backend_check": backend_check["status"] if backend_check else None,
        "problems": problems[:20],
    }
    walls = [rec["scaled_wall_s"] for rec in untraced]
    if args.trace:
        per_layer = {}
        for key in traced[0]["trace"]:
            per_layer[key] = median([rec["trace"][key] for rec in traced])
        per_layer["trace.overhead_frac"] = \
            median([rec["scaled_wall_s"] for rec in traced]) / median(walls) - 1
        metrics = {key: {"value": value, "unit": _unit(key)} for key, value in per_layer.items()}
    else:
        metrics = {
            "wall_s": {"value": median(walls), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median([rec["peak_rss_mb"] for rec in untraced]),
                            "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    samples = {"wall_s": walls, "setup_s": setups,
               "unscaled_wall_s": [rec["wall_s"] for rec in untraced],
               "traced_wall_s": [rec["scaled_wall_s"] for rec in traced]}
    outputs = {"untraced": {v["name"]: v["digest"] for v in head["instances"]},
               "traced": {v["name"]: v["digest"] for v in traced[0]["instances"]}
               if traced else {}}
    if args.write_digests:
        _write_digests(args, head, failed)
    return {"info": info, "samples": samples, "outputs": outputs}, result


def _unit(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_share", "_frac")):
        return "fraction"
    return "count"


def _write_digests(args, head: dict, failed: int) -> None:
    if args.seed != DEFAULT_SEED or args.smoke or failed:
        raise WorkerError("digests are written from a full, passing run at the default seed")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[args.workload] = {v["name"]: v["digest"] for v in head["instances"]}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced instance counts, for the harness's own test")
    parser.add_argument("--out", help="also write the full record here as JSON")
    parser.add_argument("--write-digests", action="store_true",
                        help="store this run's output digests as the reference")
    args = parser.parse_args()
    if not (ROOT / "src" / "redld" / "__init__.py").is_file():
        print(f"error: no redld sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record, result = run(args, work)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass
    info = record["info"]
    print("run " + json.dumps(info))
    for name, m in result["metrics"].items():
        print(f"  {name:34} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':34} {result['failed'] / result['attempted']:.6g} fraction"
          f" ({result['failed']}/{result['attempted']})")
    if args.out:
        Path(args.out).write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
