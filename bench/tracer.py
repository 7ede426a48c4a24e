"""Per-layer spans and counters, recorded by wrapping redld's entry points.

The wrappers are installed from outside the package: every binding of a
wrapped function in a loaded `redld` module (for example `redld._kernels.bnb`,
and `redld.cli.parse_edge_list` next to `redld.graph.parse_edge_list`) is
replaced, and `uninstall` puts the originals back.  The kernel backends
themselves are left alone, so calls inside a kernel (the predicate a branch
and bound runs at each node) stay unwrapped and are part of that kernel's
time.

Each wrapped call is a span on a per-thread stack.  A span's self time is its
duration minus that of the spans directly inside it, and is added to the
span's self bucket (`cli`, `solver`, `satreduce`, `grids`, ...).  A call
nested in a span of the same name (`is_ld_set` inside
`is_redld_by_definition`) is not counted again as a call or as busy time;
a call made from inside another wrapped function counts (`is_tmax` inside
`enumerate_tmax` is a `trees.classify` call).
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

_BACKEND_MODULES = ("redld._kernels.pybits", "redld._kernels._ckern")


def _bnb_hook(tr: "Tracer", parent, args, result, dt):
    status, value, _mask, nodes = result
    tr.counts["kernels.bnb.nodes"] += nodes
    tr.counts["kernels.bnb.budget_stops"] += status == 2
    if parent != "solver.solve":
        return
    # Per component the solver builds a context, runs the optimum search
    # from the root lower bound (`stop_at`), then fixes vertices one by one.
    if tr.local.fresh_ctx:
        tr.local.fresh_ctx = False
        phase = "optimum"
        if status == 0:
            tr.counts["solver.root_gap"] += value - args[5]
    else:
        phase = "witness"
    tr.counts[f"solver.{phase}.nodes"] += nodes
    tr.busy[f"solver.{phase}"] += dt


def _make_ctx_hook(tr, parent, args, result, dt):
    tr.local.fresh_ctx = True


def _pairs_scan_hook(tr, parent, args, result, dt):
    tr.counts["kernels.pairs_scan.masks"] += len(args[3])


def _candidates_hook(tr, parent, args, result, dt):
    candidates, exhausted = result
    tr.counts["grids.candidates.count"] += len(candidates)
    tr.counts["grids.candidates.budget_hits"] += not exhausted


def _descents_hook(tr, parent, args, result, dt):
    tr.counts["grids.descents.found"] += len(result)


# (module, function, span name, self bucket, hook).  A bucket of None keeps
# the span's own time out of every layer's self time.
TARGETS = (
    ("redld._kernels", "bnb", "kernels.bnb", "kernels", _bnb_hook),
    ("redld._kernels", "make_ctx", "kernels.make_ctx", "kernels", _make_ctx_hook),
    ("redld._kernels", "pairs_scan", "kernels.pairs_scan", "kernels", _pairs_scan_hook),
    ("redld._kernels", "brute_force_min", "kernels.brute_force_min", "kernels", None),
    ("redld._kernels", "is_ld", "kernels.predicate", "kernels", None),
    ("redld._kernels", "is_redld", "kernels.predicate", "kernels", None),
    ("redld._kernels", "is_redld_def", "kernels.predicate", "kernels", None),
    ("redld._kernels", "pairs_ok", "kernels.predicate", "kernels", None),
    ("redld.solver", "min_ld", "solver.solve", "solver", None),
    ("redld.solver", "min_redld", "solver.solve", "solver", None),
    ("redld.solver", "brute_force_min_ld", "solver.brute_force", "solver", None),
    ("redld.solver", "brute_force_min_redld", "solver.brute_force", "solver", None),
    ("redld.satreduce", "parse_dimacs_cnf", "satreduce.parse", "satreduce", None),
    ("redld.satreduce", "decide_via_redld", "satreduce.decide", "satreduce", None),
    ("redld.satreduce", "build_reduction", "satreduce.build_reduction", None, None),
    ("redld.grids", "pattern_search", "grids.pattern_search", "grids", None),
    ("redld.grids", "_dominating_candidates", "grids.candidates", "grids", _candidates_hook),
    ("redld.grids", "_random_descents", "grids.descents", "grids", _descents_hook),
    ("redld.grids", "build_torus", "grids.build_torus", None, None),
    ("redld.grids", "_scan", "grids.scan", None, None),
    ("redld.verify", "is_ld_set", "verify", "verify", None),
    ("redld.verify", "is_redld_set", "verify", "verify", None),
    ("redld.verify", "is_redld_by_definition", "verify", "verify", None),
    ("redld.trees", "classify_tmin", "trees.classify", "trees", None),
    ("redld.trees", "is_tmax", "trees.classify", "trees", None),
    ("redld.trees", "enumerate_tmin", "trees.enumerate", "trees", None),
    ("redld.trees", "enumerate_tmax", "trees.enumerate", "trees", None),
    ("redld.graph", "parse_edge_list", "graph.parse_edge_list", "graph", None),
    ("redld.cli", "main", "cli", "cli", None),
)


class Tracer:
    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.wrapped: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, bucket, hook):
        tr = self

        def wrapper(*args, **kwargs):
            stack = getattr(tr.local, "stack", None)
            if stack is None:
                stack = tr.local.stack = []
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                with tr.lock:
                    if parent != name:
                        tr.calls[name] += 1
                        tr.busy[name] += dt
                    if bucket:
                        tr.self_time[bucket] += dt - frame[1]
            if hook:
                with tr.lock:
                    hook(tr, parent, args, result, dt)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if (key == "redld" or key.startswith("redld."))
                   and key not in _BACKEND_MODULES and m is not None]
        for mod_name, attr, name, bucket, hook in TARGETS:
            original = getattr(sys.modules[mod_name], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, bucket, hook)
            self.wrapped.add(name)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of everything recorded so far.  The candidate and
        descent figures are left out when redld has no such helpers."""
        c, b, s, n = self.calls, self.busy, self.self_time, self.counts

        def rate(num, den):
            return num / den if den else 0.0

        out = {
            "kernels.bnb.calls": c["kernels.bnb"],
            "kernels.bnb.nodes": n["kernels.bnb.nodes"],
            "kernels.bnb.busy_s": b["kernels.bnb"],
            "kernels.bnb.nodes_per_s": rate(n["kernels.bnb.nodes"], b["kernels.bnb"]),
            "kernels.bnb.budget_stops": n["kernels.bnb.budget_stops"],
            "kernels.make_ctx.busy_s": b["kernels.make_ctx"],
            "kernels.pairs_scan.calls": c["kernels.pairs_scan"],
            "kernels.pairs_scan.masks": n["kernels.pairs_scan.masks"],
            "kernels.pairs_scan.busy_s": b["kernels.pairs_scan"],
            "kernels.pairs_scan.masks_per_s":
                rate(n["kernels.pairs_scan.masks"], b["kernels.pairs_scan"]),
            "kernels.brute_force_min.calls": c["kernels.brute_force_min"],
            "kernels.brute_force_min.busy_s": b["kernels.brute_force_min"],
            "kernels.predicate.calls": c["kernels.predicate"],
            "kernels.predicate.busy_s": b["kernels.predicate"],
            "solver.optimum.nodes": n["solver.optimum.nodes"],
            "solver.optimum.busy_s": b["solver.optimum"],
            "solver.witness.nodes": n["solver.witness.nodes"],
            "solver.witness.busy_s": b["solver.witness"],
            "solver.witness_share": rate(
                n["solver.witness.nodes"],
                n["solver.optimum.nodes"] + n["solver.witness.nodes"]),
            "solver.root_gap": n["solver.root_gap"],
            "solver.self_s": s["solver"],
            "satreduce.build_reduction.busy_s": b["satreduce.build_reduction"],
            "satreduce.self_s": s["satreduce"],
            "grids.self_s": s["grids"],
            "grids.candidates.busy_s": b["grids.candidates"],
            "grids.candidates.count": n["grids.candidates.count"],
            "grids.candidates.budget_hits": n["grids.candidates.budget_hits"],
            "grids.descents.busy_s": b["grids.descents"],
            "grids.descents.found": n["grids.descents.found"],
            "grids.build_torus.busy_s": b["grids.build_torus"],
            "verify.calls": c["verify"],
            "verify.busy_s": b["verify"],
            "verify.checks_per_s": rate(c["verify"], b["verify"]),
            "trees.classify.calls": c["trees.classify"],
            "trees.classify.busy_s": b["trees.classify"],
            "trees.enumerate.busy_s": b["trees.enumerate"],
            "graph.parse_edge_list.busy_s": b["graph.parse_edge_list"],
            "cli.self_s": s["cli"],
        }
        for helper in ("grids.candidates", "grids.descents"):
            if helper not in self.wrapped:
                for key in [k for k in out if k.startswith(helper + ".")]:
                    del out[key]
        return out
