"""Cross-backend agreement: the compiled kernel against the pure-Python one.

Both backends transcribe the same algorithms, so exact results, witnesses
and branch-and-bound node counts must be equal.  When the compiled kernel
does not import, the check is recorded as skipped.  Each row is timed on
both backends; the pair-scan masks are built before its timed call.
"""

from __future__ import annotations

import random
import time

from redld._kernels import MODE_REDLD, pybits
from redld.graph import Graph, build_hypercube
from redld.grids import (LatticeKind, PeriodicPattern, _near_pairs, _tile_counts, _tiled_mask,
                         build_torus)


def _random_graph(n: int, p: float, seed: int) -> Graph:
    # the generator of benchmarks/compare_backends.py, so the rows keep its inputs
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for v in range(n):
        if deg[v] == 0:
            edges.append((v, (v + 1) % n))
    return Graph(n, edges)


def _adj(g: Graph) -> list[list[int]]:
    return [list(nbrs) for nbrs in g.adj]


def _scan_inputs():
    pat = PeriodicPattern(LatticeKind.SQ, 4, 4, frozenset([(0, 0)]))
    g, _ = build_torus(pat, *_tile_counts(pat, 8))
    us, vs = _near_pairs(g)
    rng = random.Random(1)
    cells = [(x, y) for y in range(4) for x in range(4)]
    masks = [_tiled_mask(LatticeKind.SQ, 4, 4, frozenset(rng.sample(cells, 7)) | {(0, 0)})
             for _ in range(4000)]
    return _adj(g), us, vs, masks


def _rows():
    """(label, adjacency, call on a backend and its context)."""
    brute = _adj(_random_graph(18, 0.25, seed=7))
    bnb = _adj(_random_graph(26, 0.18, seed=3))
    q5 = _adj(build_hypercube(5))
    scan_adj, us, vs, masks = _scan_inputs()
    return [
        ("brute force, random n=18", brute, lambda k, ctx: k.brute_force_min(ctx, MODE_REDLD)),
        ("branch and bound, random n=26", bnb,
         lambda k, ctx: k.bnb(ctx, MODE_REDLD, 0, 0, len(bnb), 0, 0, 0.0)),
        ("branch and bound, hypercube n=32", q5,
         lambda k, ctx: k.bnb(ctx, MODE_REDLD, 0, 0, len(q5), 0, 0, 0.0)),
        ("pair scan, 4000 torus masks", scan_adj, lambda k, ctx: k.pairs_scan(ctx, us, vs, masks)),
    ]


def check() -> dict:
    try:
        from redld._kernels import _ckern
    except ImportError:
        return {"status": "skipped: compiled backend not built", "rows": []}
    rows, agree = [], True
    for label, adj, call in _rows():
        outs, secs = [], []
        for kern in (pybits, _ckern):
            ctx = kern.make_ctx(adj)
            t0 = time.perf_counter()
            outs.append(call(kern, ctx))
            secs.append(time.perf_counter() - t0)
        same = outs[0] == outs[1]
        agree &= same
        rows.append({"label": label, "py_s": secs[0], "c_s": secs[1], "agree": same,
                     "py": repr(outs[0]), "c": repr(outs[1])})
    return {"status": "ok" if agree else "mismatch", "rows": rows}
