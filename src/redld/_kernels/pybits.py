"""Pure-Python kernel backend: bitmask predicates, brute force, branch and
bound, and the grid candidate walk.

Vertex sets are Python ints used as bitmasks. The compiled backend implements
the same algorithms with the same deterministic decision order, so search node
counts are identical across backends.

Modes: 0 = LD, 1 = RED:LD via the three-condition characterization,
2 = RED:LD via the removal definition (brute force only).
"""

from __future__ import annotations

import time
from itertools import combinations, product

BACKEND = "py"

MODE_LD = 0
MODE_REDLD = 1
MODE_REDLD_DEF = 2


class Ctx:
    __slots__ = ("n", "open_", "closed", "deg", "full", "maxdeg")

    def __init__(self, adj):
        n = len(adj)
        self.n = n
        self.open_ = [sum(1 << w for w in nbrs) for nbrs in adj]
        self.closed = [self.open_[v] | (1 << v) for v in range(n)]
        self.deg = [len(nbrs) for nbrs in adj]
        self.full = (1 << n) - 1
        self.maxdeg = max(self.deg)


def make_ctx(adj) -> Ctx:
    return Ctx(adj)


def _bit_list(m: int) -> list[int]:
    out = []
    while m:
        b = m & -m
        out.append(b.bit_length() - 1)
        m ^= b
    return out


def is_ld(ctx: Ctx, s: int) -> bool:
    _check_mask(ctx.n, s)
    open_ = ctx.open_
    seen = set()
    m = ctx.full & ~s
    while m:
        b = m & -m
        t = open_[b.bit_length() - 1] & s
        if t == 0 or t in seen:
            return False
        seen.add(t)
        m ^= b
    return True


def _two_dominated(ctx: Ctx, s: int) -> bool:
    return all((c & s).bit_count() >= 2 for c in ctx.closed)


def _pairs_fail(ctx: Ctx, pool: int, need: int, out_pairs, in_pairs) -> bool:
    """Whether some pair fails on pool; every pair given is tested.

    A pair (u, v) of out vertices, condition (ii), needs `need` vertices of
    (N(u) ^ N(v)) & pool: 1 for LD, 2 for RED:LD.  A pair (u, v) with u out
    and v in, condition (iii), needs one such vertex other than v.
    """
    open_ = ctx.open_
    for u, v in out_pairs:
        if ((open_[u] ^ open_[v]) & pool).bit_count() < need:
            return True
    for u, v in in_pairs:
        if (open_[u] ^ open_[v]) & pool & ~(1 << v) == 0:
            return True
    return False


def is_redld(ctx: Ctx, s: int) -> bool:
    _check_mask(ctx.n, s)
    outs = _bit_list(ctx.full & ~s)
    return _two_dominated(ctx, s) and not _pairs_fail(
        ctx, s, 2, combinations(outs, 2), product(outs, _bit_list(s)))


def is_redld_def(ctx: Ctx, s: int) -> bool:
    _check_mask(ctx.n, s)
    if not is_ld(ctx, s):
        return False
    m = s
    while m:
        b = m & -m
        if not is_ld(ctx, s ^ b):
            return False
        m ^= b
    return True


def _check_mode(mode: int, modes: tuple[int, ...]) -> None:
    if mode not in modes:
        raise ValueError(f"unknown mode {mode!r}")


def _check_forced(n: int, forced_in: int, forced_out: int) -> None:
    """The check of bnb's forced sets that both backends share."""
    if forced_in < 0 or forced_out < 0 or (forced_in | forced_out) >> n:
        raise IndexError("forced set names a vertex out of range")


def _check_mask(n: int, s: int) -> None:
    """The check of a predicate's mask that both backends share: one test
    catches both a negative mask and a bit at vertex n or above."""
    if s >> n:
        raise IndexError("mask names a vertex out of range")


def brute_force_min(ctx: Ctx, mode: int) -> tuple[int, int]:
    """Minimum valid set by cardinality then lexicographic order.

    Returns (size, mask), or (-1, 0) when no subset is valid.
    """
    _check_mode(mode, (MODE_LD, MODE_REDLD, MODE_REDLD_DEF))
    pred = (is_ld, is_redld, is_redld_def)[mode]
    n = ctx.n
    for k in range(n + 1):
        for comb in combinations(range(n), k):
            mask = 0
            for v in comb:
                mask |= 1 << v
            if pred(ctx, mask):
                return k, mask
    return -1, 0


def _check_pairs(us, vs) -> None:
    if len(us) != len(vs):
        raise ValueError("us and vs differ in length")


def pairs_ok(ctx: Ctx, s: int, us: list[int], vs: list[int]) -> bool:
    """2-domination of every vertex plus the pair conditions on (us[i], vs[i])."""
    _check_pairs(us, vs)
    _check_mask(ctx.n, s)
    out_pairs, in_pairs = [], []
    for u, v in zip(us, vs):
        if s >> u & 1:
            u, v = v, u  # the out vertex first
        if not s >> u & 1:  # two detectors have no condition
            (in_pairs if s >> v & 1 else out_pairs).append((u, v))
    return _two_dominated(ctx, s) and not _pairs_fail(ctx, s, 2, out_pairs, in_pairs)


def pairs_scan(ctx: Ctx, us: list[int], vs: list[int], candidates) -> int:
    """Index of the first candidate mask passing pairs_ok, or -1.

    Every candidate is range-checked before the scan starts, as the
    compiled backend packs them all before it scans.
    """
    _check_pairs(us, vs)
    candidates = list(candidates)
    for mask in candidates:
        _check_mask(ctx.n, mask)
    for i, mask in enumerate(candidates):
        if pairs_ok(ctx, mask, us, vs):
            return i
    return -1


def _check_walk(n_cells: int, touch, count: int) -> None:
    """The argument checks of dom_candidates that both backends share."""
    if n_cells < 1 or len(touch) != n_cells:
        raise ValueError("touch needs one list per cell and at least one cell")
    if count < 0:
        raise ValueError("count must be non-negative")


def dom_candidates(n_cells: int, touch, count: int,
                   node_budget: int) -> tuple[list[int], bool]:
    """Masks of the exactly-count subsets of cells 0 .. n_cells - 1, cell 0
    among them, that leave every constraint able to reach 2.

    Cell c adds m to constraint v for each (v, m) in touch[c]; a constraint
    fails once its chosen plus undecided total drops below 2.  The walk is
    depth first and decides cell i at depth i, IN before OUT (cell 0 only
    IN).  Returns (masks, True) when it exhausted the cells, or (the masks
    found so far, False) once it has spent node_budget nodes.  Raises
    IndexError for a negative constraint index.
    """
    _check_walk(n_cells, touch, count)
    ids = [v for items in touch for v, _m in items]
    if min(ids, default=0) < 0:
        raise IndexError("vertex out of range")
    n = n_cells
    cnt = [0] * (max(ids, default=-1) + 1)
    open_ = list(cnt)
    for items in touch:
        for v, m in items:
            open_[v] += m
    out: list[int] = []
    nodes = 0
    exhausted = True

    def dfs(i: int, picked: int, mask: int) -> None:
        nonlocal nodes, exhausted
        if not exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = False
            return
        if picked > count or picked + (n - i) < count:
            return
        if i == n:
            out.append(mask)
            return
        for val in ((1,) if i == 0 else (1, 0)):
            ok = True
            for v, m in touch[i]:
                open_[v] -= m
                if val:
                    cnt[v] += m
                if cnt[v] + open_[v] < 2:
                    ok = False
            if ok:
                dfs(i + 1, picked + val, mask | val << i)
            for v, m in touch[i]:
                open_[v] += m
                if val:
                    cnt[v] -= m

    try:
        dfs(0, 0, 0)
    finally:
        del dfs  # it closes over itself: break that cycle, so its cells go now
    return out, exhausted


def bnb(ctx: Ctx, mode: int, forced_in: int, forced_out: int, cap: int,
        stop_at: int, node_budget: int, deadline: float) -> tuple[int, int, int, int]:
    """Depth-first branch and bound over sets S with forced_in <= S <= ~forced_out.

    Returns (status, value, witness_mask, nodes).
      status 0: search completed; value is the exact minimum size <= cap
                (when value <= stop_at the search stopped at the first such
                set, which is exact only if stop_at is a valid lower bound).
      status 1: no valid set of size <= cap exists under the constraints.
      status 2: node or time budget exhausted; value is the best size found
                so far (-1 if none) and is only an upper bound.

    Branch vertex: highest degree among undecided, ties to the smallest index;
    the IN branch is explored first.
    """
    _check_mode(mode, (MODE_LD, MODE_REDLD))
    _check_forced(ctx.n, forced_in, forced_out)
    n = ctx.n
    full = ctx.full
    open_ = ctx.open_
    closed = ctx.closed
    deg = ctx.deg
    if forced_in & forced_out:
        return 1, -1, 0, 0
    cover = ctx.maxdeg + 1 if mode == MODE_REDLD else max(ctx.maxdeg, 1)
    need = 2 if mode == MODE_REDLD else 1
    valid = is_redld if mode == MODE_REDLD else is_ld
    best = cap + 1
    best_mask = 0
    nodes = 0
    stop = 0  # 1 = early stop (best <= stop_at), 2 = budget exhausted

    def dfs(in_m: int, out_m: int) -> None:
        nonlocal best, best_mask, nodes, stop
        nodes += 1
        if node_budget and nodes > node_budget:
            stop = 2
            return
        if deadline and time.monotonic() >= deadline:
            stop = 2
            return
        pool = full & ~out_m
        # domination feasibility and unit propagation
        if mode == MODE_REDLD:
            for v in range(n):
                c = closed[v] & pool
                pc = c.bit_count()
                if pc < 2:
                    return
                if pc == 2:
                    in_m |= c
        else:
            m = out_m
            while m:
                b = m & -m
                c = open_[b.bit_length() - 1] & pool
                if c == 0:
                    return
                if c.bit_count() == 1:
                    in_m |= c
                m ^= b
        in_ct = in_m.bit_count()
        if in_ct > cap or in_ct >= best:
            return
        # pair feasibility: prune once no undecided vertex can fix a pair
        outs = _bit_list(out_m)
        ins = _bit_list(in_m) if mode == MODE_REDLD else []
        if _pairs_fail(ctx, pool, need, combinations(outs, 2), product(outs, ins)):
            return
        # admissible bound: each detector covers at most maxdeg+1 units of deficit
        if mode == MODE_REDLD:
            deficit = 0
            for v in range(n):
                have = (closed[v] & in_m).bit_count()
                if have < 2:
                    deficit += 2 - have
        else:
            deficit = 0
            for u in outs:
                if open_[u] & in_m == 0:
                    deficit += 1
        if in_ct + (deficit + cover - 1) // cover >= min(best, cap + 1):
            return
        if deficit == 0 and valid(ctx, in_m):
            best = in_ct
            best_mask = in_m
            if best <= stop_at:
                stop = 1
            return  # any superset is larger
        und = pool & ~in_m
        if und == 0:
            return
        b = -1
        bd = -1
        m = und
        while m:
            lo = m & -m
            v = lo.bit_length() - 1
            if deg[v] > bd:
                bd = deg[v]
                b = v
            m ^= lo
        dfs(in_m | (1 << b), out_m)
        if stop:
            return
        dfs(in_m, out_m | (1 << b))

    try:
        dfs(forced_in, forced_out)
    finally:
        del dfs  # as in dom_candidates
    if stop == 2:
        return 2, (best if best <= cap else -1), best_mask, nodes
    if best <= cap:
        return 0, best, best_mask, nodes
    return 1, -1, 0, nodes
