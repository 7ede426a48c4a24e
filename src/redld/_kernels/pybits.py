"""Pure-Python kernel backend: bitmask predicates, brute force, branch and bound.

Vertex sets are Python ints used as bitmasks. The compiled backend implements
the same algorithms with the same deterministic decision order, so search node
counts are identical across backends.

Modes: 0 = LD, 1 = RED:LD via the three-condition characterization,
2 = RED:LD via the removal definition (brute force only).
"""

from __future__ import annotations

import time
from itertools import combinations

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


def is_redld(ctx: Ctx, s: int) -> bool:
    open_, closed = ctx.open_, ctx.closed
    for v in range(ctx.n):
        if (closed[v] & s).bit_count() < 2:
            return False
    non = _bit_list(ctx.full & ~s)
    traces = [open_[u] & s for u in non]
    for i in range(len(non)):
        ti = traces[i]
        for j in range(i + 1, len(non)):
            if (ti ^ traces[j]).bit_count() < 2:
                return False
    m = s
    while m:
        b = m & -m
        v = b.bit_length() - 1
        tv = open_[v] & s
        keep = ~b
        for j in range(len(non)):
            if (tv ^ traces[j]) & keep == 0:
                return False
        m ^= b
    return True


def is_redld_def(ctx: Ctx, s: int) -> bool:
    if not is_ld(ctx, s):
        return False
    m = s
    while m:
        b = m & -m
        if not is_ld(ctx, s ^ b):
            return False
        m ^= b
    return True


def brute_force_min(ctx: Ctx, mode: int) -> tuple[int, int]:
    """Minimum valid set by cardinality then lexicographic order.

    Returns (size, mask), or (-1, 0) when no subset is valid.
    """
    if mode not in (MODE_LD, MODE_REDLD, MODE_REDLD_DEF):
        raise ValueError(f"unknown mode {mode!r}")
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
    open_, closed = ctx.open_, ctx.closed
    for v in range(ctx.n):
        if (closed[v] & s).bit_count() < 2:
            return False
    for u, v in zip(us, vs):
        du = s >> u & 1
        dv = s >> v & 1
        if du and dv:
            continue
        d = (open_[u] ^ open_[v]) & s
        if du or dv:
            if d & ~(1 << (u if du else v)) == 0:
                return False
        elif d.bit_count() < 2:
            return False
    return True


def pairs_scan(ctx: Ctx, us: list[int], vs: list[int], candidates) -> int:
    """Index of the first candidate mask passing pairs_ok, or -1."""
    _check_pairs(us, vs)
    for i, mask in enumerate(candidates):
        if pairs_ok(ctx, mask, us, vs):
            return i
    return -1


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
    n = ctx.n
    full = ctx.full
    open_ = ctx.open_
    closed = ctx.closed
    deg = ctx.deg
    if forced_in & forced_out:
        return 1, -1, 0, 0
    cover = ctx.maxdeg + 1 if mode == MODE_REDLD else max(ctx.maxdeg, 1)
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
        if deadline and nodes % 1024 == 0 and time.monotonic() > deadline:
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
        if mode == MODE_REDLD:
            for i, u in enumerate(outs):
                ou = open_[u]
                for j in range(i + 1, len(outs)):
                    if ((ou ^ open_[outs[j]]) & pool).bit_count() < 2:
                        return
            m = in_m
            while m:
                b = m & -m
                ov = open_[b.bit_length() - 1]
                keep = ~b
                for u in outs:
                    if (ov ^ open_[u]) & pool & keep == 0:
                        return
                m ^= b
        else:
            for i, u in enumerate(outs):
                ou = open_[u]
                for j in range(i + 1, len(outs)):
                    if (ou ^ open_[outs[j]]) & pool == 0:
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

    dfs(forced_in, forced_out)
    if stop == 2:
        return 2, (best if best <= cap else -1), best_mask, nodes
    if best <= cap:
        return 0, best, best_mask, nodes
    return 1, -1, 0, nodes
