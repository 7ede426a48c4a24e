"""Pure-Python kernel backend: bitmask predicates and the verification
reports built on them, brute force, branch and bound, the grid candidate
walk, and tree codes and orbits.

Vertex sets are Python ints used as bitmasks. The compiled backend implements
the same algorithms with the same deterministic decision order, so search node
counts are identical across backends.

Modes: 0 = LD, 1 = RED:LD via the three-condition characterization,
2 = RED:LD via the removal definition (not taken by branch and bound).
"""

from __future__ import annotations

import operator
import time
from itertools import combinations, product

BACKEND = "py"

MODE_LD = 0
MODE_REDLD = 1
MODE_REDLD_DEF = 2

# INT_MAX - 63: the most vertices the compiled kernel's contexts and masks hold
_MAX_N = 2**31 - 64


class Ctx:
    __slots__ = ("n", "open_", "closed", "deg", "full", "maxdeg")

    def __init__(self, adj):
        # adj and each row are read once, as the compiled kernel reads them
        # into tuples, so iterators work; a repeated neighbour is one bit
        rows = tuple(adj)
        n = len(rows)
        if n < 1:
            raise ValueError("the kernel needs at least one vertex")
        self.n = n
        self.open_ = [_row_mask(n, row) for row in rows]
        self.closed = [m | 1 << v for v, m in enumerate(self.open_)]
        self.deg = [m.bit_count() for m in self.open_]
        self.full = (1 << n) - 1
        self.maxdeg = max(self.deg)


def _row_mask(n: int, row) -> int:
    """The mask of a row of neighbours: each entry converted with
    operator.index (TypeError), then range-checked (IndexError), in row
    order, as the compiled kernel's vertex_arg does."""
    m = 0
    for w in tuple(row):
        w = operator.index(w)
        if not 0 <= w < n:
            raise IndexError("vertex out of range")
        m |= 1 << w
    return m


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


class Report:
    """A verification's mode name, verdict, and the graph and mask that were
    checked, all read-only, and a writable cache `_violations`, None when
    made.  `Report(mode, ok, g, mask)` stores `bool(ok)`; `report` makes one
    without calling the class.  The compiled kernel's Report is its twin."""

    __slots__ = ("_fields", "_violations")

    def __new__(cls, mode, ok, g, mask):
        self = object.__new__(cls)
        self._fields = (mode, bool(ok), g, mask)
        self._violations = None
        return self

    mode = property(lambda self: self._fields[0], doc="the mode's name")
    ok = property(lambda self: self._fields[1], doc="the verdict")
    _g = property(lambda self: self._fields[2], doc="the graph checked")
    _mask = property(lambda self: self._fields[3], doc="the mask checked")

    def __reduce__(self):
        # copy and pickle make it again from its fields; the cache is not carried
        return type(self), self._fields


_MODE_NAMES = ("ld", "redld", "redld-def")
_PREDICATES = (is_ld, is_redld, is_redld_def)


def report(cls, ctx: Ctx, mode: int, g, mask: int) -> Report:
    """The report of `mask` on the graph `g`, whose context is `ctx`, in
    `mode`: an instance of `cls`, Report or a subclass of it, named "ld",
    "redld" or "redld-def" by the mode.  The checks, in order: `cls`
    (TypeError), `ctx` (TypeError), the mode (ValueError), then the mask as
    the predicates check it."""
    if not (isinstance(cls, type) and issubclass(cls, Report)):
        raise TypeError(f"cls must be a subclass of Report, not {cls!r}")
    if not isinstance(ctx, Ctx):
        raise TypeError(f"expected a context made by this kernel's make_ctx, not "
                        f"{type(ctx).__name__}")
    _check_mode(mode, (MODE_LD, MODE_REDLD, MODE_REDLD_DEF))
    # Report.__new__ itself, so that neither a subclass's __new__ nor its
    # __init__ runs, as in C
    return Report.__new__(cls, _MODE_NAMES[mode], _PREDICATES[mode](ctx, mask), g, mask)


def _check_mode(mode: int, modes: tuple[int, ...]) -> None:
    if not isinstance(mode, int) or mode not in modes:
        raise ValueError(f"unknown mode {mode!r}")


def _check_vertices(n: int, vertices) -> None:
    """The check of vertex arguments that both backends share."""
    if any(not 0 <= v < n for v in vertices):
        raise IndexError("vertex out of range")


def mask_of(n: int, vertices) -> int:
    """The mask of `vertices`, read once, so an iterator works.

    Each item is converted with operator.index (TypeError for a float, str
    or None); the first item in iteration order outside 0 .. n - 1 raises
    ValueError, before any shift, so a huge one allocates nothing.
    Duplicates are OR'd together.  n is an int in 0 .. _MAX_N, else
    TypeError or OverflowError, as make_ctx takes no more vertices in C.
    """
    n = operator.index(n)
    if not 0 <= n <= _MAX_N:
        raise OverflowError(f"{n} is out of the kernel's range")
    m = 0
    for v in vertices:
        v = operator.index(v)
        if not 0 <= v < n:
            raise ValueError(f"detector {v} out of range for n={n}")
        m |= 1 << v
    return m


def _check_mask(n: int, s: int) -> None:
    """The check of a mask argument that both backends share: one test
    catches both a negative mask and a bit at vertex n or above."""
    if not isinstance(s, int):
        raise TypeError("a mask must be an int")
    if s >> n:
        raise IndexError("mask names a vertex out of range")


def _int_arg(x, lo: int, hi: int) -> int:
    """x as the compiled kernel reads an int argument into a C long, then
    range-checks it: TypeError for a non-int, OverflowError past a 64-bit
    long or outside lo .. hi."""
    x = operator.index(x)
    if not -2**63 <= x < 2**63:
        raise OverflowError("Python int too large to convert to C long")
    if not lo <= x <= hi:
        raise OverflowError(f"{x} is out of the kernel's range")
    return x


def _check_node_budget(node_budget) -> None:
    """An int (else TypeError) in C's signed 64-bit range (else OverflowError)."""
    if not -2**63 <= operator.index(node_budget) < 2**63:
        raise OverflowError("node_budget does not fit in a signed 64-bit int")


def brute_force_min(ctx: Ctx, mode: int) -> tuple[int, int]:
    """Minimum valid set by cardinality then lexicographic order.

    Returns (size, mask), or (-1, 0) when no subset is valid.  The subsets
    are those of itertools.combinations, in its order, which the compiled
    kernel steps through in one 64-bit word: both take at most 64 vertices
    (ValueError), checked after the mode.
    """
    _check_mode(mode, (MODE_LD, MODE_REDLD, MODE_REDLD_DEF))
    if ctx.n > 64:
        raise ValueError("brute force takes at most 64 vertices")
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


def pairs_scan(ctx: Ctx, us: list[int], vs: list[int], candidates) -> int:
    """Index of the first candidate mask that 2-dominates every vertex and
    passes the pair conditions on every (us[i], vs[i]), or -1.

    Every candidate and then every pair vertex is range-checked before
    the scan starts, as the compiled backend packs them all before it scans.
    """
    if len(us) != len(vs):
        raise ValueError("us and vs differ in length")
    candidates = list(candidates)
    for s in candidates:
        _check_mask(ctx.n, s)
    _check_vertices(ctx.n, [*us, *vs])
    for i, s in enumerate(candidates):
        out_pairs, in_pairs = [], []
        for u, v in zip(us, vs):
            if s >> u & 1:
                u, v = v, u  # the out vertex first
            if not s >> u & 1:  # two detectors have no condition
                (in_pairs if s >> v & 1 else out_pairs).append((u, v))
        if _two_dominated(ctx, s) and not _pairs_fail(ctx, s, 2, out_pairs, in_pairs):
            return i
    return -1


# The neighbour steps of each lattice's cells with x + y even and with x + y
# odd, by LatticeKind name; HEX is the brick wall, whose vertical edge at
# (x, y) points up when x + y is even.  _ckern.c holds a copy.
_SQ = ((1, 0), (-1, 0), (0, 1), (0, -1))
LATTICES = {
    "HEX": (((1, 0), (-1, 0), (0, 1)), ((1, 0), (-1, 0), (0, -1))),
    "TRI": ((*_SQ, (1, 1), (-1, -1)),) * 2,
    "SQ": (_SQ, _SQ),
    "KING": ((*_SQ, (1, 1), (1, -1), (-1, 1), (-1, -1)),) * 2,
}

# The most cells of a domain.  Both walks recurse once per cell; this one
# stops at Python's recursion limit, at about a thousand cells, so 2**9 cells
# are within reach of both, on the main thread and on a pool thread.
_MAX_CELLS = 2**9


def _lattice_arg(kind) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The two step lists of the lattice named kind: TypeError for a kind
    that is not a str, ValueError for a name that is not in LATTICES."""
    if not isinstance(kind, str):
        raise TypeError("kind must be a str")
    try:
        return LATTICES[kind]
    except KeyError:
        raise ValueError(f"unknown lattice kind {kind!r}") from None


def _domain_arg(w, h) -> tuple[int, int]:
    """w and h as the compiled kernel reads them: ints (TypeError) up to
    2**31 - 1 (OverflowError), at least 1 (ValueError), with w * h at most
    _MAX_CELLS (OverflowError)."""
    w, h = _int_arg(w, -2**63, 2**31 - 1), _int_arg(h, -2**63, 2**31 - 1)
    if w < 1 or h < 1:
        raise ValueError("the domain needs w >= 1 and h >= 1")
    if w * h > _MAX_CELLS:
        raise OverflowError(f"a {w}x{h} domain is out of the kernel's range")
    return w, h


def _block(steps, w: int, h: int) -> tuple[int, int]:
    """The extents of a block of the w x h domain's translates on which every
    neighbourhood shape repeats: an odd extent doubles when the steps of the
    two parities of x + y differ (HEX), since a shift by it flips the parity."""
    same = steps[0] == steps[1]
    return (w if same or w % 2 == 0 else 2 * w), (h if same or h % 2 == 0 else 2 * h)


def _fold_domination(steps, w: int, h: int) -> tuple[int, list[list[tuple[int, int]]]]:
    """The closed-neighbourhood constraints of the infinite grid folded onto
    the w x h domain, one per vertex of the block, vertex (x, y) numbered
    y * block width + x: their number and, per cell, its (constraint,
    multiplicity) pairs."""
    bw, bh = _block(steps, w, h)
    touch: list[list[tuple[int, int]]] = [[] for _ in range(w * h)]
    for y in range(bh):
        for x in range(bw):
            mult: dict[int, int] = {}
            for dx, dy in ((0, 0), *steps[(x + y) & 1]):
                c = (y + dy) % h * w + (x + dx) % w
                mult[c] = mult.get(c, 0) + 1
            for c, m in mult.items():
                touch[c].append((y * bw + x, m))
    return bw * bh, touch


def _fold_pairs(steps, w: int, h: int) -> list[tuple[int, int, bool, tuple[tuple[int, int], ...]]]:
    """Conditions (ii) and (iii) of the infinite grid folded onto the w x h
    domain: for each vertex u of the block and each v within distance 2 of
    it, (the cell of u, the cell of v, whether u and v are adjacent, the
    cells of N(u) ^ N(v) with their multiplicities).  Each pair is taken at
    the end with the smaller (y, x); its translates have the same condition.
    Pairs farther apart cannot fail once every vertex is 2-dominated (the
    argument is in grids.py)."""
    bw, bh = _block(steps, w, h)
    out = []
    for y in range(bh):
        for x in range(bw):
            nu = steps[(x + y) & 1]
            near = dict.fromkeys(nu, True)  # offsets from u, and adjacency
            for ax, ay in nu:
                for bx, by in steps[(x + y + ax + ay) & 1]:
                    near.setdefault((ax + bx, ay + by), False)
            for (ox, oy), adj in near.items():
                if (oy, ox) <= (0, 0):
                    continue
                nv = [(ox + dx, oy + dy) for dx, dy in steps[(x + y + ox + oy) & 1]]
                mult: dict[int, int] = {}
                for dx, dy in [a for a in nu if a not in nv] + [b for b in nv if b not in nu]:
                    c = (y + dy) % h * w + (x + dx) % w
                    mult[c] = mult.get(c, 0) + 1
                out.append((y % h * w + x % w, (y + oy) % h * w + (x + ox) % w, adj,
                            tuple(mult.items())))
    return out


def _pairs_hold(pairs, mask: int) -> bool:
    """Whether the domain mask passes every folded pair condition.  Counted
    with multiplicities, the detectors of N(u) ^ N(v) must reach 2 when u and
    v are both out, or when one is in and they are adjacent (the one in is
    in the difference, and (iii) does not count it); 1 when one is in and
    they are not adjacent.  Two detectors face no condition."""
    for cu, cv, adj, diff in pairs:
        iu, iv = mask >> cu & 1, mask >> cv & 1
        if iu and iv:
            continue
        need = 1 if iu != iv and not adj else 2
        if sum(m for c, m in diff if mask >> c & 1) < need:
            return False
    return True


def dom_candidates(kind: str, w: int, h: int, count: int,
                   node_budget: int) -> tuple[list[int], bool]:
    """Masks of the exactly-count subsets of the w x h domain, bit y*w + x
    for cell (x, y), cell 0 among them, whose translation closure is a
    RED:LD set of the lattice named kind, in which cell (x, y) has the
    neighbour steps LATTICES[kind][(x + y) % 2]: the valid periodic patterns
    of the domain.

    The walk folds the closed-neighbourhood constraints onto the domain
    (_fold_domination): cell c adds m to constraint v for each (v, m) of its
    list, and a constraint fails once its chosen plus undecided total drops
    below 2.  The walk is depth first and decides cell i at depth i, IN
    before OUT (cell 0 only IN).  Each entry is a node; after the budget and
    cardinality checks, a node is pruned when the cells still to pick cannot
    cover the deficit: (count - picked) * cov[i] < deficit, where deficit
    sums max(0, 2 - cnt) over the constraints and cov[i] is the largest
    cover, the sum of min(m, 2) over a cell's entries, of any cell i or
    later.  A picked cell lowers the deficit by at most its cover and every
    leaf has deficit 0, so the prune cuts only subtrees without a leaf.

    A leaf 2-dominates every vertex.  It is a mask of the result when it
    passes the pair conditions (ii) and (iii) as well, which are folded at
    the first leaf (_fold_pairs).  They are checked at the leaves only: most
    domains reach no leaf, the node count and so the budget's cut stay those
    of the domination walk, and a prototype that checked each condition at
    its last decided cell walked fewer nodes but ran slower on the searched
    domains.

    Returns (masks, True) when the walk exhausted the cells, or (the masks
    found so far, False) once it has spent node_budget nodes.  The
    arguments are checked in this order: the budget, count (an int in 0 ..
    2**31 - 1), w and h (_domain_arg), then kind (_lattice_arg).
    """
    _check_node_budget(node_budget)
    count = _int_arg(count, -2**63, 2**31 - 1)
    if count < 0:
        raise ValueError("count must be non-negative")
    w, h = _domain_arg(w, h)
    steps = _lattice_arg(kind)
    n = w * h
    n_cons, touch = _fold_domination(steps, w, h)
    cnt = [0] * n_cons
    open_ = list(cnt)
    for items in touch:
        for v, m in items:
            open_[v] += m
    cov = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        cov[i] = max(cov[i + 1], sum(min(m, 2) for _v, m in touch[i]))
    out: list[int] = []
    nodes = 0
    exhausted = True
    pairs = None

    def dfs(i: int, picked: int, mask: int, deficit: int) -> None:
        nonlocal nodes, exhausted, pairs
        if not exhausted:
            return
        nodes += 1
        if nodes > node_budget:
            exhausted = False
            return
        if picked > count or picked + (n - i) < count:
            return
        if (count - picked) * cov[i] < deficit:
            return
        if i == n:
            if pairs is None:
                pairs = _fold_pairs(steps, w, h)
            if _pairs_hold(pairs, mask):
                out.append(mask)
            return
        for val in ((1,) if i == 0 else (1, 0)):
            ok = True
            left = deficit
            for v, m in touch[i]:
                open_[v] -= m
                if val:
                    c = cnt[v]
                    cnt[v] = c + m
                    if c < 2:
                        left -= min(m, 2 - c)
                if cnt[v] + open_[v] < 2:
                    ok = False
            if ok:
                dfs(i + 1, picked + val, mask | val << i, left)
            for v, m in touch[i]:
                open_[v] += m
                if val:
                    cnt[v] -= m

    try:
        dfs(0, 0, 0, 2 * n_cons)  # every constraint starts 2 short
    finally:
        del dfs  # it closes over itself: break that cycle, so its cells go now
    return out, exhausted


def _top_caps(rows: list[int], cand: int, x: int, t: int) -> int:
    """The sum of the t largest caps |rows[d] & x| over the vertices d of cand."""
    return sum(sorted(((rows[d] & x).bit_count() for d in _bit_list(cand)), reverse=True)[:t])


def _ld_prunes(ctx: Ctx, in_m: int, pool: int, x: int, room: int) -> bool:
    """The LD bound of bnb: True when no LD set S with in_m <= S <= pool
    has fewer than `room` vertices outside in_m.

    x is X, the vertices neither in in_m nor adjacent to it; U = X & pool is
    its undecided part, and a candidate d in C = pool & ~in_m has cap(d) =
    |N(d) & X|.  Take such an S and t = |S - in_m|.  Each x in X - S has a
    nonempty trace N(x) & S, which lies in S - in_m since x has no neighbour
    in in_m; traces are distinct, so at most t of them are singletons, and
    2|X - S| - t <= the sum of the traces' sizes <= top(t), the sum of the t
    largest caps.  With |X - S| >= |X| - min(t, |U|) and t <= |C|, S needs
    2(|X| - min(t, |U|)) <= t + top(t).  The right side less the left only
    grows with t, so the largest t allowed, min(room - 1, |C|), decides.  At
    the root, where every cap is at most maxdeg, this is the classic
    ceil(2n / (maxdeg + 3)).
    """
    cand = pool & ~in_m
    t = min(room - 1, cand.bit_count())
    left = x.bit_count() - min(t, (x & pool).bit_count())
    return 2 * left > t + _top_caps(ctx.open_, cand, x, t)


def _redld_prunes(ctx: Ctx, in_m: int, pool: int, short: int, deficit: int,
                  room: int) -> bool:
    """The RED:LD bound of bnb: True when no set S with in_m <= S <= pool
    and at most `room` vertices outside in_m 2-dominates every vertex.

    short is D, the vertices v with |N[v] & in_m| < 2, and deficit sums
    2 - |N[v] & in_m| over D.  A detector d in pool & ~in_m lowers the
    deficit by at most cap(d) = |N[d] & D|, so the room largest caps must
    reach it.  Every cap is at most maxdeg + 1, which settles most nodes
    before the caps are counted.
    """
    if deficit > room * (ctx.maxdeg + 1):
        return True
    return deficit > _top_caps(ctx.closed, pool & ~in_m, short, room)


def bnb(ctx: Ctx, mode: int, forced_in: int, forced_out: int, cap: int,
        stop_at: int, node_budget: int, time_budget: float) -> tuple[int, int, int, int]:
    """Depth-first branch and bound over sets S with forced_in <= S <= ~forced_out.

    Returns (status, value, witness_mask, nodes).
      status 0: search completed; value is the exact minimum size <= cap
                (when value <= stop_at the search stopped at the first such
                set, which is exact only if stop_at is a valid lower bound).
      status 1: no valid set of size <= cap exists under the constraints.
      status 2: node or time budget exhausted; value is the best size found
                so far (-1 if none) and is only an upper bound.

    The search stops after node_budget nodes, or once time_budget seconds
    from the call have passed (the clock is read at every node); 0 sets no
    limit for either, and a negative time_budget stops at the first node.

    Branch vertex: highest degree among undecided, ties to the smallest index;
    the IN branch is explored first.
    """
    _check_mode(mode, (MODE_LD, MODE_REDLD))
    # C keeps cap + 1 in an int
    cap, stop_at = _int_arg(cap, -2**31, 2**31 - 2), _int_arg(stop_at, -2**31, 2**31 - 1)
    _check_node_budget(node_budget)
    if not isinstance(time_budget, (int, float)):
        raise TypeError("time_budget must be an int or a float")
    time_budget = float(time_budget)
    _check_mask(ctx.n, forced_in)
    _check_mask(ctx.n, forced_out)
    deadline = time.monotonic() + time_budget if time_budget else 0.0
    n = ctx.n
    full = ctx.full
    open_ = ctx.open_
    closed = ctx.closed
    deg = ctx.deg
    if forced_in & forced_out:
        return 1, -1, 0, 0
    need = 2 if mode == MODE_REDLD else 1
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
        # admissible bound
        limit = min(best, cap + 1)
        if mode == MODE_REDLD:
            deficit = short = 0
            for v in range(n):
                have = (closed[v] & in_m).bit_count()
                if have < 2:
                    deficit += 2 - have
                    short |= 1 << v
            if _redld_prunes(ctx, in_m, pool, short, deficit, limit - in_ct - 1):
                return
            leaf = deficit == 0 and is_redld(ctx, in_m)
        else:
            dom = in_m
            for d in _bit_list(in_m):
                dom |= open_[d]
            x = full & ~dom
            if _ld_prunes(ctx, in_m, pool, x, limit - in_ct):
                return
            leaf = x == 0 and is_ld(ctx, in_m)
        if leaf:
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


# ---------------------------------------------------------------------------
# Trees: canonical codes and automorphism orbits.

_TREE_ROWS = "a tree's adjacency must be a tuple of tuples of ints"


def _check_tree(adj, colored) -> None:
    """The checks of tree_code and tree_orbits that both backends share, in
    this order: adj is a tuple of rows, each a tuple of ints (TypeError),
    each naming a vertex (IndexError), the first failure in row order
    raising; each w in adj[v] has v in adj[w] (ValueError); the rows are a
    tree's, with 2(n - 1) entries in all and every vertex reached from
    vertex 0 (ValueError), so with no cycle, loop or repeated edge and one
    component; colored is an int (TypeError) and a mask of the tree's
    vertices (IndexError).
    """
    if not isinstance(adj, tuple):
        raise TypeError(_TREE_ROWS)
    n = len(adj)
    for row in adj:
        if not isinstance(row, tuple):
            raise TypeError(_TREE_ROWS)
        for w in row:
            if not isinstance(w, int):
                raise TypeError(_TREE_ROWS)
            if not 0 <= w < n:
                raise IndexError("vertex out of range")
    if any(v not in adj[w] for v, row in enumerate(adj) for w in row):
        raise ValueError("the adjacency is not symmetric")
    if sum(map(len, adj)) != 2 * (n - 1):
        raise ValueError("the adjacency is not a tree's")
    reached = [True] + [False] * (n - 1)
    walk = [0]
    for v in walk:
        for w in adj[v]:
            if not reached[w]:
                reached[w] = True
                walk.append(w)
    if len(walk) < n:
        raise ValueError("the adjacency is not a tree's")
    if not isinstance(colored, int):
        raise TypeError("the colour mask must be an int")
    _check_mask(n, colored)


def _peel(adj, colored: int) -> tuple[list[str], list[int], list[int]]:
    """Rooted codes of a tree's vertices, its peeled vertices in peel order,
    and its one or two centers; the vertices in the mask colored are marked.

    Leaves are peeled layer by layer down to the centers; a vertex's rooted
    code is built when it is peeled, from its neighbors peeled before it
    (its children). No two leaves of a tree on more than two vertices are
    adjacent, so no layer holds a vertex and its parent, the one neighbor
    peeled after it or left as a center. A center's code covers its own
    half, as the other center is not its child.
    """
    n = len(adj)
    deg = [len(nbrs) for nbrs in adj]
    peeled = [False] * n
    codes = [""] * n
    order: list[int] = []

    def rooted(v: int) -> str:
        kids = sorted(codes[w] for w in adj[v] if peeled[w])
        tag = "*" if colored >> v & 1 else ""
        return tag + "(" + "".join(kids) + ")"

    alive = n
    layer = [v for v in range(n) if deg[v] == 1]
    while alive > 2:
        nxt = []
        for v in layer:
            codes[v] = rooted(v)
            peeled[v] = True
            for w in adj[v]:
                if not peeled[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        order += layer
        alive -= len(layer)
        layer = nxt
    centers = [c for c in range(n) if not peeled[c]]
    for c in centers:
        codes[c] = rooted(c)
    return codes, order, centers


def _code(adj, colored: int) -> str:
    """Canonical string of the tree with adjacency adj: the rooted codes of
    its centers, two joined in sorted order."""
    codes, _order, centers = _peel(adj, colored)
    return "|".join(sorted(codes[c] for c in centers))


def _orbits(adj, colored: int) -> list[int]:
    """The least vertex of each vertex's orbit under the automorphisms of the
    tree that keep the mask colored.

    Every automorphism fixes the center, or keeps or swaps the two centers,
    so two vertices share an orbit exactly when the rooted codes along their
    paths to a center are equal; two centers share one exactly when their
    halves have equal codes. A vertex's path is numbered by its own code and
    its parent's path number, centers first.
    """
    codes, order, centers = _peel(adj, colored)
    n = len(adj)
    path = [-1] * n
    ids: dict[tuple[int, str], int] = {}
    for c in centers:
        path[c] = ids.setdefault((-1, codes[c]), len(ids))
    # parents are peeled after their children, so this numbers each vertex
    # before its children, which are its neighbors not numbered yet
    for v in centers + order[::-1]:
        for w in adj[v]:
            if path[w] < 0:
                path[w] = ids.setdefault((path[v], codes[w]), len(ids))
    least: dict[int, int] = {}
    return [least.setdefault(path[v], v) for v in range(n)]


def tree_code(adj, colored: int) -> str:
    """The canonical code of the tree with rows adj, the vertices in the mask
    colored marked (0 for none); isomorphic trees, with colorings that the
    isomorphism maps onto each other, get equal codes."""
    _check_tree(adj, colored)
    return _code(adj, colored)


def tree_orbits(adj, colored: int) -> list[int]:
    """The least vertex of each vertex's orbit under the automorphisms of the
    tree with rows adj that keep the mask colored."""
    _check_tree(adj, colored)
    return _orbits(adj, colored)
