"""Periodic detector patterns on the four infinite grids.

A pattern fixes detector cells inside a w-by-h fundamental domain; the
infinite pattern is its translation closure.  Validity on the infinite
grid is decided on a torus whose extents are at least 8 cells in each
direction: at that size no distance-4 ball wraps onto itself, and once
every cell is 2-dominated, cells at graph distance 3 or more carry
disjoint traces of size at least 2, so only nearby pairs can collide.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

from . import _kernels as kern
from .graph import Graph
from .verify import DetectorSet, VerificationReport, is_redld_set, share


class LatticeKind(Enum):
    HEX = "HEX"
    TRI = "TRI"
    SQ = "SQ"
    KING = "KING"


_STEPS = {
    LatticeKind.SQ: ((1, 0), (-1, 0), (0, 1), (0, -1)),
    LatticeKind.KING: (
        (1, 0), (-1, 0), (0, 1), (0, -1),
        (1, 1), (1, -1), (-1, 1), (-1, -1),
    ),
    LatticeKind.TRI: ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)),
}


def _neighbors(kind: LatticeKind, x: int, y: int):
    if kind is LatticeKind.HEX:
        # brick wall: the vertical edge at (x, y) points up when x+y is even
        vert = (0, 1) if (x + y) % 2 == 0 else (0, -1)
        return ((1, 0), (-1, 0), vert)
    return _STEPS[kind]


@dataclass(frozen=True)
class PeriodicPattern:
    kind: LatticeKind
    w: int
    h: int
    detectors: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError("domain must be at least 1x1")
        if self.kind is LatticeKind.HEX and self.w % 2 != 0:
            raise ValueError("hexagonal patterns need even width")
        for x, y in self.detectors:
            if not (0 <= x < self.w and 0 <= y < self.h):
                raise ValueError(f"cell ({x},{y}) outside the {self.w}x{self.h} domain")


def density(pattern: PeriodicPattern) -> Fraction:
    return Fraction(len(pattern.detectors), pattern.w * pattern.h)


def parse_pattern(text: str) -> PeriodicPattern:
    """Read "KIND w h" then h rows of w characters, '#' detector '.' empty.

    Row r of the block is the y = r line of the domain.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#!")]
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"malformed header: {lines[0]!r}")
    try:
        kind = LatticeKind(head[0].upper())
    except ValueError:
        raise ValueError(f"unknown lattice kind {head[0]!r}") from None
    w, h = int(head[1]), int(head[2])
    rows = lines[1:]
    if len(rows) != h:
        raise ValueError(f"expected {h} rows, found {len(rows)}")
    cells = set()
    for y, row in enumerate(rows):
        if len(row) != w:
            raise ValueError(f"row {y} has length {len(row)}, expected {w}")
        for x, ch in enumerate(row):
            if ch == "#":
                cells.add((x, y))
            elif ch != ".":
                raise ValueError(f"bad cell character {ch!r}")
    return PeriodicPattern(kind, w, h, frozenset(cells))


def render_pattern(pattern: PeriodicPattern) -> str:
    rows = [f"{pattern.kind.value} {pattern.w} {pattern.h}"]
    for y in range(pattern.h):
        rows.append(
            "".join("#" if (x, y) in pattern.detectors else "." for x in range(pattern.w))
        )
    return "\n".join(rows) + "\n"


def build_torus(pattern: PeriodicPattern, c_w: int, c_h: int) -> tuple[Graph, DetectorSet]:
    """Tile the domain c_w x c_h times with wraparound adjacency."""
    big_w, big_h = pattern.w * c_w, pattern.h * c_h
    if big_w < 8 or big_h < 8:
        raise ValueError("torus extents below 8 cells would wrap distance-4 balls")
    if pattern.kind is LatticeKind.HEX and (big_w % 2 or big_h % 2):
        raise ValueError("hexagonal torus extents must be even")
    idx = lambda x, y: y * big_w + x
    edges = set()
    for y in range(big_h):
        for x in range(big_w):
            for dx, dy in _neighbors(pattern.kind, x, y):
                nx, ny = (x + dx) % big_w, (y + dy) % big_h
                a, b = idx(x, y), idx(nx, ny)
                edges.add((min(a, b), max(a, b)))
    labels = [f"({x},{y})" for y in range(big_h) for x in range(big_w)]
    g = Graph(big_w * big_h, sorted(edges), labels=labels)
    members = [
        idx(x, y)
        for y in range(big_h)
        for x in range(big_w)
        if (x % pattern.w, y % pattern.h) in pattern.detectors
    ]
    return g, DetectorSet(members)


def _tile_counts(pattern: PeriodicPattern, extent: int) -> tuple[int, int]:
    c_w = -(-extent // pattern.w)
    c_h = -(-extent // pattern.h)
    if pattern.kind is LatticeKind.HEX and (pattern.h * c_h) % 2:
        c_h += 1
    return c_w, c_h


def verify_periodic(pattern: PeriodicPattern, extent: int = 8) -> VerificationReport:
    """Full check of the pattern on a torus of at least `extent` cells per
    side; the verdict equals validity on the infinite grid."""
    g, s = build_torus(pattern, *_tile_counts(pattern, extent))
    return is_redld_set(g, s)


def share_histogram(pattern: PeriodicPattern) -> dict[Fraction, int]:
    """Shares of the detectors inside one fundamental domain."""
    report = verify_periodic(pattern)
    if not report.ok:
        raise ValueError("pattern does not verify; shares are undefined")
    g, s = build_torus(pattern, *_tile_counts(pattern, 8))
    hist: dict[Fraction, int] = {}
    for x, y in sorted(pattern.detectors):
        v = y * (pattern.w * _tile_counts(pattern, 8)[0]) + x
        val = share(g, s, v)
        hist[val] = hist.get(val, 0) + 1
    return hist


# The pair scan tests the pair conditions only on vertices within distance
# 2, which is enough: pairs_ok first requires every vertex to be 2-dominated,
# and two vertices u, v at distance 3 or more have disjoint open
# neighbourhoods and are not adjacent.  If neither is a detector, each of
# N(u) & S and N(v) & S has at least 2 detectors (u, v are not in S), so
# their symmetric difference has at least 4.  If v is a detector and u is
# not, the difference minus v still holds N(u) & S, which does not contain v
# and has at least 2.  Two detectors face no pair condition.  So no pair
# farther apart can fail, and the verdict equals the full check.
def _near_pairs(g: Graph) -> tuple[list[int], list[int]]:
    us, vs = [], []
    for u in range(g.n):
        near = set(g.adj[u])
        for w in g.adj[u]:
            near.update(g.adj[w])
        for v in sorted(near):
            if v > u:
                us.append(u)
                vs.append(v)
    return us, vs


_DFS_NODE_BUDGET = 5_000_000
_DESCENT_COUNT = 100_000


def _fold_constraints(kind: LatticeKind, w: int, h: int):
    """Closed-neighborhood constraints of the infinite grid folded onto the
    w x h domain: one constraint per vertex of a block on which every
    neighborhood shape repeats, as (cell index, multiplicity) lists.

    The block height doubles for HEX with odd h because the vertical edge
    direction depends on the parity of x+y, which an odd vertical shift
    flips.
    """
    block_h = 2 * h if kind is LatticeKind.HEX and h % 2 else h
    constraints = []
    for y in range(block_h):
        for x in range(w):
            mult: dict[int, int] = {}
            for dx, dy in ((0, 0), *_neighbors(kind, x, y)):
                c = ((y + dy) % h) * w + (x + dx) % w
                mult[c] = mult.get(c, 0) + 1
            constraints.append(list(mult.items()))
    touch: list[list[tuple[int, int]]] = [[] for _ in range(w * h)]
    for v, items in enumerate(constraints):
        for c, m in items:
            touch[c].append((v, m))
    return len(constraints), touch


def _dominating_candidates(
    kind: LatticeKind, w: int, h: int, count: int, node_budget: int
) -> tuple[list[frozenset[tuple[int, int]]], bool]:
    """Exactly-count subsets of the domain, cell (0,0) pinned, such that
    every grid vertex keeps at least 2 detectors in its closed
    neighborhood.  Depth-first with folded domination pruning, in the
    kernel; returns (candidates, True) when the walk exhausted the domain,
    (prefix, False) when it ran out of node budget.
    """
    _n_vertices, touch = _fold_constraints(kind, w, h)
    masks, exhausted = kern.dom_candidates(w * h, touch, count, node_budget)
    cells = [(c % w, c // w) for c in range(w * h)]
    candidates = [frozenset(xy for c, xy in enumerate(cells) if mask >> c & 1) for mask in masks]
    return candidates, exhausted


def _random_descents(
    kind: LatticeKind, w: int, h: int, count: int,
    rng: random.Random, attempts: int,
    skip: set[frozenset[tuple[int, int]]],
) -> list[frozenset[tuple[int, int]]]:
    """Randomized restarts through the same pruned space: each descent
    walks the cells once with random choices that respect the domination
    and cardinality bounds, aborting on a dead end."""
    n = w * h
    n_vertices, touch = _fold_constraints(kind, w, h)
    base_open = [0] * n_vertices
    for items in touch:
        for v, m in items:
            base_open[v] += m
    out: list[frozenset[tuple[int, int]]] = []
    seen = set(skip)
    for _ in range(attempts):
        cnt = [0] * n_vertices
        open_ = list(base_open)
        chosen: list[int] = []
        alive = True
        for i in range(n):
            need = count - len(chosen)
            rest = n - i
            options = []
            for val in (0, 1):
                if val and need == 0:
                    continue
                if not val and need == rest:
                    continue
                ok = True
                for v, m in touch[i]:
                    if cnt[v] + m * val + (open_[v] - m) < 2:
                        ok = False
                        break
                if ok:
                    options.append(val)
            if i == 0:
                options = [v for v in options if v == 1]
            if not options:
                alive = False
                break
            val = options[0] if len(options) == 1 else rng.choice(options)
            for v, m in touch[i]:
                open_[v] -= m
                if val:
                    cnt[v] += m
            if val:
                chosen.append(i)
        if alive and len(chosen) == count:
            cand = frozenset((c % w, c // w) for c in chosen)
            if cand not in seen:
                seen.add(cand)
                out.append(cand)
    return out


def pattern_search(
    kind: LatticeKind,
    max_period: int,
    target_density: Fraction,
    seed: int = 0,
) -> Optional[PeriodicPattern]:
    """Search fundamental domains up to max_period for a verified pattern
    of density at most target_density.

    Domains are scanned in order of area; cell (0,0) is pinned as a
    detector, which loses nothing up to translation.  Candidates come from
    a depth-first walk that keeps only exactly-floor(w*h*target) subsets
    whose every vertex can still end up 2-dominated; domains whose walk
    exceeds the node budget fall back to seeded random descents through
    the same pruned space, so a miss there is not a proof of absence.
    """
    target = Fraction(target_density)
    rng = random.Random(seed)
    domains = [
        (w, h)
        for w in range(1, max_period + 1)
        for h in range(1, max_period + 1)
        if kind is not LatticeKind.HEX or w % 2 == 0
    ]
    domains.sort(key=lambda wh: (wh[0] * wh[1], wh[0], wh[1]))
    for w, h in domains:
        count = (w * h * target.numerator) // target.denominator
        if count < 1:
            continue
        candidates, exhausted = _dominating_candidates(
            kind, w, h, count, _DFS_NODE_BUDGET
        )
        if not exhausted:
            candidates.extend(
                _random_descents(kind, w, h, count, rng, _DESCENT_COUNT,
                                 skip=set(candidates))
            )
        if not candidates:
            continue
        probe = PeriodicPattern(kind, w, h, frozenset([(0, 0)]))
        g, _ = build_torus(probe, *_tile_counts(probe, 8))
        ctx = kern.make_ctx([list(nbrs) for nbrs in g.adj])
        us, vs = _near_pairs(g)
        masks = [_tiled_mask(kind, w, h, cand) for cand in candidates]
        hit = _scan(ctx, us, vs, masks)
        if hit >= 0:
            return PeriodicPattern(kind, w, h, candidates[hit])
    return None


def _tiled_mask(kind: LatticeKind, w: int, h: int, cells) -> int:
    """The torus mask of the pattern tiled over the verification torus."""
    probe = PeriodicPattern(kind, w, h, frozenset([(0, 0)]))
    c_w, c_h = _tile_counts(probe, 8)
    big_w = w * c_w
    domain = 0
    for x, y in cells:
        domain |= 1 << (y * w + x)
    # Multiplying a w-bit row by a sum of disjoint shifts ORs shifted copies
    # of it: here c_w copies side by side, a full torus row.  Stacking the h
    # rows gives one band, repeated the same way c_h times down the torus.
    row_rep = sum(1 << (k * w) for k in range(c_w))
    band = 0
    for y in range(h):
        band |= ((domain >> (y * w)) & ((1 << w) - 1)) * row_rep << (y * big_w)
    return band * sum(1 << (k * h * big_w) for k in range(c_h))


def _scan(ctx, us, vs, masks: list[int]) -> int:
    # its own function so that the benchmark's tracer can time the scan
    return kern.pairs_scan(ctx, us, vs, masks)
