"""Periodic detector patterns on the four infinite grids.

A pattern fixes detector cells inside a w-by-h fundamental domain; the
infinite pattern is its translation closure.  Validity on the infinite
grid is decided on a torus whose extents are at least 8 cells in each
direction: at that size no distance-4 ball wraps onto itself, and once
every cell is 2-dominated, cells at graph distance 3 or more carry
disjoint traces of size at least 2, so only nearby pairs can collide.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

from . import _kernels as kern
from ._kernels.pybits import _MAX_CELLS, LATTICES, _fold_domination
from .graph import Graph
from .solver import BudgetExceededError
from .verify import DetectorSet, VerificationReport, _members, is_redld_set, share


class LatticeKind(Enum):
    HEX = "HEX"
    TRI = "TRI"
    SQ = "SQ"
    KING = "KING"


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
    if not lines:
        raise ValueError("empty pattern: no header line")
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
    w, h, kind = pattern.w, pattern.h, pattern.kind
    big_w, big_h = w * c_w, h * c_h
    if big_w < 8 or big_h < 8:
        raise ValueError("torus extents below 8 cells would wrap distance-4 balls")
    if kind is LatticeKind.HEX and (big_w % 2 or big_h % 2):
        raise ValueError("hexagonal torus extents must be even")
    # The rows go to Graph._from_adj unchecked, and they are valid: with
    # both extents at least 8, no two steps of a cell reach the same cell
    # and no step comes back to it; every step has its reverse among the
    # steps of the cell it reaches (tests/test_grids.py checks the table),
    # so adjacency is symmetric; for HEX the even extents keep the parity of
    # x+y across the wrap.
    steps = LATTICES[kind.value]
    adj = tuple(
        tuple(sorted((y + dy) % big_h * big_w + (x + dx) % big_w
                     for dx, dy in steps[(x + y) & 1]))
        for y in range(big_h)
        for x in range(big_w)
    )
    domain = sum(1 << (y * w + x) for x, y in pattern.detectors)
    return Graph._from_adj(adj), DetectorSet(_members(_tiler(w, h, c_w, c_h)(domain)))


def _tile_counts(pattern: PeriodicPattern, extent: int) -> tuple[int, int]:
    c_w = -(-extent // pattern.w)
    c_h = -(-extent // pattern.h)
    if pattern.kind is LatticeKind.HEX and (pattern.h * c_h) % 2:
        c_h += 1
    return c_w, c_h


def verify_periodic(pattern: PeriodicPattern) -> VerificationReport:
    """Full check of the pattern on a torus of at least 8 cells per side;
    the verdict equals validity on the infinite grid."""
    g, s = build_torus(pattern, *_tile_counts(pattern, 8))
    return is_redld_set(g, s)


def share_histogram(pattern: PeriodicPattern) -> dict[Fraction, int]:
    """Shares of the detectors inside one fundamental domain."""
    c_w, c_h = _tile_counts(pattern, 8)
    g, s = build_torus(pattern, c_w, c_h)
    if not is_redld_set(g, s).ok:
        raise ValueError("pattern does not verify; shares are undefined")
    hist: dict[Fraction, int] = {}
    for x, y in sorted(pattern.detectors):
        val = share(g, s, y * (pattern.w * c_w) + x)
        hist[val] = hist.get(val, 0) + 1
    return hist


# The vertex pairs within distance 2, the pairs the kernel's pairs_scan
# takes.  (pattern_search scans with is_redld, whose compiled form
# tests the same pairs.)  Testing the pair conditions only on these pairs is
# enough: pairs_scan first requires every vertex to be 2-dominated, and two
# vertices u, v at distance 3 or more have disjoint open neighbourhoods and
# are not adjacent.  If neither is a detector, each of N(u) & S and N(v) & S
# has at least 2 detectors (u, v are not in S), so their symmetric
# difference has at least 4.  If v is a detector and u is not, the
# difference minus v still holds N(u) & S, which does not contain v and has
# at least 2.  Two detectors face no pair condition.  So no pair farther
# apart can fail, and the verdict equals the full check.
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
# the largest period whose square domain the kernel's walk takes
_MAX_PERIOD = math.isqrt(_MAX_CELLS)


def _dominating_candidates(
    kind: LatticeKind, w: int, h: int, count: int, node_budget: int
) -> tuple[list[int], bool]:
    """The valid patterns of exactly count detectors on the w x h domain,
    cell (0,0) pinned, as masks with bit y*w + x for cell (x, y), in the
    order of the kernel's depth-first walk, which prunes by folded
    domination and by the detector count left to place; returns
    (patterns, True) when the walk exhausted the domain, (prefix, False)
    when it ran out of node budget.
    """
    return kern.dom_candidates(kind.value, w, h, count, node_budget)


def _random_descents(
    kind: LatticeKind, w: int, h: int, count: int,
    rng: random.Random, attempts: int,
    skip: set[int],
) -> list[int]:
    """Randomized restarts through the same pruned space: each descent
    walks the cells once with random choices that respect the domination
    and cardinality bounds, aborting on a dead end.  Returns the masks
    found, in the order found, leaving out those in `skip` and repeats."""
    n = w * h
    n_vertices, touch = _fold_domination(LATTICES[kind.value], w, h)
    base_open = [0] * n_vertices
    for items in touch:
        for v, m in items:
            base_open[v] += m
    out: list[int] = []
    seen = set(skip)
    for _ in range(attempts):
        cnt = [0] * n_vertices
        open_ = list(base_open)
        chosen = 0
        picked = 0
        alive = True
        for i in range(n):
            need = count - picked
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
                chosen |= 1 << i
                picked += 1
        if alive and picked == count and chosen not in seen:
            seen.add(chosen)
            out.append(chosen)
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
    the kernel's depth-first walk over the subsets of exactly
    min(floor(w*h*target), w*h) cells, which emits only valid patterns; its
    prunes cut none.  Domains whose walk exceeds the node budget add seeded
    random descents through the same space.  The verification torus is built
    only for a domain with a candidate: each candidate, tiled over it, is
    checked with the kernel's RED:LD predicate, and the first that passes is
    returned.
    None, returned only when every walk exhausted, proves that no pattern of
    density at most target_density exists on any domain up to max_period
    (adding detectors keeps a pattern valid).  When a walk ran out of budget
    and no candidate passed, BudgetExceededError carries those walks' nodes.
    A max_period that lists no domain (below 1, or 1 on HEX, whose widths
    are even) or one whose largest domain the walk cannot take (above
    _MAX_PERIOD) raises ValueError before any walk.
    """
    if not 1 <= max_period <= _MAX_PERIOD:
        raise ValueError(f"max_period must be in 1 .. {_MAX_PERIOD}, got {max_period}")
    if kind is LatticeKind.HEX and max_period < 2:
        raise ValueError("hexagonal domains have even widths: max_period must be at least 2")
    target = Fraction(target_density)
    rng = random.Random(seed)
    domains = [
        (w, h)
        for w in range(1, max_period + 1)
        for h in range(1, max_period + 1)
        if kind is not LatticeKind.HEX or w % 2 == 0
    ]
    domains.sort(key=lambda wh: (wh[0] * wh[1], wh[0], wh[1]))
    cut = 0  # walks that ran out of budget
    for w, h in domains:
        count = min((w * h * target.numerator) // target.denominator, w * h)
        if count < 1:
            continue
        masks, exhausted = _dominating_candidates(kind, w, h, count, _DFS_NODE_BUDGET)
        if not exhausted:
            cut += 1
            masks.extend(_random_descents(kind, w, h, count, rng, _DESCENT_COUNT,
                                          skip=set(masks)))
        if not masks:
            continue
        probe = PeriodicPattern(kind, w, h)
        c_w, c_h = _tile_counts(probe, 8)
        ctx = build_torus(probe, c_w, c_h)[0].kernel_ctx()
        tile = _tiler(w, h, c_w, c_h)
        for mask in masks:
            if kern.is_redld(ctx, tile(mask)):
                cells = frozenset((c % w, c // w) for c in range(w * h) if mask >> c & 1)
                return PeriodicPattern(kind, w, h, cells)
    if cut:
        raise BudgetExceededError(cut * _DFS_NODE_BUDGET)
    return None


def _tiler(w: int, h: int, c_w: int, c_h: int):
    """The map from a domain mask (bit y*w + x for cell (x, y)) to the mask
    of its tiling c_w x c_h times over the torus."""
    big_w = w * c_w
    row_bits = (1 << w) - 1
    # Multiplying a w-bit row by a sum of disjoint shifts ORs shifted copies
    # of it: here c_w copies side by side, a full torus row.  Stacking the h
    # rows gives one band, repeated the same way c_h times down the torus.
    row_rep = sum(1 << (k * w) for k in range(c_w))
    band_rep = sum(1 << (k * h * big_w) for k in range(c_h))
    shifts = [(y * w, y * big_w) for y in range(h)]

    def tile(domain: int) -> int:
        band = 0
        for src, dst in shifts:
            band |= (domain >> src & row_bits) * row_rep << dst
        return band * band_rep

    return tile


def _tiled_mask(kind: LatticeKind, w: int, h: int, cells) -> int:
    """The torus mask of the pattern tiled over the verification torus."""
    domain = sum(1 << (y * w + x) for x, y in cells)
    return _tiler(w, h, *_tile_counts(PeriodicPattern(kind, w, h), 8))(domain)
