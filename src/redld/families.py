"""Closed-form optima and explicit constructions for structured graph families.

Each ``redld_*`` function returns a :class:`FamilyValue` holding the exact
optimum together with the standard optimal detector set on the matching
builder graph.  Constructions are materialized only while the graph stays
at desk scale; past the cap the value is still exact but the graph and
witness fields are left empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .graph import (
    Graph,
    build_cycle,
    build_kary_tree,
    build_ladder,
    build_path,
    kary_depth_blocks,
)
from .trees import tree_lower_bound
from .verify import DetectorSet

# Largest k-ary tree worth materializing; the deepest table rows reach ~3*10^8 vertices.
_KARY_BUILD_CAP = 5000
# Most vertices of a path, cycle or ladder that is built: 10^5 vertices take
# about 0.3 s and 50 MB (CPython 3.11), and the time and memory grow linearly.
_LINEAR_BUILD_CAP = 10**5


@dataclass(frozen=True)
class FamilyValue:
    """Exact optimum for one parametrized family member.

    ``construction`` (and ``graph``) may be None when only the value is
    reported; when present, ``len(construction) == optimum`` and the set
    verifies on ``graph``.
    """

    family: str
    params: tuple[int, ...]
    optimum: int
    graph: Optional[Graph] = None
    construction: Optional[DetectorSet] = None


@dataclass(frozen=True)
class DensityConstant:
    graph_id: str
    lower: Fraction
    upper: Fraction

    @property
    def tight(self) -> bool:
        return self.lower == self.upper


def redld_path(n: int) -> FamilyValue:
    """Optimum ceil((2n+2)/3) on the n-vertex path, with witness up to
    _LINEAR_BUILD_CAP vertices."""
    if n < 2:
        raise ValueError("path needs n >= 2")
    opt = tree_lower_bound(n)
    if n > _LINEAR_BUILD_CAP:
        return FamilyValue("path", (n,), opt)
    g = build_path(n)
    members = {i - 1 for i in range(1, n + 1) if i % 3 != 0}
    members.update({n - 2, n - 1})
    s = DetectorSet(members)
    assert len(s) == opt
    return FamilyValue("path", (n,), opt, g, s)


def redld_cycle(n: int) -> FamilyValue:
    """Optimum n for n <= 4, else ceil(2n/3), with witness up to
    _LINEAR_BUILD_CAP vertices."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    if n <= 4:
        return FamilyValue("cycle", (n,), n, build_cycle(n), DetectorSet(range(n)))
    opt = -(-2 * n // 3)
    if n > _LINEAR_BUILD_CAP:
        return FamilyValue("cycle", (n,), opt)
    s = DetectorSet(i - 1 for i in range(1, n + 1) if i % 3 != 0)
    assert len(s) == opt
    return FamilyValue("cycle", (n,), opt, build_cycle(n), s)


def redld_ladder(k: int) -> FamilyValue:
    """Optimum k+1 (k odd) or k+2 (k even) on P_k x P_2.

    Witness: every vertex in an odd-numbered column, plus both vertices of
    the last column, built while the ladder's 2k vertices are at most
    _LINEAR_BUILD_CAP.
    """
    if k < 1:
        raise ValueError("ladder needs k >= 1")
    opt = k + 1 if k % 2 == 1 else k + 2
    if 2 * k > _LINEAR_BUILD_CAP:
        return FamilyValue("ladder", (k,), opt)
    g = build_ladder(k)
    members = set()
    for col in range(k):
        if (col + 1) % 2 == 1:
            members.update({2 * col, 2 * col + 1})
    members.update({2 * (k - 1), 2 * (k - 1) + 1})
    s = DetectorSet(members)
    assert len(s) == opt
    return FamilyValue("ladder", (k,), opt, g, s)


def kary_value(k: int, d: int) -> int:
    """Closed-form optimum for the complete k-ary tree of depth d."""
    if k < 2:
        raise ValueError("arity k must be >= 2")
    if d < 1:
        raise ValueError("depth d must be >= 1")
    if d == 1:
        return k + 1
    if d == 2:
        return k * k + k
    if d == 3:
        return k ** 3 + k ** 2 + 2
    m = d % 3
    if m == 1:
        return (k + 1) * (k ** (d + 2) - 1) // (k ** 3 - 1)
    if m == 2:
        return k * (k + 1) * (k ** (d + 1) - 1) // (k ** 3 - 1)
    return 2 + k * k * (k + 1) * (k ** d - 1) // (k ** 3 - 1)


def kary_order(k: int, d: int) -> int:
    """Vertex count (k^(d+1) - 1) / (k - 1) of the complete k-ary tree."""
    return (k ** (d + 1) - 1) // (k - 1)


def redld_kary(k: int, d: int) -> FamilyValue:
    """Optimum for the complete k-ary tree of depth d.

    The witness takes every vertex whose depth is congruent to d or d-1
    mod 3; when d is a multiple of 3 the root is swapped for two of its
    children.  The graph and witness are built only when the tree has at
    most a few thousand vertices.
    """
    opt = kary_value(k, d)
    if kary_order(k, d) > _KARY_BUILD_CAP:
        return FamilyValue("kary", (k, d), opt)
    g = build_kary_tree(k, d)
    blocks = kary_depth_blocks(k, d)
    keep = {d % 3, (d - 1) % 3}
    members: set[int] = set()
    for depth, block in enumerate(blocks):
        if depth % 3 in keep:
            members.update(block)
    if d % 3 == 0:
        members.discard(0)
        members.update({1, 2})
    s = DetectorSet(members)
    assert len(s) == opt
    return FamilyValue("kary", (k, d), opt, g, s)


def kary_table() -> list[tuple[int, int, int, Fraction]]:
    """(d, k, optimum, density) rows for k = 2..7 and d = 1..10;
    density = optimum * (k-1) / k^(d+1)."""
    rows = []
    for d in range(1, 11):
        for k in range(2, 8):
            v = kary_value(k, d)
            rows.append((d, k, v, Fraction(v * (k - 1), k ** (d + 1))))
    return rows


def max_order_even_k(k: int) -> FamilyValue:
    """Largest graph admitting a RED:LD set of size k, for even k >= 4.

    A clique on k detectors plus one non-detector for every even-sized
    subset of the clique with size between 2 and k-2, adjacent to exactly
    that subset: 2^(k-1) + k - 2 vertices in total.
    """
    if k < 4 or k % 2 != 0:
        raise ValueError("construction needs even k >= 4")
    core = list(range(k))
    edges = [(u, v) for u in core for v in core if u < v]
    labels = [f"v_{i + 1}" for i in core]
    subsets = [sub for size in range(2, k - 1, 2) for sub in combinations(core, size)]
    for idx, sub in enumerate(subsets):
        w = k + idx
        labels.append("u{" + ",".join(str(c + 1) for c in sub) + "}")
        edges.extend((c, w) for c in sub)
    n = k + len(subsets)
    assert n == 2 ** (k - 1) + k - 2
    g = Graph(n, edges, labels=labels)
    return FamilyValue("max-order-even-k", (k,), k, g, DetectorSet(core))


def density_constants() -> list[DensityConstant]:
    """Known density bounds for the infinite families and Q_5."""
    out = [DensityConstant("P_inf", Fraction(2, 3), Fraction(2, 3))]
    for k in range(2, 8):
        out.append(DensityConstant(f"kary_inf({k})", Fraction(2, k + 2), Fraction(2, k + 2)))
    out.extend(
        [
            DensityConstant("HEX", Fraction(1, 2), Fraction(1, 2)),
            DensityConstant("TRI", Fraction(1, 3), Fraction(1, 3)),
            DensityConstant("SQ", Fraction(2, 5), Fraction(7, 16)),
            DensityConstant("KING", Fraction(3, 11), Fraction(5, 16)),
            DensityConstant("Q_5", Fraction(3, 8), Fraction(3, 8)),
        ]
    )
    return out
