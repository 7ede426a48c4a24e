"""Extremal tree families for redundant locating-domination.

Two families are handled: trees whose optimum equals n (every vertex must
be a detector) and trees meeting the universal lower bound ceil((2n+2)/3).
The first family is characterized locally (every vertex is a leaf or a
support vertex) and closed under specific leaf attachments/removals.  The
second is classified by a strip-and-dispatch procedure keyed on n mod 3
and generated bottom-up from four base trees by three combination rules.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, NamedTuple, Optional, Sequence

from .graph import Graph, build_path
from .verify import DetectorSet, _mask, is_redld_set

# A tree's adjacency as Graph.adj holds it: sorted neighbor tuples.
Adjacency = tuple[tuple[int, ...], ...]


def tree_lower_bound(n: int) -> int:
    """ceil((2n+2)/3), valid for every tree on n >= 2 vertices."""
    if n < 2:
        raise ValueError("bound defined for n >= 2")
    return -(-(2 * n + 2) // 3)


def _require_tree(g: Graph) -> None:
    if g.n < 2 or not g.is_tree():
        raise ValueError("expected a tree on at least 2 vertices")


# ---------------------------------------------------------------------------
# All-detector family: optimum == n.


def is_tmax(g: Graph) -> bool:
    """True iff every vertex is a leaf or adjacent to a leaf."""
    _require_tree(g)
    leaves = {v for v in range(g.n) if g.degree(v) == 1}
    return all(v in leaves or any(w in leaves for w in g.adj[v]) for v in range(g.n))


def _attach_points(adj: Adjacency) -> list[int]:
    # a new leaf may go on a support vertex, or on a leaf whose own support
    # has at least two leaf neighbors
    leaf = [len(nbrs) == 1 for nbrs in adj]
    return [u for u, nbrs in enumerate(adj)
            if any(leaf[w] for w in nbrs)
            or (leaf[u] and sum(leaf[w] for w in adj[nbrs[0]]) >= 2)]


def tmax_extensions(g: Graph) -> list[tuple[int, Graph]]:
    """All (attach vertex, extended tree) pairs staying in the family.

    A new leaf may go on a support vertex, or on a leaf whose own support
    has at least two leaf neighbors.
    """
    if not is_tmax(g):
        raise ValueError("tree is not in the all-detector family")
    return [(u, Graph(g.n + 1, g.edges() + [(u, g.n)])) for u in _attach_points(g.adj)]


def tmax_removals(g: Graph) -> list[int]:
    """Leaves whose removal keeps the tree in the all-detector family:
    those with a sibling leaf, or whose support has degree 2."""
    if g.n < 3:
        raise ValueError("removals defined for n >= 3")
    if not is_tmax(g):
        raise ValueError("tree is not in the all-detector family")
    leaves = {v for v in range(g.n) if g.degree(v) == 1}
    out = []
    for v in sorted(leaves):
        support = g.adj[v][0]
        has_sibling = any(w != v and w in leaves for w in g.adj[support])
        if has_sibling or g.degree(support) == 2:
            out.append(v)
    return out


@lru_cache(maxsize=None)
def _tmax_level(n: int) -> dict[str, Adjacency]:
    # {code: adjacency} of the family members on n vertices, each grown by
    # one leaf from a member on n - 1
    if n == 2:
        return {_code(_P2): _P2}
    grown: dict[str, Adjacency] = {}
    for adj in _tmax_level(n - 1).values():
        # attach points an automorphism swaps grow the same tree; the least
        # of each orbit comes first, so only it is grown
        orbit = _orbits(adj)
        for u in _attach_points(adj):
            if orbit[u] != u:
                continue
            adj2 = adj[:u] + (adj[u] + (n - 1,),) + adj[u + 1:] + ((u,),)
            grown.setdefault(_code(adj2), adj2)
    return grown


def enumerate_tmax(n: int) -> list[str]:
    """Canonical codes of all family members on n vertices, grown from P_2."""
    if n < 2:
        raise ValueError("family starts at n = 2")
    return sorted(_tmax_level(n))


# ---------------------------------------------------------------------------
# Canonical forms.


def _peel(adj: Adjacency, colored: Optional[frozenset[int]] = None
          ) -> tuple[list[str], list[int], list[int]]:
    """Rooted codes of a tree's vertices, its peeled vertices in peel order,
    and its one or two centers.

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
        tag = "*" if colored is not None and v in colored else ""
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


def _code(adj: Adjacency, colored: Optional[frozenset[int]] = None) -> str:
    """Canonical string of the tree with adjacency adj, which is not checked:
    the rooted codes of its centers, two joined in sorted order."""
    codes, _order, centers = _peel(adj, colored)
    return "|".join(sorted(codes[c] for c in centers))


def _orbits(adj: Adjacency, colored: Optional[frozenset[int]] = None) -> list[int]:
    """The least vertex of each vertex's orbit under the automorphisms of the
    tree (those keeping colored, when given).

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


def canonical_code(g: Graph, detectors: Optional[Iterable[int]] = None) -> str:
    """Canonical string for a tree, rooted at its center; isomorphic trees
    (with matching detector colorings, when given) get equal codes."""
    if g.n != 1:
        _require_tree(g)
    colored = frozenset(detectors) if detectors is not None else None
    if colored is not None:
        _mask(g, colored)
    return _code(g.adj, colored)


# ---------------------------------------------------------------------------
# Minimum family: optimum == ceil((2n+2)/3).


class StripResult(NamedTuple):
    pairs: tuple[tuple[int, int], ...]
    nondetectors: tuple[int, ...]
    residual: Graph


def _adj_dict(g: Graph) -> dict[int, set[int]]:
    return {v: set(g.adj[v]) for v in range(g.n)}


def _without(adj: dict[int, set[int]], gone: set[int]) -> dict[int, set[int]]:
    # a copy of the forest adj with the vertices in gone deleted
    return {v: nbrs - gone for v, nbrs in adj.items() if v not in gone}


def _strip(adj: dict[int, set[int]], q: int):
    """Repeatedly remove (leaf u, its degree-2 neighbor v, v's other
    neighbor w) triples, least v first, while at least q vertices remain;
    adj is left as the residual forest.

    w must have degree 2 both in the current forest and in the forest as
    it was on entry (deg0, returned with the pairs and non-detectors): an
    intact degree-2 connector.  That keeps the removed non-detectors
    pairwise non-adjacent and their remaining neighbors un-strippable, so
    the accumulated witness stays 2-dominating.  (Testing only one of the
    two degrees makes classify_tmin give wrong verdicts on some trees of
    order at most 12.)

    A removal lowers the degree of one vertex only, w's other neighbor x,
    so only x and its neighbors can start or stop qualifying as v: they go
    back on the worklist, and every popped vertex is checked again.
    """
    deg0 = {v: len(nbrs) for v, nbrs in adj.items()}
    pairs: list[tuple[int, int]] = []
    nondets: list[int] = []
    work = sorted(adj)
    while work and len(adj) >= q:
        v = heapq.heappop(work)
        if v not in adj or len(adj[v]) != 2:
            continue
        a, b = sorted(adj[v])
        for u, w in ((a, b), (b, a)):
            if len(adj[u]) == 1 and len(adj[w]) == 2 and deg0[w] == 2:
                break
        else:
            continue
        (x,) = adj.pop(w) - {v}
        del adj[u], adj[v]
        adj[x].remove(w)
        pairs.append((u, v))
        nondets.append(w)
        for t in (x, *adj[x]):
            heapq.heappush(work, t)
    return pairs, nondets, deg0


def strip_exterior_p2(g: Graph, q: int) -> StripResult:
    """Strip exterior P_2-plus-nondetector triples while >= q vertices remain."""
    _require_tree(g)
    adj = _adj_dict(g)
    pairs, nondets, _deg0 = _strip(adj, q)
    residual, _ = g.induced_subgraph(sorted(adj))
    return StripResult(tuple(pairs), tuple(nondets), residual)


def _extremal_small(adj: dict[int, set[int]], residual: int) -> set[int]:
    # the candidate set of a tree on 3k + 2 (3k) vertices: the strip must
    # leave a residual of 2 (3) vertices, all of them detectors, next to the
    # stripped pairs
    pairs, _nds, _deg0 = _strip(adj, 0)
    if len(adj) == residual:
        return set(adj).union(*pairs)
    return set()


def _hanging_component(adj: dict[int, set[int]], w: int, x: int, cap: int) -> set[int]:
    # component of the forest minus w that contains w's neighbor x; the walk
    # stops once it has found cap vertices
    seen = {x}
    stack = [x]
    while stack and len(seen) < cap:
        v = stack.pop()
        for t in adj[v]:
            if t != w and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _branches(adj: dict[int, set[int]], deg0: dict[int, int]):
    # a branch is a 3-vertex component hanging off a parent w of degree 2;
    # it is either a pendant path or a pendant 2-leaf star
    out = []
    for w in sorted(adj):
        if len(adj[w]) == 2 and deg0[w] == 2:
            for x in sorted(adj[w]):
                comp = _hanging_component(adj, w, x, 4)
                if len(comp) == 3:
                    out.append((w, frozenset(comp)))
    return out


def _deg3_splits(rest: dict[int, set[int]], s1: set[int]):
    # a degree-3 non-detector whose removal splits the residual into three
    # components of order 2 mod 3, each contributing its own extremal set
    for v in sorted(rest):
        if len(rest[v]) != 3:
            continue
        comps = [_hanging_component(rest, v, x, len(rest)) for x in sorted(rest[v])]
        if any(len(c) % 3 != 2 for c in comps):
            continue
        union = set(s1)
        for comp in comps:
            inner = _extremal_small(_without(rest, rest.keys() - comp), 2)
            if not inner:
                break
            union |= inner
        else:
            yield union


def _extremal_cls1(adj: dict[int, set[int]]):
    """Candidate optimal sets for a tree on 3k+1 vertices, yielded lazily.

    Several residual decompositions can qualify and the wrong pick can
    spoil an otherwise valid witness, so every candidate is offered, in a
    fixed order; the caller keeps the first one that actually verifies.
    """
    pairs, _nds, deg0 = _strip(adj, 5)
    s1 = set().union(*pairs)
    # the strip keeps the residual's order r = n = 1 (mod 3) and stops with
    # r >= 2, so r >= 4
    if len(adj) == 4:
        yield set(adj) | s1
        return
    # A residual that is the spider with three legs of two vertices needs no
    # case of its own. Each of its degree-2 vertices splits it 1 + 5, so it
    # has no branch, and its one candidate is the degree-3 split at its
    # center: the spider minus the center.
    branches = _branches(adj, deg0)
    for (w1, b1), (w2, b2) in combinations(branches, 2):
        if w1 == w2 and not b1 & b2:
            yield b1 | b2 | s1
    for (w1, b1), (w2, b2) in combinations(branches, 2):
        if w1 != w2 and not (b1 | {w1}) & (b2 | {w2}):
            inner = _extremal_small(_without(adj, b1 | b2 | {w1, w2}), 2)
            if inner:
                yield b1 | b2 | inner | s1
    yield from _deg3_splits(adj, s1)


@dataclass(frozen=True)
class TminClass:
    residue: int
    member: bool
    witness: Optional[DetectorSet]


def classify_tmin(g: Graph) -> TminClass:
    """Decide membership in the minimum family, with an optimal witness.

    The dispatch on n mod 3 yields candidate sets; one counts only if it
    has the extremal cardinality and verifies, which screens out trees the
    strip happens to reduce to a recognized residual by accident.  The
    first candidate that counts is the witness.
    """
    _require_tree(g)
    residue = g.n % 3
    adj = _adj_dict(g)
    if residue == 1:
        candidates = _extremal_cls1(adj)
    else:
        candidates = [_extremal_small(adj, 2 if residue == 2 else 3)]
    bound = tree_lower_bound(g.n)
    for candidate in candidates:
        if len(candidate) == bound and is_redld_set(g, candidate).ok:
            return TminClass(residue, True, DetectorSet(candidate))
    return TminClass(residue, False, None)


def is_2dom_redld_on_tree(g: Graph, s: Iterable[int]) -> bool:
    """2-domination check; on a tree this already implies a valid set."""
    _require_tree(g)
    members = set(s)
    for v in range(g.n):
        dom = (v in members) + sum(1 for w in g.adj[v] if w in members)
        if dom < 2:
            return False
    return True


# ---------------------------------------------------------------------------
# Bottom-up generation of the minimum family.
#
# All (tree, optimal set) pairs of each residue class are produced from the
# four base pairs by the three combination rules; keeping whole pairs (not
# just trees) matters because a later combination may attach at any detector
# of any optimal set.


def _join(parts: Sequence[tuple[Adjacency, frozenset[int]]],
          attach: Sequence[int]) -> tuple[Adjacency, frozenset[int]]:
    # the disjoint union of the parts plus one new vertex joined to vertex
    # attach[i] of part i; the sets are kept
    new = sum(len(adj) for adj, _s in parts)
    rows: list[tuple[int, ...]] = []
    members: set[int] = set()
    ends = []
    for (adj, s), x in zip(parts, attach):
        off = len(rows)
        rows.extend(tuple(w + off for w in nbrs) for nbrs in adj)
        rows[x + off] += (new,)
        members.update(m + off for m in s)
        ends.append(x + off)
    rows.append(tuple(ends))
    return tuple(rows), frozenset(members)


# the four base pairs: P_2, P_3, P_4 and the star K_{1,3}, all detectors
_P2: Adjacency = ((1,), (0,))
_TMIN_BASE: dict[int, tuple[tuple[Adjacency, frozenset[int]], ...]] = {
    2: ((_P2, frozenset({0, 1})),),
    3: ((((1,), (0, 2), (1,)), frozenset({0, 1, 2})),),
    4: ((((1,), (0, 2), (1, 3), (2,)), frozenset(range(4))),
        (((1, 2, 3), (0,), (0,), (0,)), frozenset(range(4)))),
}


@lru_cache(maxsize=None)
def _tmin_parts(m: int) -> tuple[tuple[tuple[Adjacency, frozenset[int]],
                                       tuple[int, ...], tuple[int, ...]], ...]:
    # the pairs on m vertices in level order, each with the least vertex of
    # every orbit of its colored automorphisms, and those of them in its set:
    # a join at another vertex of an orbit repeats the join at its least one
    parts = []
    for adj, s in _tmin_level(m).values():
        orbit = _orbits(adj, s)
        firsts = tuple(v for v in range(m) if orbit[v] == v)
        parts.append(((adj, s), firsts, tuple(v for v in firsts if v in s)))
    return tuple(parts)


@lru_cache(maxsize=None)
def _tmin_level(m: int) -> dict[str, tuple[Adjacency, frozenset[int]]]:
    # {colored code: (adjacency, optimal set)} of the pairs on m vertices,
    # built from the lower orders that the rules for m mod 3 combine.
    # product() walks attach tuples in lexicographic order, so a join skipped
    # at a vertex that is not the least of its orbit repeats the join at the
    # least one, made before it, and setdefault would have dropped it; so
    # does a join of parts (P_j, P_i), j > i, of one order, which repeats
    # the earlier (P_i, P_j). The level is the same without them.
    level: dict[str, tuple[Adjacency, frozenset[int]]] = {}

    def add(adj: Adjacency, s: frozenset[int]) -> None:
        level.setdefault(_code(adj, s), (adj, s))

    def join_at_detectors(n1: int, n2: int) -> None:
        second = _tmin_parts(n2)
        for i, (p1, _f1, d1) in enumerate(_tmin_parts(n1)):
            for p2, _f2, d2 in second[i if n1 == n2 else 0:]:
                for attach in product(d1, d2):
                    add(*_join((p1, p2), attach))

    for adj, s in _TMIN_BASE.get(m, ()):
        add(adj, s)
    cls = m % 3
    if cls == 2:
        for n1 in range(2, m - 1, 3):
            n2 = m - 1 - n1
            if n2 >= n1 and n2 % 3 == 2:
                join_at_detectors(n1, n2)
    elif cls == 0:
        for n1 in range(3, m, 3):
            n2 = m - 1 - n1
            if n2 >= 2 and n2 % 3 == 2:
                join_at_detectors(n1, n2)
    else:
        for n1 in range(3, m, 3):
            n2 = m - 1 - n1
            if n2 >= n1 and n2 % 3 == 0:
                join_at_detectors(n1, n2)
        for n1 in range(4, m, 3):
            n2 = m - 1 - n1
            if n2 >= 2 and n2 % 3 == 2:
                join_at_detectors(n1, n2)
        for n1 in range(2, m, 3):
            for n2 in range(n1, m, 3):
                n3 = m - 1 - n1 - n2
                if n3 < n2 or n3 % 3 != 2:
                    continue
                for triple in product(_tmin_parts(n1), _tmin_parts(n2), _tmin_parts(n3)):
                    parts = [pair for pair, _f, _d in triple]
                    for attach in product(*(f for _p, f, _d in triple)):
                        inside = sum(x in s for (_adj, s), x in zip(parts, attach))
                        if inside >= 2:
                            add(*_join(parts, attach))
    return level


def enumerate_tmin(n: int) -> list[str]:
    """Canonical codes of all minimum-family trees on n vertices."""
    if n < 2:
        raise ValueError("family starts at n = 2")
    return sorted({_code(adj) for adj, _s in _tmin_level(n).values()})


def tmin_representatives(n: int) -> list[tuple[Graph, DetectorSet]]:
    """One (tree, optimal set) pair per colored isomorphism class."""
    if n < 2:
        raise ValueError("family starts at n = 2")
    return [(Graph(len(adj), [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v]),
             DetectorSet(s))
            for adj, s in _tmin_level(n).values()]


# ---------------------------------------------------------------------------
# Random trees for property sweeps.


def prufer_decode(seq: Sequence[int]) -> Graph:
    n = len(seq) + 2
    deg = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise ValueError("sequence entry out of range")
        deg[x] += 1
    edges = []
    heap = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(heap)
    for x in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(heap, x)
    a = heapq.heappop(heap)
    b = heapq.heappop(heap)
    edges.append((a, b))
    return Graph(n, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return build_path(2)
    return prufer_decode([rng.randrange(n) for _ in range(n - 2)])
