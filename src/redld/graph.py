"""Finite simple graphs with dense 0..n-1 vertex ids, plus the standard builders.

Vertices are integers; adjacency is stored as sorted tuples so that equal
graphs compare equal and every traversal is deterministic. Builders attach
human-readable labels (``v_1``-style) used by the CLI when printing witnesses.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from . import _kernels


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "labels", "_ctx")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], labels: Sequence[str] | None = None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if v in nbrs[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in nbrs)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("label count must equal n")
        self.labels: tuple[str, ...] | None = labels
        self._ctx = None

    @classmethod
    def _from_adj(cls, adj: tuple[tuple[int, ...], ...],
                  labels: tuple[str, ...] | None = None) -> "Graph":
        """The graph with these adjacency rows, taken as they are.

        No check is made: the caller guarantees that `adj` is a tuple with
        one row per vertex, each row a sorted tuple of neighbours in range,
        with no loop and no repeat, that u is in adj[v] exactly when v is in
        adj[u], and that `labels` is None or a tuple of len(adj) strings.
        Input from outside goes through `Graph(n, edges)`, which checks it.
        """
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = adj
        g.labels = labels
        g._ctx = None
        return g

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def kernel_ctx(self):
        """The kernel context of this graph, built on first use and kept.

        The graph is immutable and a context is read-only to the kernel, so
        one context serves every later call, from any thread.
        """
        if self._ctx is None:
            self._ctx = _kernels.make_ctx(self.adj)
        return self._ctx

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def open_neighborhood(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def closed_neighborhood(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self.adj[v] + (v,)))

    def min_degree(self) -> int:
        return min(len(a) for a in self.adj)

    def max_degree(self) -> int:
        return max(len(a) for a in self.adj)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def connected_components(self) -> list[list[int]]:
        """Components as sorted vertex lists, ordered by smallest member."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1

    def is_tree(self) -> bool:
        return self.edge_count() == self.n - 1 and self.is_connected()

    def induced_subgraph(self, vertices: Sequence[int]) -> tuple["Graph", dict[int, int]]:
        """Subgraph on the given vertices, relabeled to 0..k-1 in sorted order.

        Returns the subgraph and the old->new index map. Labels carry over.
        Given every vertex, it returns the graph itself, which is immutable,
        with the identity map.
        """
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        if len(vs) == self.n and vs[0] == 0 and vs[-1] == self.n - 1:
            return self, index
        edges = [(index[u], index[v]) for u in vs for v in self.adj[u] if u < v and v in index]
        labels = tuple(self.label(v) for v in vs) if self.labels is not None else None
        return Graph(len(vs), edges, labels), index


def build_path(n: int) -> Graph:
    """Path v_1 - v_2 - ... - v_n."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)], [f"v_{i+1}" for i in range(n)])


def build_cycle(n: int) -> Graph:
    """Cycle v_1 - ... - v_n - v_1 (n >= 3)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], [f"v_{i+1}" for i in range(n)])


def build_ladder(k: int) -> Graph:
    """Ladder P_k x P_2: two rails a_1..a_k and b_1..b_k joined by rungs.

    Vertex 2*i is a_{i+1}, vertex 2*i+1 is b_{i+1}.
    """
    if k < 1:
        raise ValueError("ladder needs k >= 1")
    edges = []
    for i in range(k):
        edges.append((2 * i, 2 * i + 1))
        if i + 1 < k:
            edges.append((2 * i, 2 * i + 2))
            edges.append((2 * i + 1, 2 * i + 3))
    labels = []
    for i in range(k):
        labels += [f"a_{i+1}", f"b_{i+1}"]
    return Graph(2 * k, edges, labels)


def build_hypercube(d: int) -> Graph:
    """d-dimensional hypercube Q_d; vertex i is the bitstring of i."""
    if d < 1:
        raise ValueError("hypercube needs d >= 1")
    n = 1 << d
    edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(d) if u < (u ^ (1 << b))]
    return Graph(n, edges, [format(u, f"0{d}b") for u in range(n)])


def build_kary_tree(k: int, depth: int) -> Graph:
    """Complete k-ary tree: every internal vertex has k children, leaves at `depth`.

    Vertices are numbered in breadth-first order starting from the root (0),
    so the vertices at depth t occupy one contiguous block.
    """
    if k < 2:
        raise ValueError("k-ary tree needs k >= 2")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = (k ** (depth + 1) - 1) // (k - 1)
    edges = []
    labels = ["r"]
    next_id = 1
    level = [0]
    for t in range(1, depth + 1):
        new_level = []
        for parent in level:
            for c in range(k):
                edges.append((parent, next_id))
                labels.append(f"d{t}_{next_id}")
                new_level.append(next_id)
                next_id += 1
        level = new_level
    assert next_id == n
    return Graph(n, edges, labels)


def kary_depth_blocks(k: int, depth: int) -> list[range]:
    """Vertex id ranges per depth for build_kary_tree's breadth-first layout."""
    blocks = []
    start = 0
    for t in range(depth + 1):
        width = k ** t
        blocks.append(range(start, start + width))
        start += width
    return blocks


def build_petersen() -> Graph:
    """Petersen graph: outer cycle v_1..v_5, inner pentagram v_6..v_10.

    v_i is adjacent to v_{i+5}; inner vertices join at step 2.
    """
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((i, i + 5))                # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # pentagram
    return Graph(10, edges, [f"v_{i+1}" for i in range(10)])


def build_complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; parts occupy consecutive vertex ranges."""
    if not part_sizes or any(s < 1 for s in part_sizes):
        raise ValueError("part sizes must be positive")
    bounds = []
    start = 0
    for s in part_sizes:
        bounds.append(range(start, start + s))
        start += s
    edges = []
    for pa, pb in combinations(bounds, 2):
        edges += [(u, v) for u in pa for v in pb]
    labels = [f"p{pi+1}_{j+1}" for pi, part in enumerate(bounds) for j, _ in enumerate(part)]
    return Graph(start, edges, labels)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: first line n, then one "u v" pair per line.

    Vertices are 0-indexed; blank lines and '#' comments are ignored.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ValueError("empty graph file")
    try:
        n = int(rows[0])
    except ValueError:
        raise ValueError(f"bad vertex count line: {rows[0]!r}") from None
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad edge line: {line!r}") from None
        edges.append((u, v))
    return Graph(n, edges)


def render_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list (labels are emitted as comments)."""
    out = [str(g.n)]
    if g.labels is not None:
        out += [f"# {v} = {g.labels[v]}" for v in range(g.n)]
    out += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(out) + "\n"
