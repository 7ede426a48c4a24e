"""3-SAT to minimum-detector-set reduction.

Every variable i gets a 12-vertex gadget whose 8 forced detectors leave
free vertices x_i, xbar_i, y_i, z_i; any valid set must pick at least one
of {x_i, xbar_i} to finish 2-dominating y_i and z_i, and picking exactly
one is enough.  Every clause j gets a forced 2-path plus a vertex c_j that
still needs one dominator among its three literal neighbors.  The formula
is satisfiable exactly when 9N + 2M detectors suffice.

Gadget adjacency (offsets within a variable block, forced first)::

    0 a   1 a'   2 b   3 b'   4 c   5 c'   6 d   7 d'
    8 x   9 xbar 10 y  11 z
    edges: a-a', b-b', c-c', d-d', y-a, z-b, x-c, xbar-d,
           y-x, y-xbar, z-x, z-xbar, x-xbar

Clause block (offsets): 0 d1, 1 d2, 2 c; edges d1-d2, d2-c, plus one edge
from c to each literal vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import _kernels as kern
from .graph import Graph
from .solver import SolveBudget, _BudgetClock
from .verify import DetectorSet, _members

_GADGET_EDGES = [
    (0, 1), (2, 3), (4, 5), (6, 7),
    (10, 0), (11, 2), (8, 4), (9, 6),
    (10, 8), (10, 9), (11, 8), (11, 9),
    (8, 9),
]
_GADGET_NAMES = ["a", "a'", "b", "b'", "c", "c'", "d", "d'", "x", "xbar", "y", "z"]
# The sorted neighbour offsets of each gadget vertex.
_GADGET_ROWS = tuple(tuple(sorted(u + v - a for u, v in _GADGET_EDGES if a in (u, v)))
                     for a in range(12))

OFF_X, OFF_XBAR, OFF_Y, OFF_Z = 8, 9, 10, 11


@dataclass(frozen=True)
class SatInstance:
    n_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if type(self.n_vars) is not int:  # bools too
            raise TypeError(f"n_vars must be an int, got {self.n_vars!r}")
        if self.n_vars < 1:
            raise ValueError("need at least one variable")
        for cl in self.clauses:
            if len(cl) != 3:
                raise ValueError(f"clause {cl} does not have 3 literals")
            if set(map(type, cl)) != {int}:  # bools too
                raise TypeError(f"clause {cl} holds a literal that is not an int")
            variables = set(map(abs, cl))
            if 0 in variables or max(variables) > self.n_vars:
                raise ValueError(f"literal out of range in clause {cl}")
            if len(variables) != 3:
                raise ValueError(f"repeated variable in clause {cl}")


def parse_dimacs_cnf(text: str) -> SatInstance:
    """Parse DIMACS CNF; every clause must hold 3 distinct variables."""
    header: Optional[tuple[int, int]] = None
    literals: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("%"):  # SATLIB's end of clause data
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed header: {line!r}")
            header = (int(parts[2]), int(parts[3]))
            continue
        if header is None:
            raise ValueError("clause data before header")
        literals.extend(int(tok) for tok in line.split())
    if header is None:
        raise ValueError("missing 'p cnf' header")
    n_vars, n_clauses = header
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    for lit in literals:
        if lit == 0:
            if len(current) != 3:
                raise ValueError(f"clause {current} does not have 3 literals")
            clauses.append(tuple(current))
            current = []
        else:
            current.append(lit)
    if current:
        raise ValueError("unterminated clause")
    if len(clauses) != n_clauses:
        raise ValueError(f"header promises {n_clauses} clauses, found {len(clauses)}")
    return SatInstance(n_vars, tuple(clauses))


@dataclass(frozen=True)
class ReductionArtifact:
    instance: SatInstance
    graph: Graph
    k: int
    forced: DetectorSet
    var_true: dict[int, int]
    var_false: dict[int, int]
    clause_vertex: dict[int, int]


def _wiring(phi: SatInstance) -> tuple[list[list[int]], int, int]:
    """The reduction's sorted adjacency rows, its forced mask and K."""
    n = phi.n_vars
    rows: list[list[int]] = []
    forced = 0
    for i in range(n):
        base = 12 * i
        rows.extend([base + off for off in row] for row in _GADGET_ROWS)
        forced |= 0xFF << base
    for j, clause in enumerate(phi.clauses):
        base = 12 * n + 3 * j
        d1, d2, cj = base, base + 1, base + 2
        # The literals are of distinct variables and below every clause
        # vertex, and clauses come in vertex order: appending c_j keeps each
        # literal's row sorted, and d2 ends c_j's row.
        lits = sorted(12 * (abs(lit) - 1) + (OFF_X if lit > 0 else OFF_XBAR) for lit in clause)
        for v in lits:
            rows[v].append(cj)
        rows.extend([[d2], [d1, cj], [*lits, d2]])
        forced |= 3 << base
    return rows, forced, 9 * n + 2 * len(phi.clauses)


def build_reduction(phi: SatInstance) -> ReductionArtifact:
    """Build the reduction graph: 12N+3M vertices, 13N+5M edges, K=9N+2M."""
    n, m = phi.n_vars, len(phi.clauses)
    rows, forced, k = _wiring(phi)
    labels = [f"{name}_{i}" for i in range(1, n + 1) for name in _GADGET_NAMES]
    labels += [f"{name}_{j}" for j in range(1, m + 1) for name in ("d1", "d2", "c")]
    g = Graph._from_adj(tuple(map(tuple, rows)), tuple(labels))
    assert g.edge_count() == 13 * n + 5 * m
    vs = range(1, n + 1)
    return ReductionArtifact(
        phi, g, k, DetectorSet(_members(forced)),
        {i: 12 * (i - 1) + OFF_X for i in vs}, {i: 12 * (i - 1) + OFF_XBAR for i in vs},
        {j: 12 * n + 3 * j - 1 for j in range(1, m + 1)})


def assignment_to_detectors(art: ReductionArtifact, assignment: dict[int, bool]) -> DetectorSet:
    """Detector set of size K realizing a (total) truth assignment."""
    members = set(art.forced)
    for i in range(1, art.instance.n_vars + 1):
        members.add(art.var_true[i] if assignment[i] else art.var_false[i])
    return DetectorSet(members)


def extract_assignment(art: ReductionArtifact, s) -> dict[int, bool]:
    """Read a truth assignment off an optimal detector set: i is true iff
    vertex x_i is a detector."""
    members = set(s)
    if len(members) != art.k:
        raise ValueError(f"expected a set of size {art.k}, got {len(members)}")
    return {i: art.var_true[i] in members for i in range(1, art.instance.n_vars + 1)}


def decide_via_redld(
    phi: SatInstance, budget: Optional[SolveBudget] = None
) -> tuple[bool, Optional[dict[int, bool]]]:
    """Satisfiability via detector-set feasibility at cap K on the reduction."""
    rows, forced, k = _wiring(phi)
    mask = _BudgetClock(budget).find(kern.make_ctx(rows), kern.MODE_REDLD, forced, 0, k)
    if mask is None:
        return False, None
    if mask.bit_count() != k:
        raise ValueError(f"expected a set of size {k}, got {mask.bit_count()}")
    return True, {i: bool(mask >> (12 * (i - 1) + OFF_X) & 1) for i in range(1, phi.n_vars + 1)}


def render_roles(art: ReductionArtifact) -> str:
    """One "vertex role" line per vertex, the reduction's sidecar format:
    a vertex's role is its label, except that a forced vertex is an
    internal detector of a variable gadget (F) or of a clause (H)."""
    gadgets = 12 * art.instance.n_vars

    def role(v: int) -> str:
        if v in art.forced:
            return ("F" if v < gadgets else "H") + "-internal-detector"
        return art.graph.labels[v]

    return "\n".join(f"{v} {role(v)}" for v in range(art.graph.n)) + "\n"
