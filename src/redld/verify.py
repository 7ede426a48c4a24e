"""Verification of locating-dominating and redundant locating-dominating sets.

A detector set S is LD when every non-detector has a detector neighbor and no
two non-detectors see the same detector neighborhood. S is RED:LD when it
stays LD after removing any one detector; equivalently (the three-condition
characterization):

  (i)   every vertex v has |N[v] ∩ S| >= 2,
  (ii)  for every detector v and non-detector u,
        |((N(v) ∩ S) △ (N(u) ∩ S)) − {v}| >= 1,
  (iii) for every two non-detectors u, v, |(N(u) ∩ S) △ (N(v) ∩ S)| >= 2.

Verdicts come from the kernel (`redld._kernels`); reports list every
violation on demand, each tagged with a condition id and a witness tuple.
All arithmetic is exact (fractions.Fraction for shares).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable

from . import _kernels as K
from .graph import Graph

# condition ids
DOM2 = "DOM2"                          # |N[v] ∩ S| >= 2 for every vertex
DET_NONDET_1DIST = "DET_NONDET_1DIST"  # condition (ii)
NONDET_PAIR_2DIST = "NONDET_PAIR_2DIST"  # condition (iii)
LD_DOM1 = "LD_DOM1"                    # non-detector with no detector neighbor
LD_PAIR_1DIST = "LD_PAIR_1DIST"        # two non-detectors with equal traces
EXISTENCE = "EXISTENCE"                # isolated vertex: no RED:LD set exists

ShareValue = Fraction


class DetectorSet:
    """An immutable vertex set; iterates in ascending order."""

    __slots__ = ("members", "_set")

    def __init__(self, members: Iterable[int]):
        self.members: tuple[int, ...] = tuple(sorted(set(members)))
        self._set = frozenset(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, v: int) -> bool:
        return v in self._set

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DetectorSet):
            return self.members == other.members
        if isinstance(other, (set, frozenset, tuple, list)):
            return self._set == set(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"DetectorSet({list(self.members)})"

    def mask(self) -> int:
        return sum(1 << v for v in self.members)


Violation = tuple[str, tuple[int, ...]]


class VerificationReport(K.Report):
    """Outcome of one verification: mode, verdict, and all violations.

    A check is two kernel calls: `mask_of` builds and range-checks the mask,
    then `report` judges it and makes this report, filling the fields of the
    kernel's Report type, whose `mode`, `ok`, graph and mask are read-only;
    constructing one, `VerificationReport(mode, ok, g, mask)`, fills them the
    same way.  The violations are listed by the set-based lister of the
    mode, looked up on first access to `violations` and kept in the type's
    `_violations` slot, and only when the verdict fails; an ok report has
    none and runs no lister.

    Violation witnesses: (v,) for domination/existence conditions, (u, v) for
    pair conditions. For the removal-definition check the witness is prefixed
    with the removed detector, so (r, v) and (r, u, v) name violations of the
    LD conditions on S − {r}.
    """

    __slots__ = ()

    @property
    def violations(self) -> list[Violation]:
        if self.ok:
            return []
        if self._violations is None:
            lister = {"ld": _ld_violations, "redld": _redld_violations,
                      "redld-def": _redld_def_violations}[self.mode]
            self._violations = lister(self._g, _members(self._mask))
        return self._violations

    def __repr__(self) -> str:
        return f"VerificationReport(mode={self.mode!r}, ok={self.ok})"

    def render(self) -> str:
        lines = [f"mode={self.mode} ok={str(self.ok).lower()}"]
        for cond, wit in self.violations:
            lines.append(f"violation {cond} {' '.join(str(v) for v in wit)}")
        return "\n".join(lines) + "\n"


def _as_set(s: Iterable[int]) -> frozenset[int]:
    return s._set if isinstance(s, DetectorSet) else frozenset(s)


def domination_count(g: Graph, s: Iterable[int], v: int) -> int:
    """dom(v) = |N[v] ∩ S|."""
    ss = _as_set(s)
    K.mask_of(g.n, ss)
    return sum(1 for w in g.closed_neighborhood(v) if w in ss)


def distinguishing_degree(g: Graph, s: Iterable[int], u: int, v: int) -> int:
    """|((N(u) ∩ S) △ (N(v) ∩ S)) − {u, v}|: how well S tells u and v apart."""
    ss = _as_set(s)
    K.mask_of(g.n, ss)
    tu = set(g.open_neighborhood(u)) & ss
    tv = set(g.open_neighborhood(v)) & ss
    return len((tu ^ tv) - {u, v})


def _trace(g: Graph, s: frozenset[int], v: int) -> frozenset[int]:
    return frozenset(w for w in g.adj[v] if w in s)


def _members(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


# The checks below take any iterable of vertex ids (numpy ints too): the
# kernel's mask_of reads it once and range-checks each one before its shift,
# so a bad detector raises before the graph's context is built.


def is_ld_set(g: Graph, s: Iterable[int]) -> VerificationReport:
    """LD check: domination of non-detectors plus pairwise distinct traces."""
    mask = K.mask_of(g.n, s)
    return K.report(VerificationReport, g.kernel_ctx(), K.MODE_LD, g, mask)


def is_redld_set(g: Graph, s: Iterable[int]) -> VerificationReport:
    """RED:LD check through the three-condition characterization."""
    mask = K.mask_of(g.n, s)
    return K.report(VerificationReport, g.kernel_ctx(), K.MODE_REDLD, g, mask)


def is_redld_by_definition(g: Graph, s: Iterable[int]) -> VerificationReport:
    """RED:LD check straight from the definition: S and every S − {v} are LD."""
    mask = K.mask_of(g.n, s)
    return K.report(VerificationReport, g.kernel_ctx(), K.MODE_REDLD_DEF, g, mask)


# The set-based listers below name every violation of a failed check.  They
# are also an oracle independent of the kernel: tests check that each one
# returns no violation exactly when the kernel's verdict is ok.


def _ld_violations(g: Graph, ss: frozenset[int]) -> list[Violation]:
    violations: list[Violation] = []
    non = [v for v in range(g.n) if v not in ss]
    traces = {v: _trace(g, ss, v) for v in non}
    for v in non:
        if not traces[v]:
            violations.append((LD_DOM1, (v,)))
    for u, v in combinations(non, 2):
        if traces[u] == traces[v]:
            violations.append((LD_PAIR_1DIST, (u, v)))
    return violations


def _redld_violations(g: Graph, ss: frozenset[int]) -> list[Violation]:
    violations: list[Violation] = []
    for v in range(g.n):
        if g.degree(v) == 0:
            violations.append((EXISTENCE, (v,)))
    traces = {v: _trace(g, ss, v) for v in range(g.n)}
    for v in range(g.n):
        if len(traces[v]) + (v in ss) < 2:  # |N[v] ∩ S|
            violations.append((DOM2, (v,)))
    non = [v for v in range(g.n) if v not in ss]
    for u, v in combinations(non, 2):
        if len(traces[u] ^ traces[v]) < 2:
            violations.append((NONDET_PAIR_2DIST, (u, v)))
    for v in sorted(ss):
        for u in non:
            if not (traces[v] ^ traces[u]) - {v}:
                violations.append((DET_NONDET_1DIST, (v, u)))
    return violations


def _redld_def_violations(g: Graph, ss: frozenset[int]) -> list[Violation]:
    violations: list[Violation] = []
    for v in range(g.n):
        if g.degree(v) == 0:
            violations.append((EXISTENCE, (v,)))
    violations.extend(_ld_violations(g, ss))
    for r in sorted(ss):
        violations.extend((cond, (r, *wit)) for cond, wit in _ld_violations(g, ss - {r}))
    return violations


def share(g: Graph, s: Iterable[int], x: int) -> Fraction:
    """sh(x) = sum over w in N[x] of 1/dom(w), as an exact rational.

    Requires every vertex of N[x] to be dominated; summed over a detector set
    covering the whole graph, shares add up to n.
    """
    ss = _as_set(s)
    K.mask_of(g.n, ss)
    total = Fraction(0)
    for w in g.closed_neighborhood(x):
        d = (w in ss) + sum(u in ss for u in g.adj[w])
        if d == 0:
            raise ValueError(f"share undefined: vertex {w} is undominated")
        total += Fraction(1, d)
    return total


def find_twins(g: Graph) -> list[tuple[int, int]]:
    """All pairs with equal open neighborhoods or equal closed neighborhoods,
    in ascending order: the vertices are grouped by each of the two rows,
    and every two vertices of a group make a pair."""
    by_open: dict[tuple[int, ...], list[int]] = {}
    by_closed: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.n):
        by_open.setdefault(g.adj[v], []).append(v)
        by_closed.setdefault(g.closed_neighborhood(v), []).append(v)
    # two vertices with equal open rows are not adjacent, and two with
    # equal closed rows are, so no pair comes from both groupings
    return sorted(pair for groups in (by_open, by_closed) for vs in groups.values()
                  for pair in combinations(vs, 2))
