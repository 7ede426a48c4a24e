"""Exact minimum LD / RED:LD solving: brute force and branch and bound.

The optimum is computed per connected component (validity decomposes across
components once every vertex is 2-dominated), and the reported witness is the
lexicographically smallest optimal set, obtained by fixing vertices in
ascending order and keeping each one exactly when an optimal solution through
the current prefix still exists.

Optimum phase.  Both modes climb a ladder of decision calls: for c = the
mode's root lower bound (for RED:LD at least the number of forced
detectors), c + 1, ..., one search for a set of at most c vertices, which
stops at the first set it finds, until one finds a set.  A top-down search
(cap n, stop at the bound) can sink into a subtree whose sets are all too
large: on Q_6 RED:LD it was still at 24 after 200M nodes, while the ladder
refutes 19 and finds 20 in about 10M.

Witness phase.  `found` is the last set a search found, first the optimum
phase's.  Every step keeps in_m <= found, found disjoint from out_m and
|found| = opt, so when vertex i is in `found` the search for an optimal set
through in_m + i would answer yes: i is fixed in with no search.  Otherwise a
search decides i, and a set it finds becomes `found`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from numbers import Real

from . import _kernels as K
from .graph import Graph
from .trees import tree_lower_bound
from .verify import DetectorSet, _members, find_twins


@dataclass(frozen=True)
class SolveBudget:
    """Limits for one solve; None means unlimited, and 0 stops before the
    first search."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        for name, kind, what in (("max_nodes", int, "an int"),
                                 ("max_seconds", Real, "a number")):
            limit = getattr(self, name)
            if limit is None:
                continue
            # a bool is an int, but True is no budget
            if isinstance(limit, bool) or not isinstance(limit, kind):
                raise ValueError(f"{name} must be {what}, got {limit!r}")
            if not limit >= 0:  # NaN fails too
                raise ValueError(f"{name} must be a number >= 0, got {limit}")


@dataclass
class SolveResult:
    """`nodes` is the total over both phases; `optimum_*` and `witness_*`
    split the search nodes and kernel calls by phase."""

    optimum: int | None
    witness: DetectorSet | None
    infeasible: bool
    nodes: int
    optimum_nodes: int = 0
    witness_nodes: int = 0
    optimum_calls: int = 0
    witness_calls: int = 0


class BudgetExceededError(RuntimeError):
    """Search ended by budget; carries the search nodes used."""

    def __init__(self, nodes: int):
        super().__init__(f"budget exceeded after {nodes} search nodes")
        self.nodes = nodes


def redld_exists(g: Graph) -> bool:
    """A RED:LD set exists iff the graph has no isolated vertex."""
    return g.min_degree() >= 1


def forced_detectors(g: Graph) -> DetectorSet:
    """Vertices contained in every RED:LD set: leaf closed neighborhoods and twins."""
    forced: set[int] = set()
    for v in range(g.n):
        if g.degree(v) == 1:
            forced.update(g.closed_neighborhood(v))
    for u, v in find_twins(g):
        forced.update((u, v))
    return DetectorSet(forced)


class _BudgetClock:
    """One solve's budget, spent across the kernel searches it makes."""

    def __init__(self, budget: SolveBudget | None):
        budget = budget or SolveBudget()
        self.nodes_left = budget.max_nodes
        self.deadline = (None if budget.max_seconds is None
                         else time.monotonic() + budget.max_seconds)
        self.used = 0
        self.calls = 0

    def find(self, ctx, mode: int, forced_in: int, forced_out: int,
             size: int) -> int | None:
        """The mask of a valid set of at most `size` vertices that holds
        forced_in and avoids forced_out, found by the kernel's bnb within the
        nodes and seconds left, or None when there is none.  Raises
        BudgetExceededError, with the nodes used so far, before the call
        once either is spent, and after a call that the budget stopped."""
        seconds_left = 0.0 if self.deadline is None else self.deadline - time.monotonic()
        if ((self.nodes_left is not None and self.nodes_left <= 0)
                or (self.deadline is not None and seconds_left <= 0)):  # 0 would mean no limit
            raise BudgetExceededError(self.used)
        # the kernels count nodes in a signed 64-bit int
        status, _, mask, nodes = K.bnb(ctx, mode, forced_in, forced_out, size, size,
                                       min(self.nodes_left or 0, 2**63 - 1), seconds_left)
        self.used += nodes
        self.calls += 1
        if self.nodes_left is not None:
            self.nodes_left -= nodes
        if status == 2:
            raise BudgetExceededError(self.used)
        return mask if status == 0 else None


def _redld_lower_bound(g: Graph) -> int:
    """Each detector 2-dominates at most maxdeg + 1 of the 2n units needed;
    trees have the paper's bound."""
    lb = -(-2 * g.n // (g.max_degree() + 1))
    if g.is_tree():
        lb = max(lb, tree_lower_bound(g.n))
    return lb


def _ld_lower_bound(g: Graph) -> int:
    """The classic ceil(2n / (maxdeg + 3)): each of the n - k vertices out of
    a k-set needs a distinct nonempty trace, at most k of them singletons,
    and the traces' sizes sum to at most k * maxdeg."""
    return -(-2 * g.n // (g.max_degree() + 3))


def _solve_mode(g: Graph, mode: int, budget: SolveBudget | None) -> SolveResult:
    if mode == K.MODE_REDLD and not redld_exists(g):
        return SolveResult(None, None, True, 0)
    clock = _BudgetClock(budget)
    witness: list[int] = []
    total = opt_nodes = opt_calls = 0
    for comp in g.connected_components():
        sub, _ = g.induced_subgraph(comp)  # vertex i of sub is comp[i]
        ctx = sub.kernel_ctx()
        if mode == K.MODE_REDLD:
            forced = forced_detectors(sub).mask()
            opt = max(_redld_lower_bound(sub), forced.bit_count())
        else:
            forced, opt = 0, _ld_lower_bound(sub)
        nodes, calls = clock.used, clock.calls
        while (found := clock.find(ctx, mode, forced, 0, opt)) is None:
            opt += 1
        opt_nodes += clock.used - nodes
        opt_calls += clock.calls - calls
        in_m, out_m = forced, 0
        for i in range(sub.n):
            bit = 1 << i
            if found & bit:  # in_m <= found
                in_m |= bit
                continue
            mask = clock.find(ctx, mode, in_m | bit, out_m, opt)
            if mask is None:
                out_m |= bit
            else:
                in_m |= bit
                found = mask
        assert in_m == found and in_m.bit_count() == opt
        witness.extend(comp[i] for i in _members(in_m))
        total += opt
    return SolveResult(total, DetectorSet(witness), False, clock.used,
                       opt_nodes, clock.used - opt_nodes, opt_calls, clock.calls - opt_calls)


def min_redld(g: Graph, budget: SolveBudget | None = None) -> SolveResult:
    """Minimum RED:LD set; infeasible exactly when the graph has an isolated vertex."""
    return _solve_mode(g, K.MODE_REDLD, budget)


def min_ld(g: Graph, budget: SolveBudget | None = None) -> SolveResult:
    """Minimum LD set (always feasible: S = V works)."""
    return _solve_mode(g, K.MODE_LD, budget)


def _brute_force(g: Graph, mode: int) -> SolveResult:
    if g.n > 24:
        raise ValueError("brute force is capped at 24 vertices")
    if mode != K.MODE_LD and not redld_exists(g):
        return SolveResult(None, None, True, 0)
    size, mask = K.brute_force_min(g.kernel_ctx(), mode)
    assert size >= 0
    return SolveResult(size, DetectorSet(_members(mask)), False, 0)


def brute_force_min_redld(g: Graph) -> SolveResult:
    """Reference solver: subsets by cardinality then lex order, removal definition."""
    return _brute_force(g, K.MODE_REDLD_DEF)


def brute_force_min_ld(g: Graph) -> SolveResult:
    """Reference LD solver, same enumeration order."""
    return _brute_force(g, K.MODE_LD)

