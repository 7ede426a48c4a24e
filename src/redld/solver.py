"""Exact minimum LD / RED:LD solving: brute force and branch and bound.

The optimum is computed per connected component (validity decomposes across
components once every vertex is 2-dominated), and the reported witness is the
lexicographically smallest optimal set, obtained by fixing vertices in
ascending order and keeping each one exactly when an optimal solution through
the current prefix still exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import _kernels as K
from .graph import Graph
from .trees import tree_lower_bound
from .verify import DetectorSet, find_twins


@dataclass(frozen=True)
class SolveBudget:
    """Limits for one solve; None means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass
class SolveResult:
    optimum: int | None
    witness: DetectorSet | None
    infeasible: bool
    nodes: int


class BudgetExceededError(RuntimeError):
    """Search ended by budget; carries any certified upper bound found."""

    def __init__(self, nodes: int, upper_bound: int | None):
        super().__init__(f"budget exceeded after {nodes} search nodes")
        self.nodes = nodes
        self.upper_bound = upper_bound


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


def _mask_to_vertices(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


class _BudgetClock:
    def __init__(self, budget: SolveBudget | None):
        budget = budget or SolveBudget()
        self.remaining = budget.max_nodes
        self.deadline = time.monotonic() + budget.max_seconds if budget.max_seconds else 0.0
        self.used = 0

    def node_arg(self) -> int:
        if self.remaining is None:
            return 0
        if self.remaining <= 0:
            raise BudgetExceededError(self.used, None)
        return self.remaining

    def spend(self, nodes: int) -> None:
        self.used += nodes
        if self.remaining is not None:
            self.remaining -= nodes


def _component_lower_bound(g: Graph, mode: int) -> int:
    if mode == K.MODE_REDLD:
        lb = -(-2 * g.n // (g.max_degree() + 1))
        if g.is_tree():
            lb = max(lb, tree_lower_bound(g.n))
        return lb
    return 0


def _solve_mode(g: Graph, mode: int, budget: SolveBudget | None) -> SolveResult:
    if mode == K.MODE_REDLD and not redld_exists(g):
        return SolveResult(None, None, True, 0)
    clock = _BudgetClock(budget)
    witness: list[int] = []
    total = 0
    for comp in g.connected_components():
        sub, index = g.induced_subgraph(comp)
        back = {i: v for v, i in index.items()}
        ctx = sub.kernel_ctx()
        forced = 0
        if mode == K.MODE_REDLD:
            for v in forced_detectors(sub):
                forced |= 1 << v
        status, value, mask, nodes = K.bnb(
            ctx, mode, forced, 0, sub.n, _component_lower_bound(sub, mode),
            clock.node_arg(), clock.deadline)
        clock.spend(nodes)
        if status == 2:
            raise BudgetExceededError(clock.used, None)
        assert status == 0, "every graph admits S = V in both modes"
        opt = value
        in_m, out_m = forced, 0
        for i in range(sub.n):
            if in_m >> i & 1:
                continue
            status, _, _, nodes = K.bnb(
                ctx, mode, in_m | (1 << i), out_m, opt, opt,
                clock.node_arg(), clock.deadline)
            clock.spend(nodes)
            if status == 2:
                raise BudgetExceededError(clock.used, None)
            if status == 0:
                in_m |= 1 << i
            else:
                out_m |= 1 << i
        assert in_m.bit_count() == opt
        witness.extend(back[i] for i in _mask_to_vertices(in_m))
        total += opt
    return SolveResult(total, DetectorSet(witness), False, clock.used)


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
    return SolveResult(size, DetectorSet(_mask_to_vertices(mask)), False, 0)


def brute_force_min_redld(g: Graph) -> SolveResult:
    """Reference solver: subsets by cardinality then lex order, removal definition."""
    return _brute_force(g, K.MODE_REDLD_DEF)


def brute_force_min_ld(g: Graph) -> SolveResult:
    """Reference LD solver, same enumeration order."""
    return _brute_force(g, K.MODE_LD)


def upper_bound_redld(g: Graph, budget: SolveBudget) -> tuple[int | None, DetectorSet | None, int]:
    """Best RED:LD set found within the budget (no optimality claim).

    Returns (size, witness, nodes); (None, None, nodes) when nothing was found.
    """
    if not redld_exists(g):
        return None, None, 0
    clock = _BudgetClock(budget)
    ctx = g.kernel_ctx()
    forced = sum(1 << v for v in forced_detectors(g))
    status, value, mask, nodes = K.bnb(
        ctx, K.MODE_REDLD, forced, 0, g.n, _component_lower_bound(g, K.MODE_REDLD),
        clock.node_arg(), clock.deadline)
    clock.spend(nodes)
    if status == 0 or (status == 2 and value >= 0):
        return value, DetectorSet(_mask_to_vertices(mask)), clock.used
    return None, None, clock.used
