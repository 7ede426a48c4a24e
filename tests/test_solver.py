import random
import time
from itertools import combinations

import pytest

from redld._kernels import MODE_REDLD
from redld.graph import Graph, build_cycle, build_hypercube, build_path, build_petersen
from redld.solver import (
    BudgetExceededError,
    SolveBudget,
    _BudgetClock,
    brute_force_min_ld,
    brute_force_min_redld,
    forced_detectors,
    min_ld,
    min_redld,
    redld_exists,
)
from redld.verify import is_ld_set, is_redld_set


def random_graph(n, p, rng, allow_isolated=False):
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    g = Graph(n, edges)
    if not allow_isolated:
        for v in range(n):
            if g.degree(v) == 0:
                edges.append((v, (v + 1) % n))
                g = Graph(n, edges)
    return g


def test_existence():
    assert redld_exists(build_path(2))
    assert not redld_exists(Graph(1, []))
    assert not redld_exists(Graph(3, [(0, 1)]))


def test_infeasible_result():
    g = Graph(3, [(0, 1)])
    for solve in (min_redld, brute_force_min_redld):
        res = solve(g)
        assert res.infeasible
        assert res.optimum is None and res.witness is None
    # LD stays feasible: isolated vertices simply join the set
    res = min_ld(g)
    assert res.optimum == 2 and not res.infeasible
    assert is_ld_set(g, res.witness).ok


def test_known_optima():
    assert min_redld(build_path(2)).optimum == 2
    assert min_redld(build_path(7)).optimum == 6
    assert min_redld(build_cycle(6)).optimum == 4
    assert min_redld(build_petersen()).optimum == 6
    assert min_ld(build_petersen()).optimum == 4


def test_bnb_matches_brute_force():
    # same optimum and, because both tie-break lexicographically, same witness
    rng = random.Random(21)
    for _ in range(30):
        g = random_graph(rng.randint(2, 9), rng.uniform(0.2, 0.7), rng)
        fast, slow = min_redld(g), brute_force_min_redld(g)
        assert fast.optimum == slow.optimum
        assert tuple(fast.witness) == tuple(slow.witness)
        assert is_redld_set(g, fast.witness).ok
        fast, slow = min_ld(g), brute_force_min_ld(g)
        assert fast.optimum == slow.optimum
        assert tuple(fast.witness) == tuple(slow.witness)


def test_witness_is_lex_min():
    rng = random.Random(22)
    for _ in range(12):
        g = random_graph(rng.randint(3, 7), 0.5, rng)
        res = min_redld(g)
        best = next(s for k in range(g.n + 1)
                    for s in combinations(range(g.n), k)
                    if is_redld_set(g, s).ok)
        assert tuple(res.witness) == best


def test_deterministic_reruns():
    g = random_graph(12, 0.3, random.Random(23))
    first = min_redld(g)
    again = min_redld(g)
    assert first.optimum == again.optimum
    assert tuple(first.witness) == tuple(again.witness)
    assert first.nodes == again.nodes


def test_redld_needs_one_more_than_ld():
    rng = random.Random(24)
    for _ in range(25):
        g = random_graph(rng.randint(2, 10), rng.uniform(0.25, 0.7), rng)
        assert min_redld(g).optimum >= min_ld(g).optimum + 1


def test_forced_detectors_in_witness():
    rng = random.Random(25)
    for _ in range(25):
        g = random_graph(rng.randint(3, 10), rng.uniform(0.2, 0.6), rng)
        forced = set(forced_detectors(g))
        assert forced <= set(min_redld(g).witness)


def test_forced_detectors_leaf_rule():
    p = build_path(5)
    # each leaf forces its closed neighborhood
    assert list(forced_detectors(p)) == [0, 1, 3, 4]


def test_order_bound():
    # a size-k set can only exist on at most 2^(k-1) + k - 2 vertices
    rng = random.Random(26)
    for _ in range(25):
        g = random_graph(rng.randint(2, 10), rng.uniform(0.2, 0.8), rng)
        k = min_redld(g).optimum
        assert g.n <= 2 ** (k - 1) + k - 2


def test_solves_per_component():
    p, c = build_path(4), build_cycle(7)
    both = Graph(11, p.edges() + [(u + 4, v + 4) for u, v in c.edges()])
    res = min_redld(both)
    assert res.optimum == min_redld(p).optimum + min_redld(c).optimum
    assert is_redld_set(both, res.witness).ok


def test_node_budget_raises():
    g = random_graph(18, 0.25, random.Random(27))
    with pytest.raises(BudgetExceededError) as info:
        min_redld(g, SolveBudget(max_nodes=3))
    assert info.value.nodes >= 3
    # generous budget solves fine
    res = min_redld(g, SolveBudget(max_nodes=10_000_000))
    assert res.optimum is not None
    assert res.nodes <= 10_000_000


def test_time_budget_raises():
    g = random_graph(40, 0.12, random.Random(28))
    with pytest.raises(BudgetExceededError):
        min_redld(g, SolveBudget(max_seconds=1e-4))
    # a time budget already spent raises before the search, which would read
    # the 0 seconds left as no limit
    clock = _BudgetClock(SolveBudget(max_seconds=30.0))
    clock.deadline = time.monotonic()
    with pytest.raises(BudgetExceededError) as info:
        clock.bnb(g.kernel_ctx(), MODE_REDLD, 0, 0, g.n, 0)
    assert info.value.nodes == 0


def test_zero_budgets_stop_before_the_first_search():
    for budget in (SolveBudget(max_nodes=0), SolveBudget(max_seconds=0)):
        with pytest.raises(BudgetExceededError) as info:
            min_redld(build_hypercube(4), budget)
        assert info.value.nodes == 0


@pytest.mark.parametrize("budget", [{"max_nodes": -5}, {"max_seconds": -1.0},
                                    {"max_seconds": float("nan")}])
def test_negative_or_nan_budgets_are_rejected(budget):
    with pytest.raises(ValueError, match="must be a number >= 0"):
        SolveBudget(**budget)


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force_min_redld(Graph(25, [(v, (v + 1) % 25) for v in range(25)]))
