import random
import time
from itertools import combinations

import pytest

from redld import _kernels as K
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
from redld.trees import random_tree
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


def assert_matches_brute_force(g):
    # same optimum and, because both tie-break lexicographically, same witness
    for solve, oracle, check in ((min_redld, brute_force_min_redld, is_redld_set),
                                 (min_ld, brute_force_min_ld, is_ld_set)):
        fast, slow = solve(g), oracle(g)
        assert fast.infeasible == slow.infeasible
        assert fast.optimum == slow.optimum
        if fast.infeasible:
            continue
        assert tuple(fast.witness) == tuple(slow.witness)
        assert check(g, fast.witness).ok
        assert fast.nodes == fast.optimum_nodes + fast.witness_nodes


def test_bnb_matches_brute_force_on_every_small_graph():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            assert_matches_brute_force(
                Graph(n, [e for k, e in enumerate(pairs) if bits >> k & 1]))


def test_bnb_matches_brute_force():
    rng = random.Random(21)
    for _ in range(150):
        assert_matches_brute_force(
            random_graph(rng.randint(6, 12), rng.uniform(0.15, 0.7), rng))


needs_c = pytest.mark.skipif(K.BACKEND != "c", reason="too slow on the pure-Python kernel")


# (graph, solver, optimum, witness, nodes, optimum-phase nodes, optimum-phase
# calls, witness-phase calls); both backends count the same nodes
PINNED_COUNTS = [
    ("petersen", min_ld, 4, (0, 1, 3, 7), 51, 29, 1, 6),
    ("petersen", min_redld, 6, (0, 1, 2, 3, 6, 7), 36, 32, 2, 4),
    ("q4", min_ld, 6, (0, 1, 2, 5, 11, 12), 2_702, 2_620, 2, 10),
    ("q4", min_redld, 8, (0, 1, 6, 7, 10, 11, 12, 13), 1_566, 928, 2, 8),
    ("q5", min_redld, 12, (0, 1, 2, 4, 8, 15, 16, 23, 27, 29, 30, 31), 4_506, 3_752, 2, 20),
    ("q6", min_redld, 20, (0, 1, 6, 7, 10, 11, 18, 19, 28, 29, 34, 35, 44, 45, 52, 53, 56, 57,
                           62, 63), 6_681_780, 4_076_112, 2, 44),
    ("g40", min_ld, 10, (1, 7, 8, 12, 25, 26, 27, 33, 36, 38), 8_830_494, 2_654_777, 5, 31),
    ("g40", min_redld, 15, (1, 2, 3, 7, 8, 10, 12, 17, 18, 21, 24, 25, 26, 36, 38),
     1_098_673, 447_873, 9, 27),
    # the witness is every vertex but these 35
    ("tree200", min_redld, 165,
     tuple(v for v in range(200) if v not in {
         29, 38, 44, 56, 58, 59, 62, 65, 69, 77, 86, 87, 88, 98, 102, 108, 110, 121, 128, 132,
         133, 135, 145, 160, 166, 168, 175, 179, 186, 187, 191, 193, 194, 195, 196}),
     2_846_005, 2_783_732, 32, 38),
]
# Each graph's builder and, for the graphs the pure-Python kernel is too
# slow for, the seconds budget of each solve, so that a slowed search fails
# instead of hanging.  In G(40, 0.15) #0 each pair i < j in order is an edge
# when random.Random(0).random() < 0.15.
PINNED_GRAPHS = {
    "petersen": (build_petersen, None),
    "q4": (lambda: build_hypercube(4), None),
    "q5": (lambda: build_hypercube(5), None),
    "q6": (lambda: build_hypercube(6), 120),
    "g40": (lambda: random_graph(40, 0.15, random.Random(0), allow_isolated=True), 60),
    "tree200": (lambda: random_tree(200, random.Random(2)), 60),
}


@pytest.mark.parametrize(
    "name, solve, optimum, witness, nodes, opt_nodes, opt_calls, wit_calls",
    [pytest.param(*row, id="-".join(map(str, (row[0], row[1].__name__, *row[4:]))),
                  marks=needs_c if PINNED_GRAPHS[row[0]][1] else ())
     for row in PINNED_COUNTS])
def test_node_counts_are_pinned(name, solve, optimum, witness, nodes, opt_nodes, opt_calls,
                                wit_calls):
    build, seconds = PINNED_GRAPHS[name]
    g = build()
    res = solve(g, SolveBudget(max_seconds=seconds) if seconds else None)
    assert (res.optimum, tuple(res.witness)) == (optimum, witness)
    assert (is_ld_set if solve is min_ld else is_redld_set)(g, res.witness).ok
    assert (res.nodes, res.optimum_nodes, res.optimum_calls, res.witness_calls) == \
        (nodes, opt_nodes, opt_calls, wit_calls)
    assert res.witness_nodes == nodes - opt_nodes


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
        clock.find(g.kernel_ctx(), MODE_REDLD, 0, 0, g.n)
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


def test_node_budget_must_be_an_int():
    # a float budget was a TypeError from the C kernel and a budget stop on
    # the pure-Python one
    with pytest.raises(ValueError, match="max_nodes must be an int"):
        SolveBudget(max_nodes=1.5)


@pytest.mark.parametrize("budget, match", [
    ({"max_nodes": True}, "max_nodes must be an int"),
    ({"max_nodes": False}, "max_nodes must be an int"),
    ({"max_nodes": "5"}, "max_nodes must be an int"),
    ({"max_seconds": "5"}, "max_seconds must be a number"),
    ({"max_seconds": True}, "max_seconds must be a number"),
    ({"max_seconds": None, "max_nodes": "0"}, "max_nodes must be an int"),
])
def test_str_and_bool_budgets_are_rejected(budget, match):
    # a bool is an int to isinstance, and True was taken as a 1-node budget
    with pytest.raises(ValueError, match=match):
        SolveBudget(**budget)


def test_node_budgets_past_64_bits_mean_no_limit():
    unlimited = min_redld(build_hypercube(4))
    for nodes in (2**63 - 1, 2**63, 10**20):
        got = min_redld(build_hypercube(4), SolveBudget(max_nodes=nodes))
        assert (got.optimum, got.witness, got.nodes) == \
            (unlimited.optimum, unlimited.witness, unlimited.nodes)


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force_min_redld(Graph(25, [(v, (v + 1) % 25) for v in range(25)]))


def spy_on_bnb(monkeypatch):
    """Record (cap, status, nodes) of every kernel bnb call, each of which
    must be a decision call: cap == stop_at."""
    calls = []
    real = K.bnb

    def bnb(*args):
        assert args[4] == args[5]
        out = real(*args)
        calls.append((args[4], out[0], out[3]))
        return out

    monkeypatch.setattr(K, "bnb", bnb)
    return calls


def test_redld_ladder_climbs_from_the_lower_bound(monkeypatch):
    # Q_5: the bound is ceil(64/6) = 11, refuted; 12 is found
    calls = spy_on_bnb(monkeypatch)
    res = min_redld(build_hypercube(5))
    assert res.optimum == 12
    assert [(cap, status) for cap, status, _ in calls[:2]] == [(11, 1), (12, 0)]
    assert all(cap == 12 for cap, _, _ in calls[2:])
    assert res.nodes == sum(nodes for _, _, nodes in calls)
    assert res.optimum_nodes == calls[0][2] + calls[1][2]
    assert res.optimum_calls + res.witness_calls == len(calls)


@pytest.mark.parametrize("dim, rungs, first_rung_nodes", [
    # Q_4: the classic bound ceil(32/7) = 5 is refuted; 6 is found
    (4, [5, 6], 2_527),
    # Q_5: ceil(64/8) = 8, then 9, are refuted; 10 is found
    pytest.param(5, [8, 9, 10], 79_423, marks=needs_c),
])
def test_ld_ladder_climbs_from_the_lower_bound(monkeypatch, dim, rungs, first_rung_nodes):
    calls = spy_on_bnb(monkeypatch)
    res = min_ld(build_hypercube(dim))
    opt, k = rungs[-1], len(rungs)
    assert res.optimum == opt and res.optimum_calls == k
    assert [(cap, status) for cap, status, _ in calls[:k]] == \
        [(cap, 1) for cap in rungs[:-1]] + [(opt, 0)]
    assert calls[0][2] == first_rung_nodes
    assert all(cap == opt for cap, _, _ in calls[k:])
    assert res.nodes == sum(nodes for _, _, nodes in calls)
    assert res.optimum_nodes == sum(nodes for _, _, nodes in calls[:k])
    assert res.optimum_calls + res.witness_calls == len(calls)


@pytest.mark.parametrize("dim, refuted, budget", [
    # the node budget runs out halfway through Q_5's cap-11 rung (2,991
    # nodes); a time stop cannot be placed in so short a rung on every
    # machine, so that budget stops Q_6's cap-19 rung (1.47M nodes on C)
    (5, 11, SolveBudget(max_nodes=1_500)),
    (6, 19, SolveBudget(max_seconds=0.05)),
])
def test_budget_stop_in_a_refuting_rung_raises(monkeypatch, dim, refuted, budget):
    # a stopped rung is "gave up", never "no": reading it as "no" would
    # return refuted + 1 as the optimum
    calls = spy_on_bnb(monkeypatch)
    with pytest.raises(BudgetExceededError) as info:
        min_redld(build_hypercube(dim), budget)
    assert [(cap, status) for cap, status, _ in calls] == [(refuted, 2)]
    assert info.value.nodes == calls[0][2] > 0


def test_budget_stop_in_an_ld_refuting_rung_raises(monkeypatch):
    # Q_4 LD: the cap-5 rung takes 2,527 nodes to refute, so a budget of
    # 1,200 stops it; reading that stop as "no" would return 6
    calls = spy_on_bnb(monkeypatch)
    with pytest.raises(BudgetExceededError) as info:
        min_ld(build_hypercube(4), SolveBudget(max_nodes=1_200))
    assert [(cap, status) for cap, status, _ in calls] == [(5, 2)]
    assert info.value.nodes == calls[0][2] > 0


def test_ld_optimum_phase_stops_at_the_classic_bound(monkeypatch):
    # Petersen: ceil(2 * 10 / (3 + 3)) = 4 is the optimum, so the optimum
    # phase's one search stops at the first 4-set it finds
    stops = []
    real = K.bnb

    def bnb(*args):
        stops.append(args[5])
        return real(*args)

    monkeypatch.setattr(K, "bnb", bnb)
    res = min_ld(build_petersen())
    assert res.optimum == 4 and res.optimum_calls == 1
    assert stops[0] == 4


def milp_optimum(g, mode):
    """The minimum LD or RED:LD set by a 0/1 program (scipy's HiGHS), with
    its witness.  x_v says whether v is a detector; for each pair (u, v) at
    distance at most 2, D = N(u) ^ N(v).  LD: sum over N[v] >= 1, and
    sum over D + x_u + x_v >= 1.  RED:LD: sum over N[v] >= 2,
    sum over D + 2 x_u + 2 x_v >= 2, and sum over D - {v} - x_v + x_u >= 0
    and the same with u and v swapped."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n, nbrs = g.n, [set(g.adj[v]) for v in range(g.n)]
    rows, lows = [], []

    def row(terms, low):
        r = [0] * n
        for v, c in terms:
            r[v] += c
        rows.append(r)
        lows.append(low)

    need = 2 if mode == MODE_REDLD else 1
    for v in range(n):
        row([(w, 1) for w in nbrs[v] | {v}], need)
    for u, v in combinations(range(n), 2):
        if v not in nbrs[u] and not nbrs[u] & nbrs[v]:
            continue
        d = nbrs[u] ^ nbrs[v]
        if mode == MODE_REDLD:
            row([(w, 1) for w in d] + [(u, 2), (v, 2)], 2)
            row([(w, 1) for w in d - {v}] + [(v, -1), (u, 1)], 0)
            row([(w, 1) for w in d - {u}] + [(u, -1), (v, 1)], 0)
        else:
            row([(w, 1) for w in d] + [(u, 1), (v, 1)], 1)
    res = milp([1] * n, constraints=LinearConstraint(rows, lows, float("inf")),
               integrality=[1] * n, bounds=Bounds(0, 1))
    assert res.status == 0
    chosen = [v for v in range(n) if res.x[v] > 0.5]
    return round(res.fun), chosen


@needs_c
@pytest.mark.parametrize("n", [25, 30, 35, 40])
def test_bnb_optima_match_a_milp_past_brute_force(n):
    # sparse G(n, 4 / n), isolated vertices joined to a neighbour: past the
    # 24 vertices of brute force, the 0/1 program is the independent oracle.
    # The seeds keep the four graphs near 1.5 s on C in all; other seeds of
    # G(40, 0.1) take up to 5 s in LD branch and bound.
    pytest.importorskip("scipy")
    g = random_graph(n, 4 / n, random.Random(100 * n + 2))
    for solve, mode, check in ((min_ld, K.MODE_LD, is_ld_set),
                               (min_redld, MODE_REDLD, is_redld_set)):
        value, chosen = milp_optimum(g, mode)
        assert check(g, chosen).ok
        assert solve(g).optimum == value


@needs_c
@pytest.mark.parametrize("seed, optimum", [(0, 15), (1, 16)])
def test_redld_optima_of_g40_match_a_milp(seed, optimum):
    # G(40, 0.15) #s: each pair i < j in order is an edge when
    # random.Random(s).random() < 0.15.  The RED:LD coverage bound solves #0
    # in 1.1M nodes (0.7 s on C), where the cover bound took 9.2M
    pytest.importorskip("scipy")
    g = random_graph(40, 0.15, random.Random(seed), allow_isolated=True)
    value, chosen = milp_optimum(g, MODE_REDLD)
    assert value == optimum and is_redld_set(g, chosen).ok
    res = min_redld(g)
    assert res.optimum == optimum and is_redld_set(g, res.witness).ok


@needs_c
def test_q6_redld_optimum_matches_a_milp():
    # past 40 vertices: the 0/1 program gives the optimum that the q6 row of
    # PINNED_COUNTS pins from branch and bound, in about 2 s
    pytest.importorskip("scipy")
    g = build_hypercube(6)
    value, chosen = milp_optimum(g, MODE_REDLD)
    assert value == 20 and is_redld_set(g, chosen).ok
