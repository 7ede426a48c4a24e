import hashlib
import random
from itertools import permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redld import trees
from redld.graph import Graph, build_path
from redld.solver import min_redld
from redld.trees import (
    canonical_code,
    classify_tmin,
    enumerate_tmax,
    enumerate_tmin,
    is_2dom_redld_on_tree,
    is_tmax,
    prufer_decode,
    random_tree,
    strip_exterior_p2,
    tmax_extensions,
    tmax_removals,
    tmin_representatives,
    tree_lower_bound,
)
from redld.verify import is_redld_set

# Family sizes by order, from filtering all trees by their brute-force optimum.
TMIN_COUNTS = {2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 6, 8: 2, 9: 6, 10: 24,
               11: 5, 12: 22, 13: 104, 14: 15}
TMAX_COUNTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 4, 7: 5, 8: 10, 9: 14, 10: 27,
               11: 43, 12: 82, 13: 140, 14: 269}


def all_trees(n):
    if n == 1:
        yield Graph(1, [])
        return
    if n == 2:
        yield build_path(2)
        return
    for t in nx.nonisomorphic_trees(n):
        yield Graph(n, list(t.edges()))


def test_tree_lower_bound():
    assert [tree_lower_bound(n) for n in range(2, 9)] == [2, 3, 4, 4, 5, 6, 6]
    with pytest.raises(ValueError):
        tree_lower_bound(1)


def test_bound_holds_on_all_small_trees():
    for n in range(2, 10):
        bound = tree_lower_bound(n)
        for g in all_trees(n):
            assert min_redld(g).optimum >= bound


def test_paths_meet_the_bound():
    for n in range(2, 12):
        assert min_redld(build_path(n)).optimum == tree_lower_bound(n)


def test_is_tmax_matches_solver():
    for n in range(2, 10):
        for g in all_trees(n):
            assert is_tmax(g) == (min_redld(g).optimum == g.n)


def test_classifier_matches_solver():
    for n in range(2, 11):
        bound = tree_lower_bound(n)
        for g in all_trees(n):
            cls = classify_tmin(g)
            assert cls.residue == n % 3
            assert cls.member == (min_redld(g).optimum == bound)
            if cls.member:
                assert len(cls.witness) == bound
                assert is_redld_set(g, cls.witness).ok
            else:
                assert cls.witness is None


def test_classifier_rejects_non_trees():
    with pytest.raises(ValueError):
        classify_tmin(Graph(3, [(0, 1), (1, 2), (0, 2)]))


def test_enumerate_counts():
    for n, want in TMIN_COUNTS.items():
        assert len(enumerate_tmin(n)) == want
    for n, want in TMAX_COUNTS.items():
        assert len(enumerate_tmax(n)) == want


def test_enumerations_match_filtered_search():
    # the grown families coincide with filtering every tree through the deciders
    for n in range(2, 10):
        want_min = {canonical_code(g) for g in all_trees(n)
                    if min_redld(g).optimum == tree_lower_bound(n)}
        assert set(enumerate_tmin(n)) == want_min
        want_max = {canonical_code(g) for g in all_trees(n) if is_tmax(g)}
        assert set(enumerate_tmax(n)) == want_max


def test_enumeration_outputs_are_pinned():
    # sha256 prefixes of every code and every (tree, set) pair for n = 2..15,
    # in the order the functions return them
    tmin, tmax, reps = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for n in range(2, 16):
        tmin.update(("\n".join(enumerate_tmin(n)) + "\n").encode())
        tmax.update(("\n".join(enumerate_tmax(n)) + "\n").encode())
        for g, s in tmin_representatives(n):
            reps.update(f"{g.n} {g.edges()} {sorted(s)}\n".encode())
    assert tmin.hexdigest()[:16] == "e5e2e196d9ac43c3"
    assert tmax.hexdigest()[:16] == "2c56c9027a8022c5"
    assert reps.hexdigest()[:16] == "7f5b369ba9398cb4"


def test_an_order_builds_only_the_orders_it_reads():
    # order 14 joins two class-2 orders summing to 13: 2 + 11 and 5 + 8,
    # and those in turn read only class-2 orders
    trees._tmin_level.cache_clear()
    enumerate_tmin(14)
    assert trees._tmin_level.cache_info().currsize == 5
    for m in (2, 5, 8, 11, 14):
        trees._tmin_level(m)
    assert trees._tmin_level.cache_info().misses == 5
    trees._tmax_level.cache_clear()
    enumerate_tmax(9)
    misses = trees._tmax_level.cache_info().misses
    enumerate_tmax(10)
    assert trees._tmax_level.cache_info().misses == misses + 1


def test_tmin_representatives():
    for n in (7, 9, 10):
        reps = tmin_representatives(n)
        assert {canonical_code(g) for g, _ in reps} == set(enumerate_tmin(n))
        for g, s in reps:
            assert len(s) == tree_lower_bound(n)
            assert is_redld_set(g, s).ok


def test_family_functions_reject_orders_below_two():
    for n in (0, 1):
        for fn in (tmin_representatives, enumerate_tmin, enumerate_tmax):
            with pytest.raises(ValueError, match="family starts at n = 2"):
                fn(n)


def test_tmax_extensions_and_removals():
    rng = random.Random(3)
    g = build_path(2)
    for _ in range(8):
        exts = tmax_extensions(g)
        assert exts
        for _u, t2 in exts:
            assert t2.n == g.n + 1 and is_tmax(t2)
        g = rng.choice(exts)[1]
    for v in tmax_removals(g):
        assert g.degree(v) == 1
        keep = [w for w in range(g.n) if w != v]
        sub, _ = g.induced_subgraph(keep)
        assert is_tmax(sub)


def test_tmax_helpers_reject_outsiders():
    p6 = build_path(6)
    assert not is_tmax(p6)
    with pytest.raises(ValueError):
        tmax_extensions(p6)
    with pytest.raises(ValueError):
        tmax_removals(p6)


def test_canonical_code_isomorphism_invariance():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_tree(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_code(g) == canonical_code(h)
        s = {v for v in range(n) if rng.random() < 0.5}
        assert canonical_code(g, s) == canonical_code(h, {perm[v] for v in s})


def test_canonical_code_separates():
    p4 = build_path(4)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_code(p4) != canonical_code(star)
    assert canonical_code(p4, [0, 1]) != canonical_code(p4, [1, 2])
    assert canonical_code(p4, [0, 1]) == canonical_code(p4, [2, 3])


def test_canonical_code_of_long_paths():
    # deeper than the interpreter's recursion limit
    half = "(" * 1500 + ")" * 1500
    assert canonical_code(build_path(3000)) == half + "|" + half
    assert canonical_code(build_path(3001)) == "(" + half + half + ")"


def test_canonical_code_rejects_detectors_out_of_range():
    p4 = build_path(4)
    for detectors in ([0, 9], [-1], [4]):
        with pytest.raises(ValueError, match="out of range for n=4"):
            canonical_code(p4, detectors)


def test_canonical_code_exhaustive_on_p5_relabelings():
    codes = set()
    for perm in permutations(range(5)):
        g = Graph(5, [(perm[i], perm[i + 1]) for i in range(4)])
        codes.add(canonical_code(g))
    assert len(codes) == 1


def test_strip_exterior_p2():
    res = strip_exterior_p2(build_path(8), 6)
    assert res.pairs == ((0, 1),)
    assert res.nondetectors == (2,)
    assert res.residual.n == 5
    res = strip_exterior_p2(build_path(8), 0)
    assert res.pairs == ((0, 1), (3, 4))
    assert res.nondetectors == (2, 5)
    assert res.residual.n == 2


def test_2dom_equals_redld_on_trees():
    # on trees, 2-domination of every vertex is the whole story
    rng = random.Random(11)
    agree_true = 0
    for _ in range(300):
        g = random_tree(rng.randint(2, 12), rng)
        s = {v for v in range(g.n) if rng.random() < rng.uniform(0.4, 0.9)}
        got = is_2dom_redld_on_tree(g, s)
        assert got == is_redld_set(g, s).ok
        agree_true += got
    assert agree_true > 20


def test_prufer_decode():
    g = prufer_decode([3, 3, 3])
    assert g.n == 5
    assert sorted(g.adj[3]) == [0, 1, 2, 4]
    with pytest.raises(ValueError):
        prufer_decode([5, 0])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=8))
def test_prufer_yields_trees(seq):
    seq = [x % (len(seq) + 2) for x in seq]
    g = prufer_decode(seq)
    assert g.n == len(seq) + 2
    assert g.is_tree()
    leaves_in_seq = set(range(g.n)) - set(seq)
    for v in leaves_in_seq:
        assert g.degree(v) == 1


def test_random_tree_deterministic():
    a = random_tree(30, random.Random(42))
    b = random_tree(30, random.Random(42))
    assert a == b and a.is_tree()
    assert random_tree(1, random.Random(0)).n == 1
