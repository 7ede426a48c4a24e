import hashlib
import random
import time
from itertools import permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redld import _kernels as K
from redld import trees
from redld.families import kary_table, redld_path
from redld.graph import Graph, build_path
from redld.solver import brute_force_min_redld, min_redld
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

# Family sizes by order, from filtering all trees by their brute-force optimum
# up to order 14, and by the tree DP's optimum for orders 15..18.
TMIN_COUNTS = {2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 6, 8: 2, 9: 6, 10: 24,
               11: 5, 12: 22, 13: 104, 14: 15, 15: 89, 16: 503, 17: 49, 18: 382}
TMAX_COUNTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 4, 7: 5, 8: 10, 9: 14, 10: 27,
               11: 43, 12: 82, 13: 140, 14: 269, 15: 486, 16: 939, 17: 1765, 18: 3446}


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


def relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_classifier_outputs_are_pinned():
    # sha256 prefix of (residue, member, witness) over every tree with
    # n <= 12 in two random labellings, one random tree per order 13..120,
    # and every minimum-family pair of orders 13..16 relabelled: the last
    # are members, whose witness is the first candidate that verifies
    rng = random.Random(19)
    corpus = [relabel(g, rng) for n in range(2, 13) for g in all_trees(n) for _ in range(2)]
    corpus += [random_tree(n, rng) for n in range(13, 121)]
    corpus += [relabel(g, rng) for n in range(13, 17) for g, _s in tmin_representatives(n)]
    digest, members = hashlib.sha256(), 0
    for g in corpus:
        cls = classify_tmin(g)
        witness = sorted(cls.witness) if cls.member else None
        digest.update(f"{cls.residue} {cls.member} {witness}\n".encode())
        members += cls.member
    assert (len(corpus), members) == (3315, 1379)
    assert digest.hexdigest()[:16] == "3ed67c6e442701eb"


def test_verified_candidates_of_minimum_family_trees_are_one_set():
    # classify_tmin keeps the first candidate of the bound's size that
    # verifies.  On every minimum-family tree with n = 1 (mod 3) and
    # 7 <= n <= 19, once per canonical code and relabelled, the candidates
    # that count are one and the same set, so the rule cannot depend on the
    # candidates' order there
    rng = random.Random(96)
    checked = 0
    for n in range(7, 20, 3):
        bound, codes = tree_lower_bound(n), set()
        for g, _s in tmin_representatives(n):
            code = canonical_code(g)
            if code in codes:
                continue
            codes.add(code)
            g = relabel(g, rng)
            counted = {frozenset(c) for c in trees._extremal_cls1(trees._adj_dict(g))
                       if len(c) == bound and is_redld_set(g, c).ok}
            assert len(counted) == 1, g.edges()
            checked += 1
        assert codes == set(enumerate_tmin(n))
    assert checked == 3136


@pytest.mark.parametrize("n, edges, witness", [
    # residual of 4: P_4 is its own residual
    (4, [(0, 1), (1, 2), (2, 3)], range(4)),
    # same-w branch pair: the two 3-vertex branches hanging off 6
    (7, [(0, 1), (1, 2), (1, 6), (3, 4), (4, 5), (4, 6)], range(6)),
    # degree-3 split: the spider S(2,2,2) minus its center 6
    (7, [(0, 1), (0, 6), (2, 3), (2, 6), (4, 5), (4, 6)], range(6)),
    # different-w branch pair: branches off 9 and 8; 6, 7 are the residual left
    (10, [(0, 1), (1, 2), (1, 9), (3, 4), (4, 5), (4, 8), (6, 7), (6, 8), (6, 9)],
     range(8)),
])
def test_each_candidate_kind_gives_its_witness(n, edges, witness):
    cls = classify_tmin(Graph(n, edges))
    assert cls.member and set(cls.witness) == set(witness)


def test_classifier_rejects_non_trees():
    with pytest.raises(ValueError):
        classify_tmin(Graph(3, [(0, 1), (1, 2), (0, 2)]))


def test_enumerate_counts():
    for n, want in TMIN_COUNTS.items():
        assert len(enumerate_tmin(n)) == want
    for n, want in TMAX_COUNTS.items():
        assert len(enumerate_tmax(n)) == want


def test_enumerations_match_filtered_search():
    # the grown families coincide with filtering every tree by its optimum,
    # from the brute-force solver, which knows nothing of the family rules
    for n in range(2, 12):
        optima = {canonical_code(g): brute_force_min_redld(g).optimum for g in all_trees(n)}
        assert set(enumerate_tmin(n)) == {c for c, opt in optima.items()
                                          if opt == tree_lower_bound(n)}
        assert set(enumerate_tmax(n)) == {c for c, opt in optima.items() if opt == n}


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


@pytest.mark.skipif(K.BACKEND != "c", reason="too slow on the pure-Python kernel")
@pytest.mark.parametrize("enumerate_family, count", [(enumerate_tmin, 180),
                                                     (enumerate_tmax, 13_137)])
def test_enumeration_at_order_20_is_pinned(enumerate_family, count):
    # from empty caches: about 0.5 s for both families on the C backend,
    # 4 s on the pure-Python one.  The counts pin today's enumeration as a
    # regression and scaling guard; they are not a theorem
    for cached in (trees._tmin_parts, trees._tmin_level, trees._tmax_level):
        cached.cache_clear()
    start = time.monotonic()
    assert len(enumerate_family(20)) == count
    assert time.monotonic() - start < 30


def test_an_order_builds_only_the_orders_it_reads():
    # order 14 joins two class-2 orders summing to 13: 2 + 11 and 5 + 8,
    # and those in turn read only class-2 orders
    trees._tmin_level.cache_clear()
    trees._tmin_parts.cache_clear()
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


def test_each_orbit_is_tried_once(monkeypatch):
    # the canonical codes made for orders 2..14: one per candidate tried and
    # one per minimum-family pair in enumerate_tmin; 5,325 when every vertex
    # of every part was tried
    calls = []
    code = K.tree_code
    monkeypatch.setattr(K, "tree_code", lambda *args: calls.append(1) or code(*args))
    for cached in (trees._tmin_level, trees._tmin_parts, trees._tmax_level):
        cached.cache_clear()
    for n in range(2, 15):
        enumerate_tmin(n)
        enumerate_tmax(n)
    assert len(calls) == 2676


def test_tmin_representatives():
    for n in (7, 9, 10):
        reps = tmin_representatives(n)
        assert {canonical_code(g) for g, _ in reps} == set(enumerate_tmin(n))
        for g, s in reps:
            assert len(s) == tree_lower_bound(n)
            assert is_redld_set(g, s).ok


def test_tmin_representatives_of_order_19_classify_as_members():
    # past the pinned digest (orders <= 16); at n = 19 each of the four
    # candidate kinds of n = 1 mod 3 is the witness of some pair
    rng = random.Random(1919)
    bound = tree_lower_bound(19)
    for g, _s in tmin_representatives(19):
        h = relabel(g, rng)
        cls = classify_tmin(h)
        assert cls.member and len(cls.witness) == bound
        assert is_redld_set(h, cls.witness).ok


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


def rooted_code(adj, root, colored=frozenset()):
    # the code of the tree rooted at root, by plain recursion
    def code(v, parent):
        kids = sorted(code(w, v) for w in adj[v] if w != parent)
        return ("*" if v in colored else "") + "(" + "".join(kids) + ")"
    return code(root, -1)


def assert_orbits_by_rooting(adj, colored=None):
    # v and w share an orbit exactly when the trees rooted at them are
    # isomorphic, as then an isomorphism between them maps v to w
    colored = colored or frozenset()
    codes = [rooted_code(adj, v, colored) for v in range(len(adj))]
    least = [codes.index(c) for c in codes]
    assert K.tree_orbits(adj, sum(1 << v for v in colored)) == least


def test_orbits_match_rooted_codes():
    for n in range(1, 11):
        for g in all_trees(n):
            assert_orbits_by_rooting(g.adj)


def test_colored_orbits_match_rooted_codes():
    for n in range(2, 13):
        for g, s in tmin_representatives(n):
            assert_orbits_by_rooting(g.adj, frozenset(s))


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


# An exact oracle for trees of any order: a rooted DP for the least set that
# puts 2 detectors in every closed neighbourhood, which on a tree is a RED:LD
# set (is_2dom_redld_on_tree). A vertex's table t[x][c] is the least number
# of detectors in its subtree when its own status is x (1 = detector) and c
# of {v} and its children are detectors, capped at 2, with every vertex
# below v 2-dominated; the parent must make up the 2 - c still missing.
INF = float("inf")


def dp_table(children):
    table = []
    for x in (0, 1):
        r0, r1, r2 = (INF, 1, INF) if x else (0, INF, INF)
        for (_o0, o1, o2), (_i0, i1, i2) in children:
            # a child with c detectors needs 2 - c from v, which gives x
            b0, b1 = (min(o1, o2), min(i1, i2)) if x else (o2, i2)
            r0, r1, r2 = r0 + b0, min(r1 + b0, r0 + b1), min(r2 + b0, r1 + b1, r2 + b1)
        table.append((r0, r1, r2))
    return table


def dp_root(table):
    return min(table[0][2], table[1][2])


def dp_min_redld(g):
    """RED:LD optimum of the tree g, rooted at 0; no recursion."""
    parent, order = [-1] * g.n, [0]
    for v in order:
        for w in g.adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    tables = [None] * g.n
    for v in reversed(order):
        tables[v] = dp_table([tables[w] for w in g.adj[v] if w != parent[v]])
    return dp_root(tables[0])


def dp_level_optima(k, depth):
    """Optima of the complete k-ary trees of depths 0..depth: all subtrees
    at one depth are equal, so one DP step per level. k = 1 gives the
    paths on 1..depth + 1 vertices."""
    table = dp_table([])
    out = [dp_root(table)]
    for _ in range(depth):
        table = dp_table([table] * k)
        out.append(dp_root(table))
    return out


def test_tree_dp_matches_brute_force():
    for n in range(2, 11):
        for g in all_trees(n):
            assert dp_min_redld(g) == brute_force_min_redld(g).optimum


def test_classifiers_match_tree_dp_past_brute_force():
    for n in range(13, 16):
        bound = tree_lower_bound(n)
        for g in all_trees(n):
            opt = dp_min_redld(g)
            assert classify_tmin(g).member == (opt == bound)
            assert is_tmax(g) == (opt == n)


def test_kary_values_match_level_dp():
    rows = kary_table()
    assert len(rows) == 60
    optima = {k: dp_level_optima(k, 10) for k in range(2, 8)}
    for d, k, value, _density in rows:
        assert optima[k][d] == value


def test_path_optima_match_level_dp():
    optima = dp_level_optima(1, 10**4 - 1)
    assert all(optima[n - 1] == tree_lower_bound(n) for n in range(2, 10**4 + 1))
    for n in [*range(2, 200), 1000, 4000, 9998, 9999, 10**4]:
        assert redld_path(n).optimum == optima[n - 1]
    assert dp_min_redld(build_path(10**4)) == optima[-1]


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
