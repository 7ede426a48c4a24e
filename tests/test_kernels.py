"""Backend equivalence: the compiled kernel and the pure-Python kernel must
agree bit for bit (verdicts, optima, witnesses, and search node counts)."""

import importlib
import random
import re
from concurrent.futures import ThreadPoolExecutor
import sys
import sysconfig
from fractions import Fraction
from itertools import combinations, product

import pytest

import redld
import redld._kernels as K
import redld._kernels.pybits as py
from redld._kernels import _build
from redld.graph import Graph
from redld.grids import LatticeKind
from redld.satreduce import SatInstance, build_reduction
from redld.solver import _ld_lower_bound, _redld_lower_bound
from redld.trees import random_tree

try:
    import redld._kernels._ckern as ck
except ImportError:
    ck = None

needs_c = pytest.mark.skipif(ck is None, reason="compiled kernel not built")


def random_adj(n, p, rng):
    adj = [[] for _ in range(n)]
    for u, v in combinations(range(n), 2):
        if rng.random() < p:
            adj[u].append(v)
            adj[v].append(u)
    for v in range(n):
        if not adj[v]:
            w = (v + 1) % n
            adj[v].append(w)
            adj[w].append(v)
    return [sorted(a) for a in adj]


def test_selected_backend():
    assert K.BACKEND in ("c", "py")
    assert py.BACKEND == "py"
    assert (K.MODE_LD, K.MODE_REDLD, K.MODE_REDLD_DEF) == (0, 1, 2)


@needs_c
def test_c_backend_name():
    assert ck.BACKEND == "c"


@needs_c
def test_predicates_agree():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(2, 6)
        adj = random_adj(n, rng.uniform(0.2, 0.8), rng)
        cp, cc = py.make_ctx(adj), ck.make_ctx(adj)
        for mask in range(1 << n):
            assert py.is_ld(cp, mask) == ck.is_ld(cc, mask)
            assert py.is_redld(cp, mask) == ck.is_redld(cc, mask)
            assert py.is_redld_def(cp, mask) == ck.is_redld_def(cc, mask)


@needs_c
def test_brute_force_agrees():
    # the same (size, mask) in all three modes: C steps its subsets in one
    # word, pybits takes them from itertools.combinations, in the order the
    # oracle is defined by.  Random graphs and trees up to n = 12, and graphs
    # with no valid set in the RED:LD modes: (-1, 0) after every subset
    rng = random.Random(2)
    graphs = [random_adj(rng.randint(2, 9), rng.uniform(0.2, 0.7), rng) for _ in range(25)]
    graphs += [random_adj(rng.randint(10, 12), rng.uniform(0.15, 0.7), rng) for _ in range(40)]
    graphs += [random_tree(rng.randint(2, 12), rng).adj for _ in range(60)]
    graphs += [[[]], [[], []], [[1], [0], []], [*random_adj(11, 0.3, rng), []]]
    for adj in graphs:
        cp, cc = py.make_ctx(adj), ck.make_ctx(adj)
        for mode in (K.MODE_LD, K.MODE_REDLD, K.MODE_REDLD_DEF):
            assert py.brute_force_min(cp, mode) == ck.brute_force_min(cc, mode), (adj, mode)


@needs_c
def test_brute_force_fills_the_word():
    # the C subsets fill all 64 bits of their word: no LD set of k <= 5 of
    # 64 vertices exists (its 64 - k non-detectors need distinct nonempty
    # traces, at most 2**k - 1), so brute force steps through all 8.3M of
    # them, then through the 6-sets in lexicographic order, where A is the
    # first that is LD: the 58 6-sets before it, (0, 1, 2, 3, 4, x), are not.
    # CI runs this under UBSan, which checks every shift and bit scan at n = 64
    A = (0, 1, 2, 3, 4, 63)
    traces = [c for k in range(1, 7) for c in combinations(A, k)]
    adj = [set() for _ in range(64)]
    for v, trace in zip(range(5, 63), traces):
        for d in trace:
            adj[v].add(d)
            adj[d].add(v)
    cp = py.make_ctx(adj)
    assert py.is_ld(cp, sum(1 << v for v in A))
    assert not any(py.is_ld(cp, 0b11111 | 1 << x) for x in range(5, 63))
    assert ck.brute_force_min(ck.make_ctx(adj), K.MODE_LD) == (6, 0b11111 | 1 << 63)


@needs_c
def test_bnb_agrees_including_node_counts():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(4, 13)
        adj = random_adj(n, rng.uniform(0.15, 0.5), rng)
        forced_in = sum(1 << v for v in range(n) if rng.random() < 0.2)
        forced_out = 0
        for mode in (K.MODE_LD, K.MODE_REDLD):
            got_py = py.bnb(py.make_ctx(adj), mode, forced_in, forced_out, n, 0, 0, 0.0)
            got_ck = ck.bnb(ck.make_ctx(adj), mode, forced_in, forced_out, n, 0, 0, 0.0)
            assert got_py == got_ck


@needs_c
def test_bnb_budget_status_agrees():
    rng = random.Random(4)
    adj = random_adj(16, 0.3, rng)
    got_py = py.bnb(py.make_ctx(adj), K.MODE_REDLD, 0, 0, 16, 0, 50, 0.0)
    got_ck = ck.bnb(ck.make_ctx(adj), K.MODE_REDLD, 0, 0, 16, 0, 50, 0.0)
    assert got_py == got_ck
    assert got_py[0] == 2


@needs_c
def test_pair_checks_agree():
    rng = random.Random(5)
    adj = random_adj(12, 0.35, rng)
    cp, cc = py.make_ctx(adj), ck.make_ctx(adj)
    pairs = [(u, v) for u, v in combinations(range(12), 2)]
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    masks = [rng.getrandbits(12) | 1 for _ in range(300)]
    for m in masks[:50]:
        assert py.pairs_scan(cp, us, vs, [m]) == ck.pairs_scan(cc, us, vs, [m])
    assert py.pairs_scan(cp, us, vs, masks) == ck.pairs_scan(cc, us, vs, masks)


def reductions():
    """The reductions of one unsatisfiable 6-variable formula and of three
    random 6- and 7-variable ones: 102 to 147 vertices, two or three words
    per vertex set, sparse graphs whose vertex pairs are mostly at distance 3
    or more."""
    rng = random.Random(9)
    unsat = [(a * 1, b * 2, c * 3) for a, b, c in product((1, -1), repeat=3)]
    formulas = [SatInstance(6, tuple(unsat) + ((4, -5, 6), (-4, 5, -6)))]
    for n_vars in (6, 7, 7):
        clauses = []
        for _ in range(rng.randint(2 * n_vars, 3 * n_vars)):
            clauses.append(tuple(v * rng.choice((1, -1))
                                 for v in rng.sample(range(1, n_vars + 1), 3)))
        formulas.append(SatInstance(n_vars, tuple(clauses)))
    return [build_reduction(phi) for phi in formulas]


def long_graphs(n):
    """The path, the cycle and the square of the cycle on n vertices."""
    path = [[w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)]
    cycle = [sorted({(v - 1) % n, (v + 1) % n}) for v in range(n)]
    square = [sorted({(v + d) % n for d in (-2, -1, 1, 2)}) for v in range(n)]
    return path, cycle, square


# vertex counts on both sides of the word boundaries at 64 and 128
LONG_SIZES = (63, 64, 65, 127, 128, 130)


@needs_c
def test_bnb_agrees_on_reduction_graphs():
    # the searches of decide_via_redld
    statuses = set()
    for art in reductions():
        adj = [list(nbrs) for nbrs in art.graph.adj]
        args = (K.MODE_REDLD, art.forced.mask(), 0, art.k, art.k, 0, 0.0)
        got_py = py.bnb(py.make_ctx(adj), *args)
        assert got_py == ck.bnb(ck.make_ctx(adj), *args)
        statuses.add(got_py[0])
    assert statuses == {0, 1}  # satisfiable and unsatisfiable formulas


@needs_c
def test_bnb_agrees_on_long_paths_and_cycles():
    # 63 to 130 vertices: pairs at distance 3 or more, and pairs across the
    # word boundaries at vertices 63/64 and 127/128.  The square of a cycle
    # is there because on graphs of maximum degree 2 no in/out pair can fail
    # once every vertex is 2-dominated.
    rng = random.Random(10)
    statuses = []
    for n in LONG_SIZES:
        for adj in long_graphs(n):
            cp, cc = py.make_ctx(adj), ck.make_ctx(adj)
            for mode in (K.MODE_LD, K.MODE_REDLD):
                # forced sets taken from a valid set of the path or cycle (all
                # vertices but some pairwise at distance >= 3): deep searches
                outside = set()
                for v in rng.sample(range(2, n - 2), n // 3):
                    if all(min(abs(v - u), n - abs(v - u)) >= 3 for u in outside):
                        outside.add(v)
                forced = [(sum(1 << v for v in range(n)
                               if v not in outside and rng.random() < 0.7),
                           sum(1 << v for v in outside if rng.random() < 0.7))]
                # everything in but a window across a word boundary, where
                # random out vertices make close pairs fail
                for centre in (64, 128) * 3:
                    window = range(max(centre - 8, 0), min(centre + 8, n))
                    if len(window) < 8:
                        continue
                    out = sum(1 << v for v in window if rng.random() < 0.3)
                    undecided = sum(1 << v for v in window if rng.random() < 0.8)
                    forced.append((((1 << n) - 1) & ~undecided & ~out, out))
                for forced_in, forced_out in forced:
                    args = (mode, forced_in, forced_out, n, 0, 300, 0.0)
                    got_py = py.bnb(cp, *args)
                    assert got_py == ck.bnb(cc, *args)
                    statuses.append(got_py[0])
    assert min(statuses.count(status) for status in (0, 1, 2)) >= 10


@needs_c
def test_predicates_agree_past_one_word():
    # Masks near valid sets: a minimal valid set of each mode, a valid
    # superset of it, and both with one or two bits flipped.  An all-pairs
    # scan is RED:LD by the characterization, so it must equal is_redld.
    rng = random.Random(11)
    graphs = [adj for n in LONG_SIZES for adj in long_graphs(n)]
    graphs += [[list(nbrs) for nbrs in art.graph.adj] for art in reductions()]
    seen = {name: set() for name in ("is_ld", "is_redld", "is_redld_def")}
    pair_failures = 0  # 2-dominated masks that fail a pair condition
    for adj in graphs:
        n = len(adj)
        cp, cc = py.make_ctx(adj), ck.make_ctx(adj)
        us, vs = zip(*combinations(range(n), 2))
        masks = []
        for valid in (ck.is_ld, ck.is_redld):
            s = (1 << n) - 1
            for v in rng.sample(range(n), n):
                if valid(cc, s & ~(1 << v)):
                    s &= ~(1 << v)
            for base in (s, s | rng.getrandbits(n)):
                masks.append(base)
                for k in (1, 1, 1, 2, 2, 2):
                    masks.append(base ^ sum(1 << v for v in rng.sample(range(n), k)))
        for m in masks:
            for name in seen:
                got = getattr(py, name)(cp, m)
                assert got == getattr(ck, name)(cc, m), (n, name, m)
                seen[name].add(got)
            assert py.pairs_scan(cp, us, vs, [m]) == ck.pairs_scan(cc, us, vs, [m]) == \
                (0 if py.is_redld(cp, m) else -1)
            pair_failures += py._two_dominated(cp, m) and not py.is_redld(cp, m)
    assert all(verdicts == {False, True} for verdicts in seen.values())
    assert pair_failures >= 10


# the densities that grid searches probe: published patterns and open gaps
GRID_DENSITIES = {
    LatticeKind.HEX: (Fraction(1, 2), Fraction(2, 5)),
    LatticeKind.TRI: (Fraction(1, 3),),
    LatticeKind.SQ: (Fraction(2, 5), Fraction(7, 16)),
    LatticeKind.KING: (Fraction(5, 16), Fraction(3, 11), Fraction(2, 7)),
}


@needs_c
def test_dom_candidates_agree():
    # at the grid densities, and on SQ and TRI also at 1/2, where valid
    # patterns are many enough for walks cut by the budget to have found some
    kinds = {"found": 0, "exhausted": 0, "prefix": 0}
    for kind, targets in GRID_DENSITIES.items():
        if kind in (LatticeKind.SQ, LatticeKind.TRI):
            targets += (Fraction(1, 2),)
        widths = range(2, 7, 2) if kind is LatticeKind.HEX else range(1, 6)
        for w, h in product(widths, range(1, 6)):
            for target in targets:
                count = w * h * target.numerator // target.denominator
                for budget in (1, 37, 10_000):
                    got = py.dom_candidates(kind.value, w, h, count, budget)
                    assert got == ck.dom_candidates(kind.value, w, h, count, budget)
                    kinds["found"] += bool(got[0])
                    kinds["exhausted" if got[1] else "prefix"] += bool(got[0])
    # patterns found, walks exhausted with patterns, budget-cut prefixes
    assert min(kinds.values()) >= 10


@needs_c
def test_dom_candidates_agree_beyond_64_cells():
    # 72 cells: masks span two words.  At the grid densities the walk finds
    # nothing within a small budget; denser counts give prefixes of masks
    # with and without cells past the first word.
    cases = [(LatticeKind.SQ, 31), (LatticeKind.SQ, 62), (LatticeKind.KING, 23),
             (LatticeKind.KING, 53), (LatticeKind.KING, 56)]
    high = low = 0
    for kind, count in cases:
        got = py.dom_candidates(kind.value, 9, 8, count, 3000)
        assert got == ck.dom_candidates(kind.value, 9, 8, count, 3000)
        assert not got[1]
        high += sum(1 for m in got[0] if m >> 64)
        low += sum(1 for m in got[0] if not m >> 64)
    assert high >= 10 and low >= 10


@pytest.mark.parametrize("kern", [py, pytest.param(ck, marks=needs_c)],
                         ids=["py", "c"])
def test_dom_candidates_reject_bad_input(kern):
    assert kern.dom_candidates("SQ", 2, 2, 1, 100) == ([], True)
    assert kern.dom_candidates("SQ", 1, 1, 1, 100) == ([1], True)
    assert kern.dom_candidates("SQ", 2**4, 2**5, 2**9 + 1, 100) == ([], True)
    with pytest.raises(ValueError, match="count must be non-negative"):
        kern.dom_candidates("SQ", 2, 2, -1, 100)
    for w, h in ((0, 2), (2, 0), (-1, 1)):
        with pytest.raises(ValueError, match="^the domain needs w >= 1 and h >= 1$"):
            kern.dom_candidates("SQ", w, h, 1, 100)
    with pytest.raises(OverflowError, match="^2147483648 is out of the kernel's range$"):
        kern.dom_candidates("SQ", 2**31, 1, 1, 100)
    for w, h in ((2**4, 2**5 + 1), (2**9 + 1, 1), (2**31 - 1, 2**31 - 1)):
        with pytest.raises(OverflowError, match=f"^a {w}x{h} domain is out of the kernel's range$"):
            kern.dom_candidates("SQ", w, h, 1, 100)
    # the kind is checked last, and is the name of a LatticeKind, not one
    with pytest.raises(ValueError, match="^the domain needs"):
        kern.dom_candidates(None, 0, 1, 1, 100)
    for kind in (None, 5, b"SQ", LatticeKind.SQ, ("SQ",)):
        with pytest.raises(TypeError, match="^kind must be a str$"):
            kern.dom_candidates(kind, 2, 2, 1, 100)
    for kind in ("sq", "", "SQ\0", "KINGS", "Sq", "H\u00c9X"):
        with pytest.raises(ValueError, match=f"^unknown lattice kind {re.escape(repr(kind))}$"):
            kern.dom_candidates(kind, 2, 2, 1, 100)


@pytest.mark.parametrize("kern", [py, pytest.param(ck, marks=needs_c)],
                         ids=["py", "c"])
def test_walk_goes_as_deep_as_the_largest_domain(kern):
    # the walk recurses once per cell: down all 2**9 cells of the largest
    # domain, on the main thread's stack and on a thread's, and back
    def full_walk():
        return kern.dom_candidates("SQ", 2**9, 1, 2**9, 10**6)

    want = ([2**2**9 - 1], True)
    assert full_walk() == want
    with ThreadPoolExecutor(1) as pool:
        assert pool.submit(full_walk).result(timeout=60) == want


@pytest.mark.parametrize("kern", [py, pytest.param(ck, marks=needs_c)],
                         ids=["py", "c"])
def test_backends_reject_the_same_node_budgets(kern):
    # the C kernel counts nodes in a signed 64-bit int
    ctx = kern.make_ctx([[1], [0, 2], [1]])  # P_3
    too_big = "^node_budget does not fit in a signed 64-bit int$"
    for budget, error, match in ((1.5, TypeError, None), (None, TypeError, None),
                                 ("1", TypeError, None), (2**63, OverflowError, too_big),
                                 (-2**63 - 1, OverflowError, too_big),
                                 (2**70, OverflowError, too_big)):
        with pytest.raises(error, match=match):
            kern.bnb(ctx, K.MODE_REDLD, 0, 0, 3, 0, budget, 0.0)
        with pytest.raises(error, match=match):
            kern.dom_candidates("SQ", 2, 2, 1, budget)
    # the ends of the range are taken: no limit, and a stop at the first node
    assert kern.bnb(ctx, K.MODE_REDLD, 0, 0, 3, 0, 2**63 - 1, 0.0) == (0, 3, 0b111, 1)
    assert kern.bnb(ctx, K.MODE_REDLD, 0, 0, 3, 0, -2**63, 0.0) == (2, -1, 0, 1)
    assert kern.dom_candidates("SQ", 2, 2, 1, 2**63 - 1) == ([], True)


@pytest.mark.parametrize("kern", [py, pytest.param(ck, marks=needs_c)],
                         ids=["py", "c"])
def test_backends_reject_the_same_bad_input(kern):
    ctx = kern.make_ctx([[1], [0, 2], [1]])  # P_3
    for mode in (-1, 3):
        with pytest.raises(ValueError, match="unknown mode"):
            kern.brute_force_min(ctx, mode)
    # brute force takes one word of vertices, checked after the mode
    wide = kern.make_ctx([[w for w in (v - 1, v + 1) if 0 <= w < 65] for v in range(65)])
    for mode in (K.MODE_LD, K.MODE_REDLD, K.MODE_REDLD_DEF):
        with pytest.raises(ValueError, match="^brute force takes at most 64 vertices$"):
            kern.brute_force_min(wide, mode)
    with pytest.raises(ValueError, match="unknown mode"):
        kern.brute_force_min(wide, 3)
    # bnb searches by the characterization only: no removal-definition mode;
    # a mode is an int
    for mode in (-1, K.MODE_REDLD_DEF, 7, 1.0):
        with pytest.raises(ValueError, match="unknown mode"):
            kern.bnb(ctx, mode, 0, 0, 3, 0, 0, 0.0)
    for time_budget in (None, "1", 1j):
        with pytest.raises(TypeError, match="^time_budget must be an int or a float$"):
            kern.bnb(ctx, K.MODE_REDLD, 0, 0, 3, 0, 0, time_budget)
    for forced_in, forced_out in ((1 << 3, 0), (0, 1 << 5), (-1, 0), (0, -2)):
        with pytest.raises(IndexError, match="out of range"):
            kern.bnb(ctx, K.MODE_REDLD, forced_in, forced_out, 3, 0, 0, 0.0)
    with pytest.raises(ValueError, match="differ in length"):
        kern.pairs_scan(ctx, [0], [], [])
    # every pair vertex is checked before the scan, even when no candidate
    # would reach the pair
    for us, vs in (([0], [5]), ([-1], [0]), ([0], [3]), ([0, 1], [1, -2]), ([0], [2**70])):
        with pytest.raises(IndexError, match="^vertex out of range$"):
            kern.pairs_scan(ctx, us, vs, [0])
    with pytest.raises(IndexError, match="^vertex out of range$"):
        kern.make_ctx([[5], [0]])
    with pytest.raises(IndexError, match="^vertex out of range$"):
        kern.make_ctx([[1], [-1]])
    # past a 64-bit long, a vertex is as out of range as any other
    for bad in (2**70, -2**70):
        with pytest.raises(IndexError, match="^vertex out of range$"):
            kern.make_ctx([[1, bad], [0]])
    with pytest.raises(ValueError, match="^the kernel needs at least one vertex$"):
        kern.make_ctx([])
    # a negative mask, or one with a bit at n or above, names no vertex; every
    # scan candidate is checked, even one after a mask that passes; a mask
    # that is not an int is a TypeError
    for mask, error, match in [(m, IndexError, "mask names a vertex out of range")
                               for m in (-1, -(1 << 70), 1 << 3, 1 << 70, 0b111 | 1 << 64)] + \
            [(m, TypeError, "^a mask must be an int$") for m in (1.0, None, "1")]:
        for check in (
            lambda: kern.is_ld(ctx, mask),
            lambda: kern.is_redld(ctx, mask),
            lambda: kern.is_redld_def(ctx, mask),
            lambda: kern.pairs_scan(ctx, [0], [1], [mask]),
            lambda: kern.pairs_scan(ctx, [0], [1], [0b111, mask]),
        ):
            with pytest.raises(error, match=match):
                check()
        for forced_in, forced_out in ((mask, 0), (0, mask)):
            with pytest.raises(error):
                kern.bnb(ctx, K.MODE_REDLD, forced_in, forced_out, 3, 0, 0, 0.0)
    # a size or count that is a float, even a whole one, is no int
    for cap, stop_at in ((3.0, 0), (3, 0.0), (3.5, 0)):
        with pytest.raises(TypeError):
            kern.bnb(ctx, K.MODE_REDLD, 0, 0, cap, stop_at, 0, 0.0)
    for count in (1.0, 0.5):
        with pytest.raises(TypeError):
            kern.dom_candidates("SQ", 1, 1, count, 100)
    # a size or count past the C kernel's ints: cap + 1 must fit one, and a
    # value past a 64-bit long does not convert
    for cap, stop_at, count, bad in ((2**31 - 1, 0, 2**31, 2**31 - 1), (2**31, 0, 2**31, 2**31),
                                     (3, 2**31, 2**31, 2**31), (-2**31 - 1, -2**31 - 1, 2**40,
                                                                 -2**31 - 1)):
        with pytest.raises(OverflowError, match=rf"^{bad} is out of the kernel's range$"):
            kern.bnb(ctx, K.MODE_REDLD, 0, 0, cap, stop_at, 0, 0.0)
        with pytest.raises(OverflowError, match=rf"^{count} is out of the kernel's range$"):
            kern.dom_candidates("SQ", 1, 1, count, 100)
    for big in (2**63, -2**63 - 1, 2**70):
        for call in (lambda: kern.bnb(ctx, K.MODE_REDLD, 0, 0, big, 0, 0, 0.0),
                     lambda: kern.bnb(ctx, K.MODE_REDLD, 0, 0, 3, big, 0, 0.0),
                     lambda: kern.dom_candidates("SQ", 1, 1, big, 100),
                     lambda: kern.dom_candidates("SQ", big, 1, 1, 100),
                     lambda: kern.dom_candidates("SQ", 1, big, 1, 100)):
            with pytest.raises(OverflowError, match="^Python int too large to convert to C long$"):
                call()
    # the ends of the ranges are taken
    assert kern.bnb(ctx, K.MODE_REDLD, 0, 0, 2**31 - 2, 2**31 - 1, 0, 0.0)[:2] == (0, 3)
    assert kern.bnb(ctx, K.MODE_REDLD, 0, 0, -2**31, -2**31, 0, 0.0)[:2] == (1, -1)
    assert kern.dom_candidates("SQ", 1, 1, 2**31 - 1, 100) == ([], True)


def test_pairs_scan_checks_domination_too():
    # a mask that distinguishes every pair but leaves a vertex under-dominated fails
    adj = [[1, 2], [0, 2], [0, 1, 3], [2]]
    ctx = py.make_ctx(adj)
    us, vs = [], []
    assert py.pairs_scan(ctx, us, vs, [0b0111]) == -1
    assert py.pairs_scan(ctx, us, vs, [0b0111, 0b1111]) == 1


@needs_c
def test_backends_agree_beyond_512_vertices():
    n = 600
    adj = [sorted(((v - 1) % n, (v + 1) % n)) for v in range(n)]
    cp, cc = py.make_ctx(adj), ck.make_ctx(adj)
    rng = random.Random(6)
    us = list(range(n)) + list(range(n))
    vs = [(v + 1) % n for v in range(n)] + [(v + 2) % n for v in range(n)]
    every_other = sum(1 << v for v in range(0, n, 2))
    masks = [(1 << n) - 1, every_other, ((1 << n) - 1) ^ 1 ^ (1 << 599)] + \
        [rng.getrandbits(n) | every_other for _ in range(3)]
    for m in masks:
        assert py.is_ld(cp, m) == ck.is_ld(cc, m)
        assert py.is_redld(cp, m) == ck.is_redld(cc, m)
        assert py.pairs_scan(cp, us, vs, [m]) == ck.pairs_scan(cc, us, vs, [m])
    for mode in (K.MODE_LD, K.MODE_REDLD):
        got_py = py.bnb(cp, mode, 0, 0, n, 0, 40, 0.0)
        assert got_py == ck.bnb(cc, mode, 0, 0, n, 0, 40, 0.0)
        assert got_py[0] == 2


# what the build tests compile: they test naming and clean-up, not the kernel
TINY_SOURCE = "#include <Python.h>\nint rlk_tiny(void) { return 0; }\n"


@needs_c
def test_build_deletes_libraries_of_other_sources(tmp_path):
    source = tmp_path / "_ckern.c"
    source.write_text(TINY_SOURCE)
    stale = tmp_path / f"_ckern-0123abcd{_build.SUFFIX}"
    stale.write_bytes(b"old")
    # another interpreter's build of this or another source is not stale
    foreign = [tmp_path / "_ckern-0123abcd.cpython-399-x86_64-linux-gnu.so",
               tmp_path / "_ckern-0123abcd.so"]
    for path in foreign:
        path.write_bytes(b"other interpreter")
    other = tmp_path / "other.so"
    other.write_bytes(b"kept")
    target = _build.build(source)
    assert target.name.endswith(_build.SUFFIX)
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted([source.name, target.name, other.name] + [p.name for p in foreign])
    # no compile, no deletion: a module present for another source survives
    stale.write_bytes(b"old")
    assert _build.build(source) == target
    assert stale.exists()


def test_stale_builds_are_this_interpreters_modules_of_other_sources(tmp_path):
    # no compile: the clean-up after one, on files that only look like builds;
    # other interpreters' modules and libraries without a tag are not stale
    digest = "0123456789abcdef" * 4
    target = tmp_path / f"_ckern-{digest}{_build.SUFFIX}"
    stale = [tmp_path / f"_ckern-{'f' * 64}{_build.SUFFIX}",
             tmp_path / f"_ckern-0123abcd{_build.SUFFIX}"]
    kept = [tmp_path / f"_ckern-{digest}.cpython-399-x86_64-linux-gnu.so",
            tmp_path / f"_ckern-{'f' * 64}.so", tmp_path / "_ckern.c", tmp_path / "other.so"]
    for path in [target, *stale, *kept]:
        path.write_bytes(b"")
    _build._remove_stale(target)
    assert sorted(tmp_path.iterdir()) == sorted([target, *kept])


@needs_c
def test_builds_for_two_interpreters_coexist(tmp_path, monkeypatch):
    # two interpreter versions running from one checkout: each builds and
    # keeps its own module, and a rebuild for one leaves the other's alone
    source = tmp_path / "_ckern.c"
    source.write_text(TINY_SOURCE)
    suffix = _build.SUFFIX
    mine = _build.build(source)
    monkeypatch.setattr(_build, "SUFFIX", ".cpython-399-x86_64-linux-gnu.so")
    theirs = _build.build(source)
    assert theirs.name == mine.name.removesuffix(suffix) + _build.SUFFIX
    assert mine.is_file() and theirs.is_file()
    source.write_text(TINY_SOURCE + "\n")  # a new source
    theirs_new = _build.build(source)
    assert not theirs.exists() and mine.is_file() and theirs_new.is_file()
    monkeypatch.undo()
    mine_new = _build.build(source)
    assert not mine.exists() and theirs_new.is_file() and mine_new.is_file()


def test_build_names_a_missing_python_header(tmp_path, monkeypatch):
    import sysconfig

    paths = {**sysconfig.get_paths(), "include": str(tmp_path), "platinclude": str(tmp_path)}
    monkeypatch.setattr(sysconfig, "get_paths", lambda: paths)
    source = tmp_path / "_ckern.c"
    source.write_bytes(_build.SOURCE.read_bytes())
    with pytest.raises(ImportError, match="Python.h is missing"):
        _build.build(source)
    assert sorted(p.name for p in tmp_path.iterdir()) == [source.name]


def test_failed_build_falls_back_to_python(tmp_path, monkeypatch):
    missing_cc = str(tmp_path / "no-such-cc")
    with pytest.raises(ImportError):
        _build.build(cc=missing_cc, directory=tmp_path)
    assert list(tmp_path.iterdir()) == []  # no partly written module is left

    # re-run backend selection with every build failing that way
    real_build = _build.build
    monkeypatch.setattr(_build, "build", lambda: real_build(cc=missing_cc, directory=tmp_path))
    monkeypatch.setattr(redld, "_kernels", K)
    monkeypatch.delitem(sys.modules, "redld._kernels")
    monkeypatch.delitem(sys.modules, "redld._kernels._ckern", raising=False)
    monkeypatch.delenv("REDLD_BACKEND", raising=False)
    assert importlib.import_module("redld._kernels").BACKEND == "py"

    del sys.modules["redld._kernels"]
    sys.modules.pop("redld._kernels._ckern", None)
    monkeypatch.setenv("REDLD_BACKEND", "c")
    with pytest.raises(RuntimeError, match="REDLD_BACKEND=c.*no-such-cc") as raised:
        importlib.import_module("redld._kernels")
    assert isinstance(raised.value.__cause__, ImportError)


# The C search re-checks at each node only what the branch into it changed
# (see dfs in _ckern.c); pybits.bnb recomputes everything and is the oracle.
# Equal return tuples, node counts included, mean equal decisions at every
# node.

def random_tree_adj(n, extra, rng):
    """A random tree on n vertices plus `extra` random chords."""
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        adj[u].add(v)
        adj[v].add(u)
    return [sorted(a) for a in adj]


@needs_c
def test_bnb_agrees_at_every_node_budget():
    # a search cut after any node must agree, incumbent and witness included
    for mode, n, seed in ((K.MODE_REDLD, 14, 2), (K.MODE_LD, 12, 0)):
        adj = random_adj(n, 0.3, random.Random(seed))
        cp, cc = py.make_ctx(adj), ck.make_ctx(adj)
        full = py.bnb(cp, mode, 0, 0, n, 0, 0, 0.0)
        assert full[0] == 0 and full[3] > 100
        values = set()
        for budget in range(1, full[3] + 1):
            got_py = py.bnb(cp, mode, 0, 0, n, 0, budget, 0.0)
            assert got_py == ck.bnb(cc, mode, 0, 0, n, 0, budget, 0.0), budget
            values.add(got_py[1])
        assert got_py == full
        assert len(values) >= 3  # cuts before, between and after incumbents


@needs_c
def test_bnb_agrees_on_leaves_and_isolated_vertices():
    # leaves force their neighbourhoods at the root; an isolated vertex is
    # infeasible for RED:LD and must be in for LD
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(5, 12)
        adj = random_tree_adj(n, rng.randint(0, 2), rng)
        if rng.random() < 0.5:
            adj.append([])
        n = len(adj)
        cp, cc = py.make_ctx(adj), ck.make_ctx(adj)
        for mode in (K.MODE_LD, K.MODE_REDLD):
            forced_in = sum(1 << v for v in range(n) if rng.random() < 0.2)
            args = (mode, forced_in, 0, n, 0, 0, 0.0)
            assert py.bnb(cp, *args) == ck.bnb(cc, *args)


@needs_c
def test_bnb_agrees_with_a_leaf_neighbour_forced_out():
    rng = random.Random(13)
    statuses = set()
    for _ in range(30):
        n = rng.randint(6, 12)
        adj = random_tree_adj(n, rng.randint(0, 3), rng)
        cp, cc = py.make_ctx(adj), ck.make_ctx(adj)
        leaves = [v for v in range(n) if len(adj[v]) == 1]
        if not leaves:
            continue
        for mode in (K.MODE_LD, K.MODE_REDLD):
            leaf = rng.choice(leaves)
            forced_out = 1 << adj[leaf][0]
            forced_out |= sum(1 << v for v in range(n) if rng.random() < 0.15)
            forced_in = sum(1 << v for v in range(n)
                            if not forced_out >> v & 1 and rng.random() < 0.2)
            args = (mode, forced_in, forced_out, n, 0, 0, 0.0)
            got_py = py.bnb(cp, *args)
            assert got_py == ck.bnb(cc, *args)
            statuses.add(got_py[0])
    assert statuses == {0, 1}


@needs_c
def test_bnb_agrees_where_propagation_breaks_a_pair():
    # In these RED:LD searches an OUT branch forces a vertex in, and that
    # vertex, outside N[b], makes an in/out pair fail: a search that does
    # not re-check the pairs of newly forced vertices counts more nodes.
    cases = (
        ([[3, 4, 6], [2, 3, 4, 7], [1, 6, 7], [0, 1, 4, 5], [0, 1, 3, 7], [3, 6],
          [0, 2, 5], [1, 2, 4]], 0),
        ([[1, 2], [0, 3, 4], [0, 4, 5, 7], [1, 6], [1, 2], [2, 6, 7], [3, 5], [2, 5]], 2),
    )
    for adj, forced_in in cases:
        n = len(adj)
        for mode in (K.MODE_LD, K.MODE_REDLD):
            args = (mode, forced_in, 0, n, 0, 0, 0.0)
            assert py.bnb(py.make_ctx(adj), *args) == ck.bnb(ck.make_ctx(adj), *args)


@needs_c
def test_bnb_agrees_across_words():
    # 63 and 64 vertices fill one word, where the C kernel runs its
    # single-word search, and at 64 the complement needs no tail mask; at 65
    # and 130 the settled vertices and the vertices a branch re-checks span
    # two and three words
    rng = random.Random(14)
    statuses = []
    for n in (63, 64, 65, 130):
        for _ in range(3):
            adj = random_tree_adj(n, n // 4, rng)
            cp, cc = py.make_ctx(adj), ck.make_ctx(adj)
            for mode in (K.MODE_LD, K.MODE_REDLD):
                for p_in, p_out in ((0.0, 0.0), (0.5, 0.05), (0.7, 0.1)):
                    forced_in = sum(1 << v for v in range(n) if rng.random() < p_in)
                    forced_out = sum(1 << v for v in range(n)
                                     if not forced_in >> v & 1 and rng.random() < p_out)
                    args = (mode, forced_in, forced_out, n, 0, 400, 0.0)
                    got_py = py.bnb(cp, *args)
                    assert got_py == ck.bnb(cc, *args)
                    statuses.append(got_py[0])
    assert {0, 1, 2} <= set(statuses)


def check_bnb_against_brute_force(kern, mode, lower_bound, graphs, seed):
    # under seeded forced-in and forced-out masks: capped at n the search
    # finds the minimum, capped one below it finds nothing, and the bound the
    # solver starts from is never above the minimum
    rng = random.Random(seed)
    pred = (py.is_ld, py.is_redld)[mode]
    for g in graphs:
        n = g.number_of_nodes()
        adj = [sorted(g[v]) for v in range(n)]
        cp, ctx = py.make_ctx(adj), kern.make_ctx(adj)
        valid = [s for s in range(1 << n) if pred(cp, s)]
        forced = [(0, 0)]
        for _ in range(3):
            forced_in = sum(1 << v for v in range(n) if rng.random() < 0.2)
            forced.append((forced_in, sum(1 << v for v in range(n)
                                          if not forced_in >> v & 1 and rng.random() < 0.25)))
        for forced_in, forced_out in forced:
            best = min((s.bit_count() for s in valid
                        if s & forced_in == forced_in and not s & forced_out), default=None)
            status, value, mask, _ = kern.bnb(ctx, mode, forced_in, forced_out, n, 0, 0, 0.0)
            if best is None:
                assert status == 1
                continue
            assert (status, value) == (0, best)
            assert mask in valid and mask & forced_in == forced_in and not mask & forced_out
            assert kern.bnb(ctx, mode, forced_in, forced_out, best - 1, 0, 0, 0.0)[0] == 1
        lb = lower_bound(Graph(n, list(g.edges)))
        unforced = min(s.bit_count() for s in valid)
        assert lb <= unforced
        assert kern.bnb(ctx, mode, 0, 0, n, lb, 0, 0.0)[:2] == (0, unforced)


@pytest.mark.parametrize("kern", [py, pytest.param(ck, marks=needs_c)],
                         ids=["py", "c"])
def test_ld_bnb_matches_brute_force_on_every_graph_to_7_vertices(kern):
    # every graph of the networkx atlas, all 1,253 with n <= 7 but the empty one
    nx = pytest.importorskip("networkx")
    check_bnb_against_brute_force(kern, K.MODE_LD, _ld_lower_bound, nx.graph_atlas_g()[1:], 16)


@pytest.mark.parametrize("kern", [py, pytest.param(ck, marks=needs_c)],
                         ids=["py", "c"])
def test_redld_bnb_matches_brute_force_on_every_graph_to_7_vertices(kern):
    # the 1,043 graphs of the networkx atlas with n <= 7 and no isolated
    # vertex, where RED:LD sets exist: the coverage bound cuts only subtrees
    # without a valid set
    nx = pytest.importorskip("networkx")
    graphs = [g for g in nx.graph_atlas_g()[1:] if min(d for _, d in g.degree) > 0]
    assert len(graphs) == 1_043
    check_bnb_against_brute_force(kern, K.MODE_REDLD, _redld_lower_bound, graphs, 17)


@needs_c
def test_kernel_built_without_popcount_dispatch(tmp_path, monkeypatch):
    # where dfs has popcnt clones, undefining __ELF__ turns its #if guard
    # off: that plain build must compile and search the same way, in its
    # single-word instance (12 vertices) and its any-width one (70)
    real_build = _build.build
    cc = f"{sysconfig.get_config_var('CC') or 'cc'} -U__ELF__"
    monkeypatch.setattr(_build, "build", lambda: real_build(cc=cc, directory=tmp_path))
    monkeypatch.setattr(K, "_ckern", ck)
    monkeypatch.delitem(sys.modules, "redld._kernels._ckern")
    plain = importlib.import_module("redld._kernels._ckern")
    assert plain is not ck
    rng = random.Random(15)
    for n in (12, 70):
        adj = random_tree_adj(n, n // 3, rng)
        for mode in (K.MODE_LD, K.MODE_REDLD):
            args = (mode, 0, 0, n, 0, 300, 0.0)
            assert plain.bnb(plain.make_ctx(adj), *args) == py.bnb(py.make_ctx(adj), *args)
