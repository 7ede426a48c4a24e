"""Backend equivalence: the compiled kernel and the pure-Python kernel must
agree bit for bit (verdicts, optima, witnesses, and search node counts)."""

import importlib
import random
import sys
import sysconfig
from fractions import Fraction
from itertools import combinations, product

import pytest

import redld
import redld._kernels as K
import redld._kernels.pybits as py
from redld._kernels import _build
from redld.grids import LatticeKind, _fold_constraints
from redld.satreduce import SatInstance, build_reduction

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
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randint(2, 9)
        adj = random_adj(n, rng.uniform(0.2, 0.7), rng)
        for mode in (K.MODE_LD, K.MODE_REDLD, K.MODE_REDLD_DEF):
            assert py.brute_force_min(py.make_ctx(adj), mode) == \
                ck.brute_force_min(ck.make_ctx(adj), mode)


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
        assert py.pairs_ok(cp, m, us, vs) == ck.pairs_ok(cc, m, us, vs)
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
    # superset of it, and both with one or two bits flipped.  All-pairs
    # pairs_ok is RED:LD by the characterization, so it must equal is_redld.
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
            assert py.pairs_ok(cp, m, us, vs) == ck.pairs_ok(cc, m, us, vs) == \
                py.is_redld(cp, m)
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
    kinds = {"found": 0, "exhausted": 0, "prefix": 0}
    for kind, targets in GRID_DENSITIES.items():
        widths = range(2, 7, 2) if kind is LatticeKind.HEX else range(1, 6)
        for w, h in product(widths, range(1, 6)):
            _n, touch = _fold_constraints(kind, w, h)
            for target in targets:
                count = w * h * target.numerator // target.denominator
                for budget in (1, 37, 10_000):
                    got = py.dom_candidates(w * h, touch, count, budget)
                    assert got == ck.dom_candidates(w * h, touch, count, budget)
                    kinds["found"] += bool(got[0])
                    kinds["exhausted" if got[1] else "prefix"] += bool(got[0])
    # candidates found, walks exhausted with candidates, budget-cut prefixes
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
        _n, touch = _fold_constraints(kind, 9, 8)
        got = py.dom_candidates(72, touch, count, 3000)
        assert got == ck.dom_candidates(72, touch, count, 3000)
        assert not got[1]
        high += sum(1 for m in got[0] if m >> 64)
        low += sum(1 for m in got[0] if not m >> 64)
    assert high >= 10 and low >= 10


@pytest.mark.parametrize("kern", [py, pytest.param(ck, marks=needs_c)],
                         ids=["py", "c"])
def test_dom_candidates_reject_bad_input(kern):
    touch = [[(0, 1), (1, 1)], [(1, 2)]]
    assert kern.dom_candidates(2, touch, 1, 100) == ([], True)
    with pytest.raises(ValueError, match="non-negative"):
        kern.dom_candidates(2, touch, -1, 100)
    with pytest.raises(ValueError, match="one list per cell"):
        kern.dom_candidates(3, touch, 1, 100)
    with pytest.raises(IndexError):
        kern.dom_candidates(2, [[(0, 1)], [(-1, 1)]], 1, 100)


@pytest.mark.parametrize("kern", [py, pytest.param(ck, marks=needs_c)],
                         ids=["py", "c"])
def test_backends_reject_the_same_bad_input(kern):
    ctx = kern.make_ctx([[1], [0, 2], [1]])  # P_3
    for mode in (-1, 3):
        with pytest.raises(ValueError, match="unknown mode"):
            kern.brute_force_min(ctx, mode)
    # bnb searches by the characterization only: no removal-definition mode
    for mode in (-1, K.MODE_REDLD_DEF, 7):
        with pytest.raises(ValueError, match="unknown mode"):
            kern.bnb(ctx, mode, 0, 0, 3, 0, 0, 0.0)
    for forced_in, forced_out in ((1 << 3, 0), (0, 1 << 5), (-1, 0), (0, -2)):
        with pytest.raises(IndexError, match="out of range"):
            kern.bnb(ctx, K.MODE_REDLD, forced_in, forced_out, 3, 0, 0, 0.0)
    with pytest.raises(ValueError, match="differ in length"):
        kern.pairs_ok(ctx, 0b111, [0, 1], [2])
    with pytest.raises(ValueError, match="differ in length"):
        kern.pairs_scan(ctx, [0], [], [])
    # a negative mask, or one with a bit at n or above, names no vertex; every
    # scan candidate is checked, even one after a mask that passes; a mask
    # that is not an int is a TypeError
    for mask, error, match in [(m, IndexError, "mask names a vertex out of range")
                               for m in (-1, -(1 << 70), 1 << 3, 1 << 70, 0b111 | 1 << 64)] + \
            [(m, TypeError, None) for m in (1.0, None, "1")]:
        for check in (
            lambda: kern.is_ld(ctx, mask),
            lambda: kern.is_redld(ctx, mask),
            lambda: kern.is_redld_def(ctx, mask),
            lambda: kern.pairs_ok(ctx, mask, [0], [1]),
            lambda: kern.pairs_scan(ctx, [0], [1], [mask]),
            lambda: kern.pairs_scan(ctx, [0], [1], [0b111, mask]),
        ):
            with pytest.raises(error, match=match):
                check()
        for forced_in, forced_out in ((mask, 0), (0, mask)):
            with pytest.raises(error):
                kern.bnb(ctx, K.MODE_REDLD, forced_in, forced_out, 3, 0, 0, 0.0)


def test_pairs_ok_checks_domination_too():
    # a mask that distinguishes every pair but leaves a vertex under-dominated fails
    adj = [[1, 2], [0, 2], [0, 1, 3], [2]]
    ctx = py.make_ctx(adj)
    us, vs = [], []
    assert not py.pairs_ok(ctx, 0b0111, us, vs)
    assert py.pairs_ok(ctx, 0b1111, us, vs)


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
        assert py.pairs_ok(cp, m, us, vs) == ck.pairs_ok(cc, m, us, vs)
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


def test_stale_builds_include_untagged_ctypes_libraries(tmp_path):
    # no compile: the clean-up after one, on files that only look like builds
    digest = "0123456789abcdef" * 4
    target = tmp_path / f"_ckern-{digest}{_build.SUFFIX}"
    stale = [tmp_path / f"_ckern-{'f' * 64}{_build.SUFFIX}", tmp_path / f"_ckern-{digest}.so"]
    kept = [tmp_path / f"_ckern-{digest}.cpython-399-x86_64-linux-gnu.so",
            tmp_path / f"_ckern-{'A' * 64}.so", tmp_path / f"_ckern-{digest}0.so",
            tmp_path / "_ckern-0123abcd.so", tmp_path / "_ckern.c", tmp_path / "other.so"]
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
    for mode, n, seed in ((K.MODE_REDLD, 14, 2), (K.MODE_LD, 10, 0)):
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
    # 65 and 130 vertices: the settled vertices and the vertices a branch
    # re-checks span two and three words
    rng = random.Random(14)
    statuses = []
    for n in (65, 130):
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


@needs_c
def test_kernel_built_without_popcount_dispatch(tmp_path, monkeypatch):
    # where dfs has a popcnt clone, undefining __ELF__ turns its #if guard
    # off: that plain build must compile and search the same way
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
