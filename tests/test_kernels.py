"""Backend equivalence: the compiled kernel and the pure-Python kernel must
agree bit for bit (verdicts, optima, witnesses, and search node counts)."""

import importlib
import random
import sys
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


@needs_c
def test_bnb_agrees_on_reduction_graphs():
    # the searches of decide_via_redld on 6- and 7-variable formulas (102 to
    # 147 vertices, two or three words per vertex set): sparse graphs whose
    # vertex pairs are mostly at distance 3 or more
    rng = random.Random(9)
    unsat = [(a * 1, b * 2, c * 3) for a, b, c in product((1, -1), repeat=3)]
    formulas = [SatInstance(6, tuple(unsat) + ((4, -5, 6), (-4, 5, -6)))]
    for n_vars in (6, 7, 7):
        clauses = []
        for _ in range(rng.randint(2 * n_vars, 3 * n_vars)):
            clauses.append(tuple(v * rng.choice((1, -1))
                                 for v in rng.sample(range(1, n_vars + 1), 3)))
        formulas.append(SatInstance(n_vars, tuple(clauses)))
    statuses = set()
    for phi in formulas:
        art = build_reduction(phi)
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
    for n in (63, 64, 65, 127, 128, 130):
        path = [[w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)]
        cycle = [sorted({(v - 1) % n, (v + 1) % n}) for v in range(n)]
        square = [sorted({(v + d) % n for d in (-2, -1, 1, 2)}) for v in range(n)]
        for adj in (path, cycle, square):
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
    with pytest.raises(ValueError, match="differ in length"):
        kern.pairs_ok(ctx, 0b111, [0, 1], [2])
    with pytest.raises(ValueError, match="differ in length"):
        kern.pairs_scan(ctx, [0], [], [])


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


@needs_c
def test_build_deletes_libraries_of_other_sources(tmp_path):
    source = tmp_path / "_ckern.c"
    source.write_bytes(_build.SOURCE.read_bytes())
    stale = tmp_path / "_ckern-0123abcd.so"
    stale.write_bytes(b"old")
    other = tmp_path / "other.so"
    other.write_bytes(b"kept")
    target = _build.build(source)
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted([source.name, target.name, other.name])
    # no compile, no deletion: a library present for another source survives
    stale.write_bytes(b"old")
    assert _build.build(source) == target
    assert stale.exists()


def test_failed_build_falls_back_to_python(tmp_path, monkeypatch):
    missing_cc = str(tmp_path / "no-such-cc")
    with pytest.raises(ImportError):
        _build.build(cc=missing_cc, directory=tmp_path)
    assert list(tmp_path.iterdir()) == []  # no partly written library is left

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
    with pytest.raises(RuntimeError, match="REDLD_BACKEND=c"):
        importlib.import_module("redld._kernels")
