"""The C kernel's CPython binding: exhaustive agreement with the pure-Python
kernel on small graphs and at the word boundaries of masks, rejection of bad
arguments, no reference leaks on the paths that return or raise, and time
limits on both backends.  tests/test_kernels.py has the rest of the
agreement tests and the bad input both backends reject alike."""

import gc
import sys
import time
from itertools import combinations, product

import pytest

import redld._kernels as K
import redld._kernels.pybits as py

try:
    import redld._kernels._ckern as ck
except ImportError:
    ck = None

needs_c = pytest.mark.skipif(ck is None, reason="compiled kernel not built")

KERNELS = [py, pytest.param(ck, marks=needs_c)]
IDS = ["py", "c"]


def every_graph(n):
    """Every labelled graph on n vertices, as adjacency tuples."""
    slots = list(combinations(range(n), 2))
    for picks in product((0, 1), repeat=len(slots)):
        adj = [[] for _ in range(n)]
        for (u, v), take in zip(slots, picks):
            if take:
                adj[u].append(v)
                adj[v].append(u)
        yield tuple(map(tuple, adj))


@needs_c
def test_predicates_agree_on_every_small_graph():
    # 1,099 graphs with n <= 5, every mask, all three modes
    checked = 0
    for n in range(1, 6):
        for adj in every_graph(n):
            cp, cc = py.make_ctx(adj), ck.make_ctx(adj)
            assert cc.n == n
            for mask in range(1 << n):
                for name in ("is_ld", "is_redld", "is_redld_def"):
                    assert getattr(py, name)(cp, mask) == getattr(ck, name)(cc, mask), \
                        (adj, mask, name)
                checked += 1
    assert checked == sum(2 ** (n * (n - 1) // 2) * 2 ** n for n in range(1, 6))


@needs_c
def test_verdicts_run_no_python_frame_of_the_kernel():
    # the selected backend binds the extension's predicates themselves, and
    # the extension is not entered in sys.modules under a name of its own
    if K.BACKEND == "c":
        for name in ("make_ctx", "is_ld", "is_redld", "is_redld_def"):
            assert getattr(K, name) is getattr(ck._ext, name)
            assert type(getattr(K, name)).__name__ == "builtin_function_or_method"
    assert not [key for key, mod in sys.modules.items() if mod is ck._ext]


@needs_c
@pytest.mark.parametrize("n", [63, 64, 65, 128, 130])
def test_backends_agree_on_masks_at_the_word_boundaries(n):
    # masks just inside and outside the graph, inside and outside the words
    # the graph's sets take, on both sides of the fast path for 63 vertices
    adj = path_adj(n)
    cp, cc = py.make_ctx(adj), ck.make_ctx(adj)
    top = 64 * ((n + 63) // 64)
    masks = [(1 << n) - 1, 1 << (n - 1), (1 << 63) - 1, 1 << 63, 1 << 62 | 1 << n - 1,
             1 << n, 1 << top, 1 << top + 9, (1 << n) - 1 | 1 << 200, -(1 << n), -1]
    for mask in masks:
        for name in ("is_ld", "is_redld"):
            got = []
            for kern, ctx in ((py, cp), (ck, cc)):
                try:
                    got.append(getattr(kern, name)(ctx, mask))
                except IndexError:
                    got.append(IndexError)
            assert got[0] == got[1], (n, mask, name)


@needs_c
def test_c_functions_reject_a_python_context():
    ctx = py.make_ctx(((1,), (0, 2), (1,)))
    for call in (
        lambda: ck.is_ld(ctx, 0b111),
        lambda: ck.is_redld(ctx, 0b111),
        lambda: ck.is_redld_def(ctx, 0b111),
        lambda: ck.brute_force_min(ctx, K.MODE_REDLD),
        lambda: ck.pairs_ok(ctx, 0b111, [0], [1]),
        lambda: ck.pairs_scan(ctx, [0], [1], [0b111]),
        lambda: ck.bnb(ctx, K.MODE_REDLD, 0, 0, 3, 0, 0, 0.0),
        lambda: ck.is_redld(None, 0b111),
    ):
        with pytest.raises(TypeError, match="make_ctx"):
            call()


@needs_c
def test_c_functions_reject_bad_arguments():
    ctx = ck.make_ctx(((1,), (0, 2), (1,)))
    with pytest.raises(TypeError):
        ck.is_redld(ctx)
    with pytest.raises(TypeError):
        ck.is_redld(ctx, 0b111, 0)
    with pytest.raises(TypeError):
        ck.is_redld(ctx=ctx, s=0b111)
    with pytest.raises(TypeError):
        ck.Ctx(((1,), (0,)))
    with pytest.raises(ValueError, match="at least one vertex"):
        ck.make_ctx(())
    with pytest.raises(IndexError, match="vertex out of range"):
        ck.make_ctx(((1,), (0, 2)))
    with pytest.raises(IndexError, match="vertex out of range"):
        ck.make_ctx(((-1,), (0,)))
    with pytest.raises(TypeError):
        ck.make_ctx(((1.0,), (0,)))
    with pytest.raises(TypeError):
        ck.make_ctx((1, 0))
    with pytest.raises(TypeError):
        ck.make_ctx(5)
    with pytest.raises(IndexError, match="vertex out of range"):
        ck.pairs_scan(ctx, [0], [3], [0b111])
    with pytest.raises(TypeError):
        ck.pairs_scan(ctx, [0], ["a"], [0b111])
    with pytest.raises(ValueError, match="unknown mode"):
        ck._ext.brute_force_min(ctx, 3)
    with pytest.raises(ValueError, match="unknown mode"):
        ck._ext.bnb(ctx, K.MODE_REDLD_DEF, 0, 0, 3, 0, 0, -1.0)
    with pytest.raises(ValueError, match="differ in length"):
        ck._ext.pairs_scan(ctx, [0, 1], [2], [0b111])
    for touch, error in (([[(0,)]], ValueError), ([[("a", 1)]], TypeError),
                         ([5], TypeError), ([[5]], TypeError), ([[(-1, 1)]], IndexError)):
        with pytest.raises(error):
            ck.dom_candidates(1, touch, 1, 100)
    with pytest.raises(ValueError, match="one list per cell"):
        ck._ext.dom_candidates([], 1, 100)


class Shrinking:
    """An int-like vertex whose conversion empties the list it sits in."""

    def __init__(self, value, home):
        self.value, self.home = value, home

    def __index__(self):
        self.home.clear()
        return self.value


@needs_c
def test_arguments_are_read_from_a_copy():
    # converting an item runs Python code, which may resize the list being
    # read: the binding reads a tuple copy, so the call sees the list as it
    # was when the call began
    row = [None, 2]
    row[0] = Shrinking(1, row)
    adj = [row, [0], [0]]
    ctx = ck.make_ctx(adj)
    assert row == [] and adj[0] == []
    expected = py.make_ctx([[1, 2], [0], [0]])
    assert [ck.is_ld(ctx, m) for m in range(8)] == [py.is_ld(expected, m) for m in range(8)]
    us = [None, 0]
    us[0] = Shrinking(0, us)
    assert ck.pairs_scan(ctx, us, [1, 2], [0b111]) == \
        py.pairs_scan(expected, [0, 0], [1, 2], [0b111])


def path_adj(n):
    return tuple(tuple(w for w in (v - 1, v + 1) if 0 <= w < n) for v in range(n))


@needs_c
def test_calls_leave_no_reference_behind():
    # A refcount bug in the binding leaks or frees the caller's objects: the
    # counts of contexts, of 130-bit masks and of the argument tuples (which
    # the binding reads without copying) stay put over 10,000 rounds of calls
    # that return and calls that raise, and no objects pile up.
    n = 130
    adj, bad_adj = path_adj(n), ((1,), (0, 2))
    ctx, pctx, small = ck.make_ctx(adj), py.make_ctx(adj), ck.make_ctx(path_adj(6))
    mask = (1 << n) - 1 - (1 << 64) - (1 << 100)
    wide = mask | 1 << n
    us, vs, cands, bad_cands = (0, 64), (1, 65), (mask, 0), (mask, wide)
    touch = (((0, 1), (1, 1)), ((1, 2),))
    watched = (adj, adj[0], bad_adj, ctx, pctx, small, mask, wide, us, vs, cands, bad_cands,
               touch, touch[0], touch[0][0])
    calls = (
        lambda k, c, s: k.make_ctx(adj).n,
        lambda k, c, s: (k.is_ld(c, mask), k.is_redld(c, mask), k.is_redld_def(s, 0b110111)),
        lambda k, c, s: k.pairs_scan(c, us, vs, cands),
        lambda k, c, s: k.bnb(c, K.MODE_REDLD, mask, 0, n, 0, 3, 0.0),
        lambda k, c, s: k.brute_force_min(s, K.MODE_REDLD),
        lambda k, c, s: k.dom_candidates(2, touch, 1, 100),
    )
    raising = (
        lambda: ck.make_ctx(bad_adj),
        lambda: ck.is_redld(ctx, wide),
        lambda: ck.is_ld(pctx, mask),
        lambda: ck.pairs_scan(ctx, us, vs, bad_cands),
        lambda: ck._ext.bnb(ctx, K.MODE_REDLD, wide, 0, n, 0, 3, 0.0),
    )
    expected = [call(py, pctx, py.make_ctx(path_adj(6))) for call in calls]

    def rounds(count):
        for _ in range(count):
            assert [call(ck, ctx, small) for call in calls] == expected
            for call in raising:
                with pytest.raises((IndexError, TypeError)):
                    call()

    rounds(10)  # fills the caches and free lists of the interpreter and pytest
    gc.collect()  # empties the free lists, which the block count would see fill
    # With the collector off, a reference cycle made by a call stays, and
    # holds what it holds: the pure-Python kernel runs once more here, as its
    # recursive searches must leave no cycle either.
    gc.disable()
    try:
        refs, blocks = [sys.getrefcount(x) for x in watched], sys.getallocatedblocks()
        assert [call(py, pctx, py.make_ctx(path_adj(6))) for call in calls] == expected
        rounds(10_000)
        assert [sys.getrefcount(x) for x in watched] == refs
        assert gc.collect() == 0
        assert sys.getallocatedblocks() - blocks < 1000
    finally:
        gc.enable()


@pytest.mark.parametrize("kern", KERNELS, ids=IDS)
def test_passed_deadline_stops_search_at_first_node(kern):
    # a search of fewer than 1,024 nodes still reads the clock at each node
    adj = tuple(tuple(w for w in range(12) if w != v and (v * w) % 5 < 2) for v in range(12))
    ctx = kern.make_ctx(adj)
    for mode in (K.MODE_LD, K.MODE_REDLD):
        status, value, witness, nodes = kern.bnb(ctx, mode, 0, 0, 12, 0, 0, 0.0)
        assert status == 0 and 1 < nodes < 1024
        assert kern.bnb(ctx, mode, 0, 0, 12, 0, 0, time.monotonic() - 1.0) == (2, -1, 0, 1)
        # a deadline far off changes nothing
        assert kern.bnb(ctx, mode, 0, 0, 12, 0, 0, time.monotonic() + 3600.0) == \
            (status, value, witness, nodes)
