"""The C kernel's CPython binding: exhaustive agreement with the pure-Python
kernel on small graphs and at the word boundaries of masks, rejection of bad
arguments, no reference leaks on the paths that return or raise, and time
limits on both backends.  tests/test_kernels.py has the rest of the
agreement tests and the bad input both backends reject alike."""

import copy
import gc
import pickle
import sys
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import redld._kernels as K
import redld._kernels.pybits as py
from redld.graph import build_path
from redld.grids import LatticeKind
from redld.trees import prufer_decode

try:
    import redld._kernels._ckern as ck
except ImportError:
    ck = None

try:
    import numpy as np
except ImportError:
    np = None

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
    # every kernel name of the compiled backend, and of the selected backend
    # when that is it, is the extension's own function; the extension is not
    # entered in sys.modules under a name of its own
    for name in ("make_ctx", "mask_of", "is_ld", "is_redld", "is_redld_def", "report",
                 "brute_force_min", "pairs_scan", "dom_candidates", "bnb", "tree_code",
                 "tree_orbits"):
        assert getattr(ck, name) is getattr(ck._ext, name)
        assert type(getattr(ck, name)).__name__ == "builtin_function_or_method"
        if K.BACKEND == "c":
            assert getattr(K, name) is getattr(ck._ext, name)
    # the report type is the extension's own, so constructing one runs no
    # Python __new__ or __init__
    assert ck.Report is ck._ext.Report and "__init__" not in vars(ck.Report)
    if K.BACKEND == "c":
        assert K.Report is ck.Report
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


@pytest.mark.parametrize("kern", KERNELS, ids=IDS)
def test_mask_of_reads_vertices_once(kern):
    assert kern.mask_of(5, []) == 0
    assert kern.mask_of(5, [4, 0, 4, 0]) == 0b10001
    assert kern.mask_of(130, (v for v in (129, 0, 64, 63))) == 1 << 129 | 1 << 64 | 1 << 63 | 1
    assert kern.mask_of(130, range(130)) == (1 << 130) - 1
    gen = iter([1, 2, 9, 3])
    # the first vertex out of range is named, before any shift: 10**30 is
    # checked, not turned into a mask
    with pytest.raises(ValueError, match="^detector 9 out of range for n=5$"):
        kern.mask_of(5, gen)
    assert list(gen) == [3]
    with pytest.raises(ValueError, match="^detector 1000000000000000000000000000000 "):
        kern.mask_of(5, [0, 10**30, -1])
    with pytest.raises(ValueError, match="^detector -1 out of range for n=5$"):
        kern.mask_of(5, [-1, 10**30])
    for bad in (4.0, "1", None):
        with pytest.raises(TypeError):
            kern.mask_of(5, [0, bad])
    for n in (1.0, "5", None):
        with pytest.raises(TypeError):
            kern.mask_of(n, [0])
    with pytest.raises(OverflowError):
        kern.mask_of(-1, [])
    with pytest.raises(TypeError):
        kern.mask_of(5, 3)


class Vertex(int):
    """An int subclass, which the C kernel reads through its iterator path."""


def mask_of_cases():
    """(n, make the input) pairs: each kind of container, the items that a
    list or tuple of small ints read in place turns down, and inputs with two
    bad items, of which the first is the one to report."""
    cases = [(n, lambda kind=kind: kind([3, 0, 63, 3])) for n in (64, 130)
             for kind in (list, tuple, set, lambda xs: (x for x in xs))]
    cases += [(70, lambda: range(70)), (64, lambda: range(3, 64, 7)), (64, lambda: []),
              (64, lambda: ())]
    items = [True, Vertex(5), 64, 127, 2**70, -1, -2**70, 4.0, None]
    if np is not None:
        items.append(np.int64(7))
    for n in (1, 5, 63, 64, 65, 130):
        for item in items + [n, n - 1]:
            for kind in (list, tuple):
                cases.append((n, lambda item=item, kind=kind: kind([0, item, 0])))
    for n in (5, 64):
        for first, second in ((70, -1), (-1, 70), (n, 2**70), (4.0, 99), (99, None), (True, 99)):
            for kind in (list, tuple):
                cases.append((n, lambda a=first, b=second, kind=kind: kind([1, a, b])))
    return cases


@pytest.mark.parametrize("kern", KERNELS, ids=IDS)
def test_mask_of_agrees_by_input_kind(kern):
    # the same int, or the same exception type and message, as pybits gives;
    # pybits says the mask is the OR of 1 << v over the items in order, and
    # names the first bad item
    def outcome(k, n, make):
        try:
            return k.mask_of(n, make())
        except Exception as exc:
            return type(exc), str(exc)

    outcomes = [outcome(kern, n, make) for n, make in mask_of_cases()]
    assert outcomes == [outcome(py, n, make) for n, make in mask_of_cases()]
    assert outcomes[:2] == [1 << 63 | 0b1001] * 2
    assert (ValueError, "detector 70 out of range for n=5") in outcomes
    assert (ValueError, "detector -1 out of range for n=64") in outcomes
    assert 1 << 64 | 1 in outcomes and 1 << 5 | 1 in outcomes


# Items of every kind a caller may hand in as a detector: vertex ids in and
# out of range of every n tried, past 64 bits, bools, numpy ints (what
# np.flatnonzero gives), and items that are no int at all.
DETECTOR_ITEMS = st.one_of(
    st.integers(-3, 135),
    st.integers(-2**70, -1),
    st.integers(2**64, 2**80),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=2),
    st.none(),
    *((st.integers(-3, 135).map(np.int64), st.integers(0, 255).map(np.uint8))
      if np is not None else ()),
)
CONTAINERS = {"list": list, "tuple": tuple, "generator": lambda items: (v for v in items),
              "set": set}


@needs_c
@settings(max_examples=400, deadline=None)
@given(n=st.sampled_from((1, 5, 63, 64, 65, 130)), items=st.lists(DETECTOR_ITEMS, max_size=10),
       container=st.sampled_from(sorted(CONTAINERS)))
def test_backends_build_the_same_mask(n, items, container):
    # the same int, or the same exception type and message
    def outcome(kern):
        try:
            return kern.mask_of(n, CONTAINERS[container](items))
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(ck) == outcome(py)


# How a test hands rows to make_ctx: each container is made afresh per call,
# as make_ctx reads an iterator once.
ROW_CONTAINERS = {
    "lists": lambda rows: [list(row) for row in rows],
    "tuples": lambda rows: tuple(map(tuple, rows)),
    "map rows": lambda rows: [map(lambda w: w, row) for row in rows],
    "generator": lambda rows: (list(row) for row in rows),
}


@st.composite
def predicate_arguments(draw):
    """Rows of a graph on 1 to 130 vertices, some neighbours repeated, now
    and then with one entry out of range or no int (a float or None), in
    one of ROW_CONTAINERS, and masks of every kind: near the full set, so
    that some verdicts are yes, random, past the graph or its words,
    negative, bools, numpy ints, floats, str and None."""
    n = draw(st.integers(1, 130))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    adj = [sorted(row) for row in adj]
    for v in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        if adj[v]:
            adj[v].insert(draw(st.integers(0, len(adj[v]))), draw(st.sampled_from(adj[v])))
    if draw(st.integers(0, 9)) == 0:
        draw(st.sampled_from(adj)).append(
            draw(st.sampled_from((-1, n, n + 64, 2**70, 0.0, 1.5, None))))
    full = (1 << n) - 1
    masks = st.lists(st.one_of(
        st.integers(0, full).map(lambda m: full ^ (m & m >> 1 & m >> 2)),
        st.integers(0, full),
        st.integers(full + 1, 2**200),
        st.integers(-2**140, -1),
        st.booleans(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=2),
        st.none(),
        *((st.integers(-3, 2**62).map(np.int64), st.integers(0, 255).map(np.uint8))
          if np is not None else ()),
    ), min_size=1, max_size=6)
    return adj, draw(masks), draw(st.sampled_from(sorted(ROW_CONTAINERS)))


@needs_c
@settings(max_examples=300, deadline=None)
@given(args=predicate_arguments())
@example(args=([[1], [0]], [3, True, False, 4, -1], "lists"))
@example(args=([[(v + 1) % 64, (v - 1) % 64] for v in range(64)], [2**64 - 1, 2**64, 2**63],
               "lists"))
@example(args=([[1, 1], [0]], [3], "lists"))
@example(args=([[1, 2], [0, 2], [1, 0]], [0b111], "map rows"))
@example(args=([[1, 2], [0, 2], [1, 0]], [0b111], "generator"))
@example(args=([[1], [0.0]], [3], "lists"))
def test_backends_judge_the_same_masks(args):
    # make_ctx raises alike, or each predicate gives the same bool or the
    # same exception type and message on both backends
    adj, masks, container = args

    def outcome(call, *call_args):
        try:
            return call(*call_args)
        except Exception as exc:
            return type(exc), str(exc)

    cp = outcome(py.make_ctx, ROW_CONTAINERS[container](adj))
    cc = outcome(ck.make_ctx, ROW_CONTAINERS[container](adj))
    if isinstance(cp, tuple):
        assert cp == cc
        return
    assert cc.n == cp.n == len(adj)
    for mask in masks:
        for name in ("is_ld", "is_redld", "is_redld_def"):
            got = outcome(getattr(py, name), cp, mask)
            assert got == outcome(getattr(ck, name), cc, mask), (name, mask)
            assert isinstance(got, (bool, tuple))


@pytest.mark.parametrize("kern", KERNELS, ids=IDS)
def test_report_holds_the_verdict_in_read_only_fields(kern):
    class Sub(kern.Report):
        __slots__ = ()
        inits = []

        def __init__(self, *args):
            Sub.inits.append(args)

    g, ctx = object(), kern.make_ctx(path_adj(3))
    for mode, name, pred in ((K.MODE_LD, "ld", kern.is_ld), (K.MODE_REDLD, "redld", kern.is_redld),
                             (K.MODE_REDLD_DEF, "redld-def", kern.is_redld_def), (True, "redld",
                                                                                  kern.is_redld)):
        for mask in range(8):
            for cls in (kern.Report, Sub):
                rep = kern.report(cls, ctx, mode, g, mask)
                assert type(rep) is cls
                assert (rep.mode, rep.ok, rep._g, rep._mask, rep._violations) == \
                    (name, pred(ctx, mask), g, mask, None)
    assert Sub.inits == []  # report() calls no __init__
    made = kern.Report(mode="ld", ok=2, g=g, mask=5)
    assert (made.mode, made.ok, made._g, made._mask, made._violations) == ("ld", True, g, 5, None)
    assert kern.Report("ld", [], g, 5).ok is False
    for rep in (made, kern.report(Sub, ctx, K.MODE_REDLD, g, 0b111)):
        for name in ("mode", "ok", "_g", "_mask"):
            before = getattr(rep, name)
            with pytest.raises(AttributeError):
                setattr(rep, name, False)
            with pytest.raises(AttributeError):
                delattr(rep, name)
            assert getattr(rep, name) is before
        rep._violations = [("DOM2", (0,))]  # the one writable slot, a cache
        assert rep._violations == [("DOM2", (0,))]
        with pytest.raises(AttributeError):
            rep.other = 1
        # a copy is made from the four fields, without the cache
        twin = copy.copy(rep)
        assert type(twin) is type(rep) and twin is not rep
        assert (twin.mode, twin.ok, twin._g, twin._mask, twin._violations) == \
            (rep.mode, rep.ok, g, rep._mask, None)
    back = pickle.loads(pickle.dumps(kern.Report("redld-def", False, (1, 2), 6)))
    assert (back.mode, back.ok, back._g, back._mask, back._violations) == \
        ("redld-def", False, (1, 2), 6, None)


def report_cases(kern):
    """report() argument lists for kern, whose class and context stand in
    for "R" and "ctx": valid ones, one fault each (class, context, mode,
    mask), and two faults, of which the first named is the one to raise."""
    ctx = kern.make_ctx(path_adj(3))
    other = (ck if kern is py else py).make_ctx(path_adj(3))
    cases = [(kern.Report, ctx, mode, "g", mask) for mode in (0, 1, 2, True, False)
             for mask in (0, 0b101, 0b111)]
    for cls in (int, None, "Report", object):
        cases.append((cls, ctx, K.MODE_REDLD, "g", 0b111))
    for c in (None, 5, other, path_adj(3)):
        cases.append((kern.Report, c, K.MODE_REDLD, "g", 0b111))
    for mode in (3, -1, 1.0, None, 2**70, "1"):
        cases.append((kern.Report, ctx, mode, "g", 0b111))
    for mask in (0b1000, -1, 2**70, 1.0, None):
        cases.append((kern.Report, ctx, K.MODE_REDLD, "g", mask))
    cases += [(int, None, K.MODE_REDLD, "g", 0b111), (kern.Report, None, 3, "g", 0b111),
              (kern.Report, ctx, 3, "g", -1), (None, ctx, K.MODE_REDLD, "g", None)]
    return cases


@needs_c
def test_backends_report_alike():
    # the same fields, or the same exception type and message, in the same
    # order of checks
    def outcome(kern, args):
        try:
            rep = kern.report(*args)
        except Exception as exc:
            return type(exc), str(exc)
        return type(rep) is kern.Report, rep.mode, rep.ok, rep._g, rep._mask, rep._violations

    got = [outcome(ck, args) for args in report_cases(ck)]
    assert got == [outcome(py, args) for args in report_cases(py)]
    assert (True, "redld-def", True, "g", 0b111, None) in got
    assert (TypeError, "cls must be a subclass of Report, not <class 'int'>") in got
    assert (TypeError, "expected a context made by this kernel's make_ctx, not Ctx") in got
    for kern in (py, ck):
        with pytest.raises(TypeError):
            kern.report(kern.Report, kern.make_ctx(path_adj(3)), K.MODE_REDLD, "g")


@needs_c
def test_c_report_rejects_a_class_that_is_no_report():
    # a class whose instances are not laid out as a Report, given to the C
    # kernel, raises instead of being written into
    ctx = ck.make_ctx(path_adj(3))
    instance = ck.Report("redld", True, None, 0b111)
    for cls in (int, object, py.Report, type("Sub", (py.Report,), {"__slots__": ()}),
                type("Look", (), {"__slots__": ("mode", "ok", "_g", "_mask", "_violations")}),
                instance, "Report", None):
        with pytest.raises(TypeError, match="^cls must be a subclass of Report, not "):
            ck.report(cls, ctx, K.MODE_REDLD, None, 0b111)


@pytest.mark.parametrize("kern", KERNELS, ids=IDS)
def test_make_ctx_reads_a_row_as_the_set_of_its_entries(kern):
    # a repeated neighbour is one neighbour, in the predicates and in branch
    # and bound, whose branch order follows the degrees
    rows = [[1, 1, 2, 3], [0, 2], [0, 1, 3, 3, 0], [0, 2]]
    twice, once = kern.make_ctx(rows), kern.make_ctx([sorted(set(row)) for row in rows])
    for mask in range(16):
        for name in ("is_ld", "is_redld", "is_redld_def"):
            assert getattr(kern, name)(twice, mask) == getattr(kern, name)(once, mask)
    for mode in (K.MODE_LD, K.MODE_REDLD):
        for cap in range(5):
            assert kern.bnb(twice, mode, 0, 0, cap, 0, 0, 0.0) == \
                kern.bnb(once, mode, 0, 0, cap, 0, 0, 0.0)


@st.composite
def bnb_arguments(draw):
    """A graph on at most 8 vertices, isolated vertices allowed, with bnb's
    other arguments, valid, of which none, one or two are then swapped for a
    value out of range or of the wrong type.  Valid time budgets either stop
    the search at its first node or never, so both backends stop alike."""
    n = draw(st.integers(1, 8))
    slots = list(combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    adj = [[] for _ in range(n)]
    for (u, v), take in zip(slots, picks):
        if take:
            adj[u].append(v)
            adj[v].append(u)
    # each vertex free, forced in, forced out, or (rarely) both
    roles = draw(st.lists(st.sampled_from("ffffffffffiob"), min_size=n, max_size=n))
    args = [draw(st.sampled_from((K.MODE_LD, K.MODE_REDLD))),
            sum(1 << v for v, r in enumerate(roles) if r in "ib"),
            sum(1 << v for v, r in enumerate(roles) if r in "ob"),
            draw(st.integers(-1, n + 1)), draw(st.integers(-1, n)),
            draw(st.one_of(st.just(0), st.integers(-2, 300))),
            draw(st.sampled_from((0.0, 0, -0.0, -1.0, -1, 3600.0, 3600, float("inf"),
                                  float("-inf"), float("nan"), False)))]
    wrong_type = st.sampled_from((1.0, 0.5, float("nan"), None, "1", b"1", [1]) +
                                 ((np.int64(1), np.float64(1.0)) if np is not None else ()))
    mask = st.one_of(st.integers(-2**70, -1), st.integers(2**n, 2**70), wrong_type)
    size = st.one_of(st.integers(-2**31 - 2, -2**31 + 1), st.integers(2**31 - 3, 2**31 + 1),
                     st.integers(-2**70, 2**70), wrong_type)
    bad = [st.one_of(st.integers(-2, 3), st.just(2**70), st.booleans(), wrong_type),
           mask, mask, size, size,
           st.one_of(st.integers(2**63 - 2, 2**63 + 1), st.integers(-2**63 - 1, -2**63 + 1),
                     wrong_type),
           st.sampled_from((None, "1", 1j, [0.0], 10**400) +
                           ((np.float64(-1.0), np.float32(0.0), np.int64(0))
                            if np is not None else ()))]
    for k in draw(st.one_of(st.just(()), st.lists(st.integers(0, 6), min_size=1, max_size=2))):
        args[k] = draw(bad[k])
    return (adj, *args)


@needs_c
@settings(max_examples=500, deadline=None)
@given(args=bnb_arguments())
@example(args=([[1], [0]], K.MODE_REDLD, 0, 0, 2**31 - 1, 0, 0, 0.0))
@example(args=([[1], [0, 2], [1]], K.MODE_REDLD, 0, 0, 3, 0, 0, None))
@example(args=([[1], [0, 2], [1]], 1.0, 0, 0, 3, 0, 0, 0.0))
def test_backends_search_the_same_way(args):
    # the same tuple, or the same exception type and message
    adj, *rest = args

    def outcome(kern):
        try:
            return kern.bnb(kern.make_ctx(adj), *rest)
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(ck) == outcome(py)


# Kinds that are no str, and strs that name no lattice
BAD_KINDS = (None, 5, 1.0, b"SQ", LatticeKind.SQ, ["SQ"], "sq", "", "SQ\0", "KINGS", "H\u00c9X")


@st.composite
def dom_arguments(draw):
    """A lattice's name on a domain of up to 3 x 3 cells, with a count and a
    node budget that may cut the walk; then, now and then, one fault: a bad
    kind, w, h, count or budget.  A valid domain stays small, so that the
    pure-Python walk stays quick."""
    kind = draw(st.sampled_from([k.value for k in LatticeKind]))
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    count = draw(st.integers(0, w * h + 1) | st.integers(w * h // 2, w * h))  # dense ones pass
    budget = draw(st.sampled_from((1, 5, 40, 10**6)))
    fault = draw(st.sampled_from((None, None, None, "kind", "w", "h", "count", "budget")))
    if fault == "kind":
        kind = draw(st.sampled_from(BAD_KINDS))
    elif fault in ("w", "h"):
        bad = draw(st.sampled_from((0, -1, 2**31, 2**63, 2**70, 1.0, None, 2**9 + 1)))
        w, h = (bad, h) if fault == "w" else (w, bad)
    elif fault == "count":
        count = draw(st.sampled_from((-1, 2**31, 2**63, 1.0, None)))
    elif fault == "budget":
        budget = draw(st.sampled_from((2**63, -2**63 - 1, 1.0, None)))
    return kind, w, h, count, budget


@needs_c
@settings(max_examples=500, deadline=None)
@given(args=dom_arguments())
@example(args=("HEX", 3, 1, 2, 100))
@example(args=("HEX", 1, 3, 2, 100))
@example(args=(LatticeKind.SQ, 1, 1, 1, 100))
@example(args=("sq", 1, 1, 1, 100))
@example(args=(None, 2**4, 2**5 + 1, 1, 100))
def test_backends_walk_the_same_way(args):
    # the same (masks, exhausted), or the same exception type and message
    def outcome(kern):
        try:
            return kern.dom_candidates(*args)
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(ck) == outcome(py)


@needs_c
def test_c_functions_reject_a_python_context():
    ctx = py.make_ctx(((1,), (0, 2), (1,)))
    for call in (
        lambda: ck.is_ld(ctx, 0b111),
        lambda: ck.is_redld(ctx, 0b111),
        lambda: ck.is_redld_def(ctx, 0b111),
        lambda: ck.brute_force_min(ctx, K.MODE_REDLD),
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
        ck.mask_of(3)
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
        ck.brute_force_min(ctx, 3)
    with pytest.raises(ValueError, match="unknown mode"):
        ck.bnb(ctx, K.MODE_REDLD_DEF, 0, 0, 3, 0, 0, -1.0)
    with pytest.raises(ValueError, match="differ in length"):
        ck.pairs_scan(ctx, [0, 1], [2], [0b111])
    for kind, error in ((5, TypeError), (LatticeKind.SQ, TypeError), ("sq", ValueError)):
        with pytest.raises(error):
            ck.dom_candidates(kind, 1, 1, 1, 100)
    with pytest.raises(TypeError):
        ck.dom_candidates("SQ", 1, 1, 1)
    for fn in (ck.tree_code, ck.tree_orbits):
        with pytest.raises(TypeError):
            fn(((1,), (0,)))
        with pytest.raises(TypeError):
            fn(((1,), (0,)), 0, 0)
        with pytest.raises(TypeError):
            fn(adj=((1,), (0,)), colored=0)


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


@st.composite
def tree_inputs(draw):
    """A tree's rows from a random Pruefer sequence, or a path on 1 or 2
    vertices, with a colour mask, which may name a vertex out of range or be
    no int (a numpy int among them); some inputs then get one fault: a row
    or the rows not a tuple, an item no int, a neighbour out of range, an
    entry without its mirror, a cycle, or a forest."""
    n = draw(st.integers(1, 40))
    if n <= 2:
        rows = [list(row) for row in path_adj(n)]
    else:
        seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        rows = [list(row) for row in prufer_decode(seq).adj]
    colored = draw(st.one_of(st.integers(0, 2**n - 1), st.just(0),
                             st.sampled_from((-1, 1 << n, 1.0, None, True) +
                                             ((np.int64(1),) if np is not None else ()))))
    fault = draw(st.sampled_from((None, None, None, "list row", "list rows", "item", "range",
                                  "one way", "cycle", "forest")))
    v, w = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if fault == "item":
        rows[v].append(draw(st.sampled_from((1.0, "1", None, True))))
    elif fault == "range":
        rows[v].append(draw(st.sampled_from((n, -1, 2**70, -2**70))))
    elif fault == "one way":
        rows[v].append(w)
    elif fault == "cycle" and w not in rows[v] and w != v:
        rows[v].append(w)
        rows[w].append(v)
    elif fault == "forest" and rows[v]:
        x = rows[v].pop()
        rows[x].remove(v)
    adj = tuple(list(row) if fault == "list row" and u == v else tuple(row)
                for u, row in enumerate(rows))
    return (list(adj) if fault == "list rows" else adj), colored


@needs_c
@settings(max_examples=500, deadline=None)
@given(tree=tree_inputs())
@example(tree=(build_path(3000).adj, 0))
@example(tree=(((),), 1))
@example(tree=(((1,), (0,)), 0b10))
@example(tree=(((1, 2), (0, 2), (0, 1)), 0))
def test_backends_code_the_same_tree(tree):
    # the same code and orbits, or the same exception type and message
    def outcome(fn):
        try:
            return fn(*tree)
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(ck.tree_code) == outcome(py.tree_code)
    assert outcome(ck.tree_orbits) == outcome(py.tree_orbits)


@needs_c
def test_calls_leave_no_reference_behind():
    # A refcount bug in the binding leaks or frees the caller's objects: the
    # counts of contexts, of 130-bit masks and of the argument and vertex
    # tuples (which the binding reads without copying) stay put over 10,000
    # rounds of calls that return and calls that raise, and no objects pile up.
    n = 130
    adj, bad_adj = path_adj(n), ((1,), (0, 2))
    ctx, pctx, small = ck.make_ctx(adj), py.make_ctx(adj), ck.make_ctx(path_adj(6))
    mask = (1 << n) - 1 - (1 << 64) - (1 << 100)
    wide = mask | 1 << n
    us, vs, cands, bad_cands = (0, 64), (1, 65), (mask, 0), (mask, wide)
    # made at run time, so that each is a str of its own and not a constant
    kind, bad_kind = "".join(["S", "Q"]), "".join(["s", "q"])
    detectors, bad_detectors = (0, 64, 129, 64), (0, 64, n)
    # read in place, and turned down there then read item by item (9 >= 6)
    small_detectors, bad_small = [0, 5, 3, 5], [0, 9]
    cycle, list_rows = ((1, 2), (0, 2), (0, 1)), ([1], (0,))
    # a report holds its graph, its mask and its class (a heap type, as
    # VerificationReport is), and its cache once set: each is released with it
    graph, cache = ["graph"], [("DOM2", (0,))]
    reports = {py: type("Rep", (py.Report,), {"__slots__": ()}),
               ck: type("Rep", (ck.Report,), {"__slots__": ()})}

    def fields(rep):
        rep._violations = cache
        return type(rep).__name__, rep.mode, rep.ok, rep._g is graph, rep._mask == mask

    watched = (adj, adj[0], bad_adj, ctx, pctx, small, mask, wide, us, vs, cands, bad_cands,
               kind, bad_kind, detectors, bad_detectors, small_detectors, bad_small, cycle,
               list_rows, graph, cache, reports[ck])
    calls = (
        lambda k, c, s: k.make_ctx(adj).n,
        lambda k, c, s: (k.is_ld(c, mask), k.is_redld(c, mask), k.is_redld_def(s, 0b110111)),
        lambda k, c, s: k.pairs_scan(c, us, vs, cands),
        lambda k, c, s: k.bnb(c, K.MODE_REDLD, mask, 0, n, 0, 3, 0.0),
        lambda k, c, s: k.brute_force_min(s, K.MODE_REDLD),
        lambda k, c, s: k.dom_candidates(kind, 4, 2, 4, 100),
        lambda k, c, s: (k.mask_of(n, detectors), k.mask_of(6, iter(detectors[:1])),
                         k.mask_of(6, small_detectors)),
        lambda k, c, s: (k.tree_code(adj, mask), k.tree_orbits(adj, mask)),
        lambda k, c, s: (fields(k.report(reports[k], c, K.MODE_REDLD, graph, mask)),
                         fields(k.report(k.Report, s, K.MODE_REDLD_DEF, graph, 0b110111)),
                         fields(reports[k]("redld", True, graph, mask))),
    )
    raising = (
        lambda: ck.make_ctx(bad_adj),
        lambda: ck.is_redld(ctx, wide),
        lambda: ck.is_ld(pctx, mask),
        lambda: ck.pairs_scan(ctx, us, vs, bad_cands),
        lambda: ck.bnb(ctx, K.MODE_REDLD, wide, 0, n, 0, 3, 0.0),
        lambda: ck.mask_of(n, bad_detectors),
        lambda: ck.mask_of(n, (0, None)),
        lambda: ck.mask_of(6, bad_small),
        lambda: ck.dom_candidates(bad_kind, 4, 2, 4, 100),
        lambda: ck.dom_candidates(detectors, 4, 2, 4, 100),
        lambda: ck.tree_code(cycle, 0),
        lambda: ck.tree_orbits(adj, wide),
        lambda: ck.tree_code(bad_adj, 0),
        lambda: ck.tree_orbits(list_rows, 0),
        lambda: ck.report(reports[ck], ctx, K.MODE_REDLD, graph, wide),
        lambda: ck.report(reports[py], ctx, K.MODE_REDLD, graph, mask),
        lambda: ck.report(reports[ck], pctx, K.MODE_REDLD, graph, mask),
        lambda: ck.report(reports[ck], ctx, 3, graph, mask),
        lambda: reports[ck]("redld", True, graph),
    )
    expected = [call(py, pctx, py.make_ctx(path_adj(6))) for call in calls]

    def rounds(count):
        for _ in range(count):
            assert [call(ck, ctx, small) for call in calls] == expected
            for call in raising:
                with pytest.raises((IndexError, TypeError, ValueError)):
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
    # a search of fewer than 1,024 nodes still reads the clock at each node:
    # a negative time budget, already spent, stops it at the first node
    adj = tuple(tuple(w for w in range(12) if w != v and (v * w) % 5 < 2) for v in range(12))
    ctx = kern.make_ctx(adj)
    for mode in (K.MODE_LD, K.MODE_REDLD):
        status, value, witness, nodes = kern.bnb(ctx, mode, 0, 0, 12, 0, 0, 0.0)
        assert status == 0 and 1 < nodes < 1024
        assert kern.bnb(ctx, mode, 0, 0, 12, 0, 0, -1.0) == (2, -1, 0, 1)
        # a budget of an hour changes nothing
        assert kern.bnb(ctx, mode, 0, 0, 12, 0, 0, 3600.0) == (status, value, witness, nodes)
