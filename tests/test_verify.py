import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redld._kernels as K
import redld._kernels.pybits as py
import redld.verify as verify
from redld.graph import Graph, build_complete_multipartite, build_cycle, build_path, build_petersen
from redld.solver import forced_detectors, min_redld
from redld.verify import (
    DET_NONDET_1DIST,
    DOM2,
    EXISTENCE,
    LD_DOM1,
    LD_PAIR_1DIST,
    NONDET_PAIR_2DIST,
    DetectorSet,
    VerificationReport,
    _ld_violations,
    _redld_def_violations,
    _redld_violations,
    distinguishing_degree,
    domination_count,
    find_twins,
    is_ld_set,
    is_redld_by_definition,
    is_redld_set,
    share,
)

try:
    import redld._kernels._ckern as ck
except ImportError:
    ck = None

BACKENDS = [
    pytest.param(py, id="py"),
    pytest.param(ck, id="c", marks=pytest.mark.skipif(ck is None, reason="compiled kernel not built")),
]


def random_graph(n, p, rng):
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    g = Graph(n, edges)
    # patch isolated vertices so a RED:LD set exists
    for v in range(n):
        if g.degree(v) == 0:
            edges.append((v, (v + 1) % n))
            g = Graph(n, edges)
    return g


def test_detector_set():
    s = DetectorSet([3, 1, 1, 2])
    assert list(s) == [1, 2, 3]
    assert len(s) == 3
    assert 2 in s and 0 not in s
    assert s == [1, 2, 3]
    assert s == DetectorSet((2, 3, 1))
    assert s.mask() == 0b1110


def test_domination_and_distinguishing():
    p = build_path(4)
    assert domination_count(p, [0, 1], 0) == 2
    assert domination_count(p, [0, 1], 3) == 0
    assert distinguishing_degree(p, [1, 2], 0, 3) == 2
    # adjacent pair: shared detectors cancel, u/v themselves excluded
    assert distinguishing_degree(p, [0, 1, 2, 3], 1, 2) == 2
    with pytest.raises(ValueError):
        domination_count(p, [7], 0)


def test_ld_violations():
    p = build_path(4)
    rep = is_ld_set(p, [1, 2])
    assert rep.ok and rep.violations == []
    rep = is_ld_set(p, [0])
    assert not rep.ok
    assert (LD_DOM1, (2,)) in rep.violations
    assert (LD_DOM1, (3,)) in rep.violations
    # two leaves of a star share the center trace
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    rep = is_ld_set(star, [0, 1])
    assert (LD_PAIR_1DIST, (2, 3)) in rep.violations


def test_redld_condition_ids():
    p3 = build_path(3)
    rep = is_redld_set(p3, [0, 1])
    assert not rep.ok
    assert (DOM2, (2,)) in rep.violations
    assert (DET_NONDET_1DIST, (0, 2)) in rep.violations

    p5 = build_path(5)
    rep = is_redld_set(p5, [1, 3])
    assert (NONDET_PAIR_2DIST, (0, 2)) in rep.violations
    assert (NONDET_PAIR_2DIST, (2, 4)) in rep.violations

    iso = Graph(3, [(0, 1)])
    rep = is_redld_set(iso, [0, 1])
    assert not rep.ok
    assert (EXISTENCE, (2,)) in rep.violations


def test_full_set_rule():
    # V itself is RED:LD exactly when there is no isolated vertex
    for g in [build_path(2), build_path(7), build_cycle(5), build_petersen(),
              build_complete_multipartite([2, 3]), Graph(4, [(0, 1), (2, 3)])]:
        assert is_redld_set(g, range(g.n)).ok
    bad = Graph(4, [(0, 1), (1, 2)])
    rep = is_redld_set(bad, range(4))
    assert not rep.ok
    assert rep.violations == [(EXISTENCE, (3,)), (DOM2, (3,))]


def test_characterization_matches_definition():
    """The kernel's characterization mode against its removal-definition mode."""
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 7)
        g = random_graph(n, rng.uniform(0.2, 0.8), rng)
        s = [v for v in range(n) if rng.random() < 0.6]
        assert is_redld_set(g, s).ok == is_redld_by_definition(g, s).ok


def test_definition_report_prefixes_removed_detector():
    # P_4 with S = {0,1,2,3} minus vertex 3 leaves vertex 3 undominated
    p = build_path(4)
    rep = is_redld_by_definition(p, [0, 1, 2])
    assert not rep.ok
    for cond, wit in rep.violations:
        if cond == LD_DOM1 and len(wit) == 2:
            r, v = wit
            assert r in (0, 1, 2)
    assert any(wit[0] == 2 and wit[1] == 3 for cond, wit in rep.violations if len(wit) == 2)


# Reports as the former eager, set-based verification rendered them.
EAGER_REPORTS = [
    (is_redld_set, build_path(3), [0, 1],
     "mode=redld ok=false\nviolation DOM2 2\nviolation DET_NONDET_1DIST 0 2\n"),
    (is_redld_set, build_path(5), [1, 3],
     "mode=redld ok=false\nviolation DOM2 0\nviolation DOM2 1\nviolation DOM2 3\n"
     "violation DOM2 4\nviolation NONDET_PAIR_2DIST 0 2\nviolation NONDET_PAIR_2DIST 2 4\n"
     "violation DET_NONDET_1DIST 1 0\nviolation DET_NONDET_1DIST 3 4\n"),
    (is_redld_set, Graph(3, [(0, 1)]), [0, 1],
     "mode=redld ok=false\nviolation EXISTENCE 2\nviolation DOM2 2\n"),
    (is_redld_by_definition, build_path(4), [0, 1, 2],
     "mode=redld-def ok=false\nviolation LD_DOM1 2 3\n"),
    (is_ld_set, build_path(4), [0],
     "mode=ld ok=false\nviolation LD_DOM1 2\nviolation LD_DOM1 3\nviolation LD_PAIR_1DIST 2 3\n"),
]


@pytest.mark.parametrize("check, g, s, text", EAGER_REPORTS)
def test_lazy_report_equals_eager_output(check, g, s, text):
    rep = check(g, s)
    assert not rep.ok
    assert rep.render() == text
    assert rep.violations == [
        (cond, tuple(map(int, wit)))
        for cond, *wit in (line.split()[1:] for line in text.splitlines()[1:])
    ]
    assert rep.violations is rep.violations


def report_class(kern):
    """VerificationReport when kern is the selected backend; else a subclass
    of kern's Report with VerificationReport's own methods."""
    if kern.Report is K.Report:
        return VerificationReport
    methods = {name: vars(VerificationReport)[name] for name in ("violations", "render", "__repr__")}
    return type("VerificationReport", (kern.Report,), {"__slots__": (), **methods})


@pytest.mark.parametrize("kern", BACKENDS)
def test_kernel_report_equals_the_report_of_the_verdict(kern):
    """On every graph with at most 4 vertices and every mask, in all three
    modes, report() gives the report that the verdict of the mode's
    predicate, put in the constructor, gives."""
    cls = report_class(kern)
    preds = ((K.MODE_LD, "ld", kern.is_ld), (K.MODE_REDLD, "redld", kern.is_redld),
             (K.MODE_REDLD_DEF, "redld-def", kern.is_redld_def))
    seen = set()
    for n in range(1, 5):
        slots = list(combinations(range(n), 2))
        for picks in product((0, 1), repeat=len(slots)):
            g = Graph(n, [e for e, take in zip(slots, picks) if take])
            ctx = kern.make_ctx(g.adj)
            for mask in range(1 << n):
                for mode, name, pred in preds:
                    got, want = kern.report(cls, ctx, mode, g, mask), cls(name, pred(ctx, mask), g, mask)
                    assert type(got) is cls and got._g is g and got._mask == mask
                    assert (got.ok, got.mode, got.render(), got.violations) == \
                        (want.ok, want.mode, want.render(), want.violations), (g.adj, mask, name)
                    seen.add((name, got.ok))
    assert len(seen) == 6


def test_report_verdict_and_mode_are_read_only():
    g = build_path(4)
    for rep in (is_ld_set(g, [1, 2]), is_redld_set(g, [0]), VerificationReport("redld", True, g, 0)):
        ok, mode = rep.ok, rep.mode
        for name in ("ok", "mode"):
            with pytest.raises(AttributeError):
                setattr(rep, name, None)
        assert (rep.ok, rep.mode) == (ok, mode)
        with pytest.raises(AttributeError):
            rep.extra = 1  # no __dict__: the subclass adds no slot


def _must_not_run(*args):
    raise AssertionError("called")


def test_ok_report_runs_no_lister(monkeypatch):
    for name in ("_ld_violations", "_redld_violations", "_redld_def_violations"):
        monkeypatch.setattr(verify, name, _must_not_run)
    g = build_cycle(5)
    # the empty mask fails every mode: only the ok verdict keeps the lister idle
    rep = VerificationReport("redld", True, g, 0)
    assert rep.violations == []
    assert rep.render() == "mode=redld ok=true\n"
    for check in (is_ld_set, is_redld_set, is_redld_by_definition):
        rep = check(g, range(5))
        assert rep.ok and rep.violations == []


def test_out_of_range_detector_raises_before_kernel(monkeypatch):
    for name in ("make_ctx", "is_ld", "is_redld", "is_redld_def"):
        monkeypatch.setattr(K, name, _must_not_run)
    g = build_path(4)
    for check in (is_ld_set, is_redld_set, is_redld_by_definition):
        # [-1] must fail the range check, not the shift that builds the mask
        for s in ([0, 4], [-1], [0, 9, -1], DetectorSet([1, 7])):
            with pytest.raises(ValueError, match="out of range for n=4"):
                check(g, s)


@pytest.mark.parametrize("check", (is_ld_set, is_redld_set, is_redld_by_definition))
def test_any_iterable_gives_the_list_result(check):
    """Generators, duplicates and DetectorSets give the verdict and the
    violations of the plain list; a generator is read only once."""
    g = build_path(5)
    for s in ([0, 4], [1, 2, 3], [0, 1, 3, 4]):
        want = check(g, s)
        gen = (v for v in s)
        for got in (check(g, gen), check(g, s + s[::-1]), check(g, DetectorSet(s))):
            assert got.ok == want.ok
            assert got.violations == want.violations
        assert next(gen, None) is None
    assert not check(g, iter([0, 4])).ok


def _lister_cases(kern, g, subsets):
    ctx = kern.make_ctx(g.adj)
    preds = ((_ld_violations, kern.is_ld), (_redld_violations, kern.is_redld),
             (_redld_def_violations, kern.is_redld_def))
    for mask in subsets:
        ss = frozenset(v for v in range(g.n) if mask >> v & 1)
        for lister, pred in preds:
            yield lister.__name__, not lister(g, ss), pred(ctx, mask), (g.adj, mask)


@pytest.mark.parametrize("kern", BACKENDS)
def test_listers_agree_with_kernel_verdicts(kern):
    """The set-based violation listers stay an independent oracle: each one
    lists no violation exactly when the kernel's verdict is ok."""
    graphs = []
    for n in range(1, 5):
        slots = list(combinations(range(n), 2))
        for picks in product((0, 1), repeat=len(slots)):
            g = Graph(n, [e for e, take in zip(slots, picks) if take])
            graphs.append((g, range(1 << n)))
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(6, 9)
        p = rng.uniform(0.2, 0.8)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        subsets = [rng.getrandbits(n) for _ in range(10)]
        subsets += [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(10)]
        graphs.append((g, subsets))
    seen = set()
    for g, subsets in graphs:
        for name, listed, verdict, case in _lister_cases(kern, g, subsets):
            assert listed == verdict, (name, case)
            seen.add((name, verdict))
    assert len(seen) == 6


def test_render_report():
    p3 = build_path(3)
    text = is_redld_set(p3, [0, 1]).render()
    assert text.startswith("mode=redld ok=false\n")
    assert "violation DOM2 2" in text


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_monotone_under_superset(data):
    n = data.draw(st.integers(2, 7))
    all_edges = list(combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(all_edges), min_size=min(n - 1, len(all_edges))))
    g = Graph(n, sorted(edges))
    fixed = list(edges)
    for v in range(n):
        if g.degree(v) == 0:
            fixed.append(tuple(sorted((v, (v + 1) % n))))
    g = Graph(n, sorted(set(fixed)))
    base = min_redld(g).witness
    extras = data.draw(st.sets(st.integers(0, n - 1)))
    assert is_redld_set(g, set(base) | extras).ok


def test_share_values():
    # all-detector path: ends dominated twice, inner vertices three times
    p = build_path(4)
    s = range(4)
    assert share(p, s, 0) == Fraction(1, 2) + Fraction(1, 3)
    assert share(p, s, 1) == Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 3)
    with pytest.raises(ValueError, match="vertex 2 is undominated"):
        share(build_path(3), [0], 2)
    with pytest.raises(ValueError, match="detector 9 out of range"):
        share(p, [0, 9], 0)


def test_share_accounting():
    # shares summed over any dominating detector set add up to n
    rng = random.Random(9)
    graphs = [build_path(6), build_cycle(7), build_petersen()]
    graphs += [random_graph(rng.randint(4, 9), 0.5, rng) for _ in range(20)]
    for g in graphs:
        res = min_redld(g)
        for s in (res.witness, DetectorSet(range(g.n))):
            assert sum(share(g, s, x) for x in s) == g.n


def test_find_twins():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert find_twins(star) == [(1, 2), (1, 3), (2, 3)]
    k4 = build_complete_multipartite([1, 1, 1, 1])
    assert len(find_twins(k4)) == 6
    assert find_twins(build_petersen()) == []
    assert find_twins(build_path(4)) == []


def test_find_twins_matches_the_pairwise_definition():
    # isolated vertices allowed: they are open twins of each other
    rng = random.Random(26)
    found = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        p = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        g = Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
        want = [(u, v) for u, v in combinations(range(n), 2)
                if g.open_neighborhood(u) == g.open_neighborhood(v)
                or g.closed_neighborhood(u) == g.closed_neighborhood(v)]
        assert find_twins(g) == want
        found += len(want)
    assert found > 100


def test_twins_are_forced():
    # both members of every twin pair sit in every RED:LD set
    rng = random.Random(13)
    checked = 0
    for _ in range(60):
        g = random_graph(rng.randint(4, 8), rng.uniform(0.3, 0.8), rng)
        twins = find_twins(g)
        if not twins:
            continue
        forced = set(forced_detectors(g))
        for u, v in twins:
            assert u in forced and v in forced
            assert not is_redld_set(g, set(range(g.n)) - {u}).ok
            checked += 1
    assert checked > 10
