import hashlib
import random
import time
from fractions import Fraction

import pytest

from redld import _kernels as kern
from redld import grids
from redld._kernels import pybits
from redld.cli import main
from redld.grids import (
    _DFS_NODE_BUDGET,
    LatticeKind,
    PeriodicPattern,
    _dominating_candidates,
    _near_pairs,
    _random_descents,
    _tile_counts,
    _tiled_mask,
    _tiler,
    build_torus,
    density,
    parse_pattern,
    pattern_search,
    render_pattern,
    share_histogram,
    verify_periodic,
)
from redld.graph import Graph
from redld.solver import BudgetExceededError
from redld.verify import DOM2, is_redld_set

try:
    import redld._kernels._ckern as ckern
except ImportError:
    ckern = None

HEX_HALF = "HEX 2 1\n#.\n"
TRI_THIRD = "TRI 2 3\n#.\n#.\n..\n"
KING_5_16 = "KING 4 4\n#.#.\n.#..\n#.#.\n....\n"
SQ_7_16 = "SQ 4 8\n###.\n...#\n.#.#\n.#..\n#.##\n.#..\n.#.#\n...#\n"
SQ_7_16_WIDE = "SQ 8 4\n##.##.#.\n..#...#.\n#.#.##.#\n..#...#.\n"

BEST = {
    HEX_HALF: Fraction(1, 2),
    TRI_THIRD: Fraction(1, 3),
    KING_5_16: Fraction(5, 16),
    SQ_7_16: Fraction(7, 16),
    SQ_7_16_WIDE: Fraction(7, 16),
}


def test_parse_render_round_trip():
    for text in BEST:
        p = parse_pattern(text)
        assert render_pattern(p) == text
        assert parse_pattern(render_pattern(p)) == p


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_pattern("SQ 2\n..\n..\n")
    with pytest.raises(ValueError):
        parse_pattern("CUBIC 2 2\n..\n..\n")
    with pytest.raises(ValueError):
        parse_pattern("SQ 2 2\n..\n")
    with pytest.raises(ValueError):
        parse_pattern("SQ 2 2\n...\n..\n")
    with pytest.raises(ValueError):
        parse_pattern("SQ 2 2\n.x\n..\n")
    with pytest.raises(ValueError):
        PeriodicPattern(LatticeKind.HEX, 3, 2)
    with pytest.raises(ValueError):
        PeriodicPattern(LatticeKind.SQ, 2, 2, frozenset([(2, 0)]))


def test_density():
    assert density(parse_pattern(KING_5_16)) == Fraction(5, 16)
    assert density(parse_pattern(SQ_7_16)) == Fraction(7, 16)


def test_torus_regularity():
    degrees = {
        LatticeKind.SQ: 4,
        LatticeKind.KING: 8,
        LatticeKind.HEX: 3,
        LatticeKind.TRI: 6,
    }
    for kind, want in degrees.items():
        p = PeriodicPattern(kind, 2, 2, frozenset([(0, 0)]))
        g, s = build_torus(p, 4, 4)
        assert g.n == 64 and g.labels is None
        assert g.min_degree() == g.max_degree() == want
        assert len(s) == 16


def test_torus_guards():
    p = PeriodicPattern(LatticeKind.SQ, 4, 4, frozenset([(0, 0)]))
    with pytest.raises(ValueError):
        build_torus(p, 1, 1)
    hexp = parse_pattern(HEX_HALF)
    with pytest.raises(ValueError):
        build_torus(hexp, 4, 9)


def test_frozen_patterns_verify():
    for text, dens in BEST.items():
        p = parse_pattern(text)
        assert density(p) == dens
        assert verify_periodic(p).ok


def test_wrap_independence():
    # the verdict must not depend on which torus multiple it was checked on:
    # verify_periodic's torus of at least 8 cells a side against one of 12
    def on_12_cells(p):
        return is_redld_set(*build_torus(p, *_tile_counts(p, 12))).ok

    for text in BEST:
        p = parse_pattern(text)
        assert verify_periodic(p).ok == on_12_cells(p) is True
    bad = PeriodicPattern(LatticeKind.SQ, 2, 2, frozenset([(0, 0)]))
    assert verify_periodic(bad).ok == on_12_cells(bad) is False


def test_empty_pattern_fails_domination():
    rep = verify_periodic(PeriodicPattern(LatticeKind.SQ, 2, 2))
    assert not rep.ok
    dom2 = {wit[0] for cond, wit in rep.violations if cond == DOM2}
    assert len(dom2) == 64


def test_share_histogram_hex():
    hist = share_histogram(parse_pattern(HEX_HALF))
    assert hist == {Fraction(2): 1}


def test_share_histogram_all_detectors():
    hist = share_histogram(PeriodicPattern(LatticeKind.SQ, 1, 1, frozenset([(0, 0)])))
    assert hist == {Fraction(1): 1}


def test_share_histogram_sq_7_16():
    hist = share_histogram(parse_pattern(SQ_7_16))
    assert hist == {Fraction(25, 12): 4, Fraction(9, 4): 4, Fraction(7, 3): 2, Fraction(5, 2): 4}


def test_share_duality():
    # average share over one domain's detectors is exactly 1/density
    for text, dens in BEST.items():
        hist = share_histogram(parse_pattern(text))
        total = sum(hist.values())
        avg = sum(val * cnt for val, cnt in hist.items()) / total
        assert avg == 1 / dens


def test_share_histogram_rejects_invalid():
    with pytest.raises(ValueError):
        share_histogram(PeriodicPattern(LatticeKind.SQ, 2, 2, frozenset([(0, 0)])))


def test_search_hex():
    p = pattern_search(LatticeKind.HEX, 2, Fraction(1, 2))
    assert p is not None
    assert (p.w, p.h) == (2, 1)
    assert density(p) == Fraction(1, 2)
    assert verify_periodic(p).ok


def test_search_tri():
    p = pattern_search(LatticeKind.TRI, 3, Fraction(1, 3))
    assert p is not None
    assert (p.w, p.h) == (2, 3)
    assert density(p) == Fraction(1, 3)
    assert verify_periodic(p).ok


def test_search_king():
    p = pattern_search(LatticeKind.KING, 4, Fraction(5, 16))
    assert p is not None
    assert density(p) <= Fraction(5, 16)
    assert verify_periodic(p).ok


def test_search_miss_returns_none():
    assert pattern_search(LatticeKind.HEX, 2, Fraction(1, 3)) is None


def test_search_above_density_one_finds_the_full_pattern():
    # floor(w*h*2) detectors fit on no domain; the count is capped at w*h,
    # so the 1x1 all-detector pattern is found, not reported absent
    p = pattern_search(LatticeKind.SQ, 2, Fraction(2))
    assert p == PeriodicPattern(LatticeKind.SQ, 1, 1, frozenset([(0, 0)]))
    assert verify_periodic(p).ok
    # the largest period, whose 22 x 22 domain is the walk's largest square,
    # is taken; the 1x1 domain still comes first
    assert pattern_search(LatticeKind.SQ, 22, Fraction(2)) == p


def test_near_pairs_within_distance_2():
    for kind, want in ((LatticeKind.SQ, 600), (LatticeKind.KING, 1200)):
        g, _ = build_torus(PeriodicPattern(kind, 5, 5), 2, 2)
        us, vs = _near_pairs(g)
        assert len(us) == want
        assert len(set(zip(us, vs))) == want and all(u < v for u, v in zip(us, vs))


def test_near_pair_scan_equals_full_check():
    # pairs_scan on the distance-2 pairs gives the verdict of the full
    # characterization on 2-dominating masks, passing and failing alike: the
    # walk's valid patterns and the masks of seeded random descents, at the
    # counts of the searched densities and, for SQ, some denser ones
    verdicts = set()
    for kind, w, h, counts in ((LatticeKind.SQ, 5, 5, (10, 11, 12)),
                               (LatticeKind.KING, 5, 5, (6, 7)),
                               (LatticeKind.HEX, 6, 5, (12, 13, 14, 15))):
        probe = PeriodicPattern(kind, w, h, frozenset([(0, 0)]))
        c_w, c_h = _tile_counts(probe, 8)
        g, _ = build_torus(probe, c_w, c_h)
        ctx = kern.make_ctx([list(nbrs) for nbrs in g.adj])
        us, vs = _near_pairs(g)
        tile = _tiler(w, h, c_w, c_h)
        for count in counts:
            masks, exhausted = _dominating_candidates(kind, w, h, count, 10**7)
            assert exhausted
            masks += _random_descents(kind, w, h, count, random.Random(count), 300,
                                      skip=set(masks))
            for domain in masks:
                mask = tile(domain)
                verdict = kern.pairs_scan(ctx, us, vs, [mask]) == 0
                assert verdict == kern.is_redld(ctx, mask)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_lattice_steps_make_undirected_grids():
    # the kernels' walks and build_torus take their steps from this table
    # unchecked: at most 8 distinct nonzero steps for each parity of x + y,
    # each with its reverse among the steps of the cell it reaches
    assert sorted(pybits.LATTICES) == sorted(kind.value for kind in LatticeKind)
    for parities in pybits.LATTICES.values():
        assert len(parities) == 2
        for p, steps in enumerate(parities):
            assert (0, 0) not in steps and len(set(steps)) == len(steps) <= 8
            for dx, dy in steps:
                assert (-dx, -dy) in parities[(p + dx + dy) & 1]


def test_torus_adjacency_matches_checked_build():
    # the unchecked adjacency rows of build_torus equal what the checked
    # constructor makes of the same edges
    for kind in LatticeKind:
        shapes = [(w, h, *_tile_counts(PeriodicPattern(kind, w, h), 8))
                  for w in range(1, 7) for h in range(1, 7)
                  if kind is not LatticeKind.HEX or w % 2 == 0]
        shapes += [(2, 3, 5, 4), (4, 1, 3, 10), (3, 5, 3, 2)]
        for w, h, c_w, c_h in shapes:
            if kind is LatticeKind.HEX and (w % 2 or (h * c_h) % 2):
                continue
            g, _ = build_torus(PeriodicPattern(kind, w, h), c_w, c_h)
            assert g.adj == Graph(g.n, g.edges()).adj


def test_torus_detectors_tile_the_domain():
    # cell (x, y) of copy (i, j) is torus cell (y + j*h)*W + x + i*w, W the
    # torus width
    for text in BEST:
        p = parse_pattern(text)
        for c_w, c_h in (_tile_counts(p, 8), _tile_counts(p, 12)):
            _, s = build_torus(p, c_w, c_h)
            big_w = p.w * c_w
            assert s == {(y + j * p.h) * big_w + x + i * p.w for x, y in p.detectors
                         for j in range(c_h) for i in range(c_w)}
            assert len(s) == c_w * c_h * len(p.detectors)


# The benchmark's grid searches, as (kind, max period, target).
GRID_SEARCHES = (
    ("hex", 2, "1/2"), ("tri", 3, "1/3"), ("king", 4, "5/16"), ("sq", 5, "2/5"),
    ("king", 5, "3/11"), ("sq", 5, "7/16"), ("king", 5, "2/7"), ("hex", 6, "2/5"),
)


def test_pattern_search_outputs_are_pinned():
    # the rendered results of the searches, then the masks of 300 seeded
    # random descents on SQ 4x4 at 1/2 that skip every third pattern of the
    # walk
    parts = []
    for kind, period, target in GRID_SEARCHES:
        p = pattern_search(LatticeKind(kind.upper()), period, Fraction(target))
        parts.append("None\n" if p is None else render_pattern(p))
    walk, exhausted = _dominating_candidates(LatticeKind.SQ, 4, 4, 8, 10**6)
    assert exhausted and len(walk) == 54
    found = _random_descents(LatticeKind.SQ, 4, 4, 8, random.Random(5), 300,
                             skip=set(walk[::3]))
    assert len(found) == 50
    parts += ["".join("#" if m >> c & 1 else "." for c in range(16)) + "\n" for m in found]
    digest = hashlib.sha256("".join(parts).encode()).hexdigest()
    assert digest[:16] == "5455ec2a6b9d7a06"


def test_tiled_mask_matches_per_cell_tiling():
    rng = random.Random(11)
    for kind in LatticeKind:
        widths = (2, 4, 6) if kind is LatticeKind.HEX else (1, 3, 4, 5)
        for w in widths:
            for h in (1, 3, 4, 5):
                cells = [(x, y) for y in range(h) for x in range(w)]
                probe = PeriodicPattern(kind, w, h, frozenset([(0, 0)]))
                c_w, c_h = _tile_counts(probe, 8)
                big_w = w * c_w
                for _ in range(3):
                    chosen = frozenset(rng.sample(cells, rng.randint(0, len(cells))))
                    want = sum(1 << (y * big_w + x)
                               for y in range(h * c_h) for x in range(big_w)
                               if (x % w, y % h) in chosen)
                    assert _tiled_mask(kind, w, h, chosen) == want


def _walk_order(n):
    """Every subset of n cells with cell 0, in the kernels' walk order: cell
    i decided at depth i, IN before OUT."""
    out = []

    def walk(i, mask):
        if i == n:
            out.append(mask)
            return
        walk(i + 1, mask | 1 << i)
        if i > 0:
            walk(i + 1, mask)

    walk(0, 0)
    return out


def test_dom_candidates_match_the_unpruned_walk():
    # the removal definition is the oracle: on every domain of at most 12
    # cells and at every count, both kernels give exactly the subsets of that
    # size with cell 0 whose tiling passes is_redld_def on the probe torus,
    # in walk order.  The oracle runs on the compiled kernel when it is built
    # (the predicates of the two kernels agree, tests/test_binding.py), as
    # the pure-Python one takes about 12 s on a 2-vCPU Xeon VM.
    kernels = [pybits] + ([ckern] if ckern else [])
    oracle = ckern or pybits
    domains = found = 0
    for kind in LatticeKind:
        for w in range(1, 13):
            for h in range(1, 12 // w + 1):
                if kind is LatticeKind.HEX and w % 2:
                    continue
                probe = PeriodicPattern(kind, w, h)
                c_w, c_h = _tile_counts(probe, 8)
                ctx = oracle.make_ctx(build_torus(probe, c_w, c_h)[0].adj)
                tile = _tiler(w, h, c_w, c_h)
                valid = [m for m in _walk_order(w * h) if oracle.is_redld_def(ctx, tile(m))]
                for count in range(w * h + 1):
                    want = ([m for m in valid if bin(m).count("1") == count], True)
                    for kernel in kernels:
                        assert kernel.dom_candidates(kind.value, w, h, count, 10**7) == want, \
                            (kernel.BACKEND, kind, w, h, count)
                domains += 1
                found += len(valid)
    assert domains == 3 * 35 + 14  # HEX keeps the even widths
    assert found == 24_256


def test_sq_4x8_walk_exhausts_and_budget_cuts_are_prefixes(monkeypatch):
    full, exhausted = _dominating_candidates(LatticeKind.SQ, 4, 8, 14, _DFS_NODE_BUDGET)
    assert exhausted and len(full) == 7
    found = []
    for budget in (1, 1000, 5000, 20000):
        masks, exhausted = _dominating_candidates(LatticeKind.SQ, 4, 8, 14, budget)
        assert not exhausted and masks == full[:len(masks)]
        found.append(len(masks))
    assert found == [0, 0, 2, 5]  # empty twice, then longer prefixes

    def no_descents(*args, **kwargs):
        raise AssertionError("a walk ran out of budget")

    monkeypatch.setattr(grids, "_random_descents", no_descents)
    p = pattern_search(LatticeKind.SQ, 8, Fraction(7, 16))
    assert render_pattern(p) == SQ_7_16


def test_sq_search_at_7_16_prints_the_pinned_pattern(capsys):
    # the command line's stdout, byte for byte; every walk up to the 4x8
    # domain exhausts under the count prune, so no random descents run
    start = time.monotonic()
    assert main(["grid", "search", "sq", "8", "7/16"]) == 0
    assert time.monotonic() - start < 20
    assert capsys.readouterr().out == SQ_7_16 + "density: 7/16\n"


# Densities with no periodic pattern on any domain up to the period, as
# (kind, target, period on C, period on py).  The py kernel checks smaller
# periods where the C ones are slow on it: on a 2-vCPU Xeon, SQ up to 7 at
# 7/16 takes 4.7 s there (0.1 s on C), KING up to 6 at 3/11 2.7 s (0.09 s).
ABSENT = (
    (LatticeKind.SQ, Fraction(2, 5), 7, 7),
    (LatticeKind.SQ, Fraction(7, 16), 7, 6),
    (LatticeKind.HEX, Fraction(2, 5), 8, 8),
    (LatticeKind.KING, Fraction(3, 11), 6, 5),
)


@pytest.mark.parametrize("kind, target, c_period, py_period", ABSENT,
                         ids=lambda v: getattr(v, "value", str(v)))
def test_no_pattern_below_target_up_to_period(monkeypatch, kind, target, c_period, py_period):
    # every domain's walk exhausts, so the miss is a proof of absence
    walks = []

    def walk(*args):
        masks, exhausted = _dominating_candidates(*args)
        walks.append(exhausted)
        return masks, exhausted

    def no_descents(*args, **kwargs):
        raise AssertionError("a walk ran out of budget")

    monkeypatch.setattr(grids, "_dominating_candidates", walk)
    monkeypatch.setattr(grids, "_random_descents", no_descents)
    period = c_period if kern.BACKEND == "c" else py_period
    assert pattern_search(kind, period, target) is None
    assert walks and all(walks)


def test_a_search_whose_walks_gave_up_raises(monkeypatch):
    # SQ up to 5 at 2/5 has no pattern; with walks cut at 50 nodes and 3
    # descents each, four domains stay undecided, and the search says so
    # instead of reporting an absence it did not prove
    monkeypatch.setattr(grids, "_DFS_NODE_BUDGET", 50)
    monkeypatch.setattr(grids, "_DESCENT_COUNT", 3)
    with pytest.raises(BudgetExceededError) as info:
        pattern_search(LatticeKind.SQ, 5, Fraction(2, 5))
    assert info.value.nodes == 4 * 50
    # a pattern found on some domain is an answer, whatever the others did
    assert verify_periodic(pattern_search(LatticeKind.TRI, 3, Fraction(1, 3))).ok
