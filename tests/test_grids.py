import random
from fractions import Fraction

import pytest

from redld import _kernels as kern
from redld.grids import (
    LatticeKind,
    PeriodicPattern,
    _dominating_candidates,
    _near_pairs,
    _tile_counts,
    _tiled_mask,
    build_torus,
    density,
    parse_pattern,
    pattern_search,
    render_pattern,
    share_histogram,
    verify_periodic,
)
from redld.verify import DOM2

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
        assert g.n == 64
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
    # the verdict must not depend on which torus multiple it was checked on
    for text in BEST:
        p = parse_pattern(text)
        assert verify_periodic(p, extent=8).ok == verify_periodic(p, extent=12).ok
    bad = PeriodicPattern(LatticeKind.SQ, 2, 2, frozenset([(0, 0)]))
    assert verify_periodic(bad, extent=8).ok == verify_periodic(bad, extent=12).ok is False


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


def test_near_pairs_within_distance_2():
    for kind, want in ((LatticeKind.SQ, 600), (LatticeKind.KING, 1200)):
        g, _ = build_torus(PeriodicPattern(kind, 5, 5), 2, 2)
        us, vs = _near_pairs(g)
        assert len(us) == want
        assert len(set(zip(us, vs))) == want and all(u < v for u, v in zip(us, vs))


def test_near_pair_scan_equals_full_check():
    # pairs_ok on the distance-2 pairs gives the verdict of the full
    # characterization on every candidate, passing and failing alike: the
    # counts of the searched densities and, for SQ, some denser ones
    verdicts = set()
    for kind, w, h, counts in ((LatticeKind.SQ, 5, 5, (10, 11, 12)),
                               (LatticeKind.KING, 5, 5, (6, 7)),
                               (LatticeKind.HEX, 6, 5, (12, 13, 14, 15))):
        probe = PeriodicPattern(kind, w, h, frozenset([(0, 0)]))
        g, _ = build_torus(probe, *_tile_counts(probe, 8))
        ctx = kern.make_ctx([list(nbrs) for nbrs in g.adj])
        us, vs = _near_pairs(g)
        for count in counts:
            candidates, exhausted = _dominating_candidates(kind, w, h, count, 10**7)
            assert exhausted
            for cand in candidates:
                mask = _tiled_mask(kind, w, h, cand)
                verdict = kern.pairs_ok(ctx, mask, us, vs)
                assert verdict == kern.is_redld(ctx, mask)
                verdicts.add(verdict)
    assert verdicts == {True, False}


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
