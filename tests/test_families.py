import time
from fractions import Fraction

import pytest

from redld import families
from redld.families import (
    density_constants,
    kary_order,
    kary_table,
    kary_value,
    max_order_even_k,
    redld_cycle,
    redld_kary,
    redld_ladder,
    redld_path,
)
from redld.solver import min_redld
from redld.verify import is_redld_set

PATH = {2: 2, 3: 3, 4: 4, 5: 4, 6: 5, 7: 6, 8: 6, 9: 7, 10: 8, 11: 8, 12: 9, 13: 10}
CYCLE = {3: 3, 4: 4, 5: 4, 6: 4, 7: 5, 8: 6, 9: 6, 10: 7, 11: 8, 12: 8, 13: 9}
LADDER = {1: 2, 2: 4, 3: 4, 4: 6, 5: 6, 6: 8, 7: 8, 8: 10}

# optimum for the complete k-ary tree of depth d, k = 2..7, d = 1..10
KARY = {
    1: [3, 4, 5, 6, 7, 8],
    2: [6, 12, 20, 30, 42, 56],
    3: [14, 38, 82, 152, 254, 394],
    4: [27, 112, 325, 756, 1519, 2752],
    5: [54, 336, 1300, 3780, 9114, 19264],
    6: [110, 1010, 5202, 18902, 54686, 134850],
    7: [219, 3028, 20805, 94506, 328111, 943944],
    8: [438, 9084, 83220, 472530, 1968666, 6607608],
    9: [878, 27254, 332882, 2362652, 11811998, 46253258],
    10: [1755, 81760, 1331525, 11813256, 70871983, 323772800],
}


def test_path_table():
    for n, want in PATH.items():
        fv = redld_path(n)
        assert fv.optimum == want
        assert len(fv.construction) == want
        assert is_redld_set(fv.graph, fv.construction).ok


def test_path_matches_solver():
    for n in range(2, 14):
        assert redld_path(n).optimum == min_redld(redld_path(n).graph).optimum


def test_cycle_table():
    for n, want in CYCLE.items():
        fv = redld_cycle(n)
        assert fv.optimum == want
        assert len(fv.construction) == want
        assert is_redld_set(fv.graph, fv.construction).ok


def test_cycle_matches_solver():
    for n in range(3, 14):
        assert redld_cycle(n).optimum == min_redld(redld_cycle(n).graph).optimum


def test_ladder_table():
    for k, want in LADDER.items():
        fv = redld_ladder(k)
        assert fv.optimum == want
        assert len(fv.construction) == want
        assert is_redld_set(fv.graph, fv.construction).ok


def test_ladder_matches_solver():
    for k in range(1, 9):
        assert redld_ladder(k).optimum == min_redld(redld_ladder(k).graph).optimum


def test_linear_families_past_the_build_cap_give_the_value_only(monkeypatch):
    # past _LINEAR_BUILD_CAP vertices the exact optimum comes back at once,
    # with no graph or witness, as redld_kary does past its cap
    huge = 10**20
    start = time.perf_counter()
    values = [redld_path(huge), redld_cycle(huge), redld_ladder(huge)]
    assert time.perf_counter() - start < 1.0
    assert [fv.optimum for fv in values] == [-(-(2 * huge + 2) // 3), -(-2 * huge // 3), huge + 2]
    assert all(fv.graph is None and fv.construction is None for fv in values)
    # the cap counts vertices: a ladder on k columns has 2k
    monkeypatch.setattr(families, "_LINEAR_BUILD_CAP", 12)
    for build, table, inside, past in ((redld_path, PATH, 12, 13), (redld_cycle, CYCLE, 12, 13),
                                       (redld_ladder, LADDER, 6, 7)):
        fv = build(inside)
        assert fv.graph.n == 12 and is_redld_set(fv.graph, fv.construction).ok
        fv = build(past)
        assert (fv.optimum, fv.graph, fv.construction) == (table[past], None, None)


def test_param_validation():
    with pytest.raises(ValueError):
        redld_path(1)
    with pytest.raises(ValueError):
        redld_cycle(2)
    with pytest.raises(ValueError):
        redld_ladder(0)
    with pytest.raises(ValueError):
        kary_value(1, 3)
    with pytest.raises(ValueError):
        kary_value(2, 0)


def test_kary_table_values():
    for d, row in KARY.items():
        for k, want in zip(range(2, 8), row):
            assert kary_value(k, d) == want
    rows = kary_table()
    assert len(rows) == 60
    for d, k, v, dens in rows:
        assert v == KARY[d][k - 2]
        assert dens == Fraction(v * (k - 1), k ** (d + 1))


def test_kary_recurrence():
    # stripping the bottom two all-detector layers: f(d) = f(d-3) + k^d + k^(d-1)
    for k in range(2, 8):
        for d in range(4, 11):
            assert kary_value(k, d) == kary_value(k, d - 3) + k ** d + k ** (d - 1)


def test_kary_constructions_verify():
    for k, d in [(2, 1), (3, 1), (7, 1), (2, 2), (4, 2), (2, 3), (3, 3), (2, 4),
                 (2, 5), (2, 6), (3, 4), (2, 7), (2, 8), (2, 9), (4, 3), (5, 3)]:
        fv = redld_kary(k, d)
        assert fv.graph is not None
        assert len(fv.construction) == fv.optimum
        assert is_redld_set(fv.graph, fv.construction).ok


def test_kary_matches_solver():
    for k, d in [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2)]:
        fv = redld_kary(k, d)
        assert fv.optimum == min_redld(fv.graph).optimum


def test_kary_materialization_cap():
    fv = redld_kary(7, 10)
    assert fv.optimum == 323772800
    assert fv.graph is None and fv.construction is None


def test_max_order_even_k():
    for k in (4, 6):
        fv = max_order_even_k(k)
        assert fv.graph.n == 2 ** (k - 1) + k - 2
        assert fv.optimum == k
        assert is_redld_set(fv.graph, fv.construction).ok
    with pytest.raises(ValueError):
        max_order_even_k(5)
    with pytest.raises(ValueError):
        max_order_even_k(2)


def test_max_order_k4_is_extremal():
    # n = 2^3 + 2 = 10 is really the maximum: the optimum on the witness graph is 4
    fv = max_order_even_k(4)
    assert min_redld(fv.graph).optimum == 4


def test_density_constants():
    by_id = {c.graph_id: c for c in density_constants()}
    assert by_id["P_inf"].lower == Fraction(2, 3) and by_id["P_inf"].tight
    assert by_id["HEX"].lower == Fraction(1, 2) and by_id["HEX"].tight
    assert by_id["TRI"].lower == Fraction(1, 3) and by_id["TRI"].tight
    assert by_id["SQ"].lower == Fraction(2, 5)
    assert by_id["SQ"].upper == Fraction(7, 16)
    assert not by_id["SQ"].tight
    assert by_id["KING"].lower == Fraction(3, 11)
    assert by_id["KING"].upper == Fraction(5, 16)
    assert by_id["Q_5"].lower == Fraction(3, 8) and by_id["Q_5"].tight
    for k in range(2, 8):
        assert by_id[f"kary_inf({k})"].lower == Fraction(2, k + 2)
