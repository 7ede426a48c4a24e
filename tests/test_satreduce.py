import hashlib
import random
from itertools import combinations_with_replacement, product

import pytest

from redld import satreduce
from redld.cli import main
from redld.graph import Graph
from redld.satreduce import (
    SatInstance,
    assignment_to_detectors,
    build_reduction,
    decide_via_redld,
    extract_assignment,
    parse_dimacs_cnf,
    render_roles,
)
from redld.solver import BudgetExceededError, SolveBudget, min_redld
from redld.verify import is_redld_set

CNF = """c toy instance
p cnf 4 2
1 -2 3 0
-1 2 4 0
"""


def brute_sat(phi):
    for bits in product([False, True], repeat=phi.n_vars):
        asg = {i + 1: bits[i] for i in range(phi.n_vars)}
        if all(any(asg[abs(l)] == (l > 0) for l in cl) for cl in phi.clauses):
            return asg
    return None


def test_parse_dimacs():
    phi = parse_dimacs_cnf(CNF)
    assert phi.n_vars == 4
    assert phi.clauses == ((1, -2, 3), (-1, 2, 4))


def test_parse_stops_at_a_percent_line():
    # SATLIB's uf/uuf files end their clause data with "%" and then "0"
    phi = parse_dimacs_cnf(CNF + "%\n0\n\n")
    assert phi.clauses == ((1, -2, 3), (-1, 2, 4))
    assert parse_dimacs_cnf("p cnf 3 1\n1 2 3 0\n% 4 5 6 0\n7 8 9 0\n").clauses == ((1, 2, 3),)
    with pytest.raises(ValueError, match="header promises 3 clauses, found 2"):
        parse_dimacs_cnf(CNF.replace("p cnf 4 2", "p cnf 4 3") + "%\n0\n")
    with pytest.raises(ValueError, match="missing 'p cnf' header"):
        parse_dimacs_cnf("%\n" + CNF)


def test_instance_rejects_what_is_not_an_int():
    with pytest.raises(TypeError, match="literal that is not an int"):
        SatInstance(3, ((1, 2, 3.0),))
    with pytest.raises(TypeError, match="literal that is not an int"):
        SatInstance(3, ((True, 2, 3),))
    with pytest.raises(TypeError, match="n_vars must be an int, got True"):
        SatInstance(True, ())
    with pytest.raises(TypeError, match="n_vars must be an int, got 3.0"):
        SatInstance(3.0, ((1, 2, 3),))


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_dimacs_cnf("")
    with pytest.raises(ValueError):
        parse_dimacs_cnf("p cnf x 1\n1 2 3 0\n")
    with pytest.raises(ValueError):
        parse_dimacs_cnf("1 2 3 0\np cnf 3 1\n")
    with pytest.raises(ValueError):
        parse_dimacs_cnf("p cnf 3 1\n1 2 0\n")
    with pytest.raises(ValueError):
        parse_dimacs_cnf("p cnf 3 1\n1 2 3\n")
    with pytest.raises(ValueError):
        parse_dimacs_cnf("p cnf 3 2\n1 2 3 0\n")
    with pytest.raises(ValueError):
        parse_dimacs_cnf("p cnf 3 1\n1 2 4 0\n")
    with pytest.raises(ValueError):
        parse_dimacs_cnf("p cnf 3 1\n1 2 -2 0\n")


def test_reduction_shape():
    phi = parse_dimacs_cnf(CNF)
    art = build_reduction(phi)
    n, m = 4, 2
    assert art.graph.n == 12 * n + 3 * m
    assert art.graph.edge_count() == 13 * n + 5 * m
    assert art.k == 9 * n + 2 * m
    assert len(art.forced) == 8 * n + 2 * m
    # clause vertices see exactly their three literal vertices plus the 2-path
    cj = art.clause_vertex[1]
    lits = {art.var_true[1], art.var_false[2], art.var_true[3]}
    assert set(art.graph.adj[cj]) == lits | {cj - 1}


def test_roles_render():
    art = build_reduction(parse_dimacs_cnf(CNF))
    text = render_roles(art)
    lines = text.strip().splitlines()
    assert len(lines) == art.graph.n
    assert lines[8] == "8 x_1"
    assert lines[9] == "9 xbar_1"
    cj = art.clause_vertex[1]
    assert lines[cj - 1:cj + 1] == [f"{cj - 1} H-internal-detector", f"{cj} c_1"]
    assert text.count("F-internal-detector") == 32
    assert text.count("H-internal-detector") == 4


def test_assignment_round_trip():
    phi = parse_dimacs_cnf(CNF)
    art = build_reduction(phi)
    asg = {1: True, 2: False, 3: True, 4: True}
    s = assignment_to_detectors(art, asg)
    assert len(s) == art.k
    assert is_redld_set(art.graph, s).ok
    assert extract_assignment(art, s) == asg
    with pytest.raises(ValueError):
        extract_assignment(art, art.forced)


def test_satisfying_assignments_give_valid_sets_and_back():
    phi = SatInstance(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3)))
    art = build_reduction(phi)
    for bits in product([False, True], repeat=3):
        asg = {i + 1: bits[i] for i in range(3)}
        sat = all(any(asg[abs(l)] == (l > 0) for l in cl) for cl in phi.clauses)
        s = assignment_to_detectors(art, asg)
        assert is_redld_set(art.graph, s).ok == sat


def test_decide_agrees_with_truth_tables():
    rng = random.Random(17)
    for _ in range(25):
        nv = rng.randint(3, 4)
        clauses = []
        for _ in range(rng.randint(1, 5)):
            vs = rng.sample(range(1, nv + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        phi = SatInstance(nv, tuple(clauses))
        sat, asg = decide_via_redld(phi)
        assert sat == (brute_sat(phi) is not None)
        if sat:
            assert all(any(asg[abs(l)] == (l > 0) for l in cl) for cl in phi.clauses)


def test_unsatisfiable_instance():
    # all eight sign patterns on three variables cannot be satisfied at once
    clauses = tuple(
        (s1 * 1, s2 * 2, s3 * 3)
        for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)
    )
    phi = SatInstance(3, clauses)
    sat, asg = decide_via_redld(phi)
    assert not sat and asg is None
    # one detector above K always works: add any one literal partner
    art = build_reduction(phi)
    assert min_redld(art.graph).optimum == art.k + 1


def test_optimum_on_satisfiable_reduction_is_k():
    phi = parse_dimacs_cnf(CNF)
    art = build_reduction(phi)
    res = min_redld(art.graph)
    assert res.optimum == art.k
    extras = set(res.witness) - set(art.forced)
    assert len(extras) == phi.n_vars
    for i in range(1, phi.n_vars + 1):
        assert len(extras & {art.var_true[i], art.var_false[i]}) == 1


def test_decide_budget():
    phi = SatInstance(5, ((1, 2, 3), (-2, 4, 5), (-1, -3, -5)))
    with pytest.raises(BudgetExceededError):
        decide_via_redld(phi, SolveBudget(max_nodes=2))


def test_decide_budget_reads_like_the_solver():
    # a zero node budget gives up at once, as in min_redld; a seconds-only
    # budget leaves the node count unlimited
    phi = SatInstance(5, ((1, 2, 3), (-2, 4, 5), (-1, -3, -5)))
    for budget in (SolveBudget(max_nodes=0), SolveBudget(max_nodes=0, max_seconds=30)):
        with pytest.raises(BudgetExceededError):
            decide_via_redld(phi, budget)
        with pytest.raises(BudgetExceededError):
            min_redld(build_reduction(phi).graph, budget)
    assert decide_via_redld(phi, SolveBudget(max_seconds=30)) == decide_via_redld(phi)


def wiring_formulas():
    """The acceptance formulas, then 8-variable formulas at 4.3 clauses per
    variable, where literals recur across clauses."""
    signs = [(s1, 2 * s2, 3 * s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    formulas = [SatInstance(3, tuple(chosen))
                for m in range(4) for chosen in combinations_with_replacement(signs, m)]
    rng = random.Random(20240817)

    def random_formula(nv, m):
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(1, nv + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        return SatInstance(nv, tuple(clauses))

    for _ in range(50):
        nv = rng.randint(3, 5)
        formulas.append(random_formula(nv, rng.randint(1, 6)))
    return formulas + [random_formula(8, 34) for _ in range(8)]


def test_reduction_adjacency_matches_checked_build():
    # the unchecked adjacency rows equal what the checked constructor makes
    # of the same edges
    for phi in wiring_formulas():
        g = build_reduction(phi).graph
        checked = Graph(g.n, g.edges(), g.labels)
        assert g.adj == checked.adj and g.labels == checked.labels


def test_decide_wiring_is_the_reduction():
    # decide_via_redld searches the bare rows, forced mask and K; they are
    # the labelled reduction's, and the forced vertices are a-d' of each
    # gadget and d1, d2 of each clause block
    for phi in wiring_formulas():
        n, m = phi.n_vars, len(phi.clauses)
        rows, forced, k = satreduce._wiring(phi)
        art = build_reduction(phi)
        assert tuple(map(tuple, rows)) == art.graph.adj
        assert (forced, k) == (art.forced.mask(), art.k) == (
            sum(0xFF << 12 * i for i in range(n)) + sum(3 << 12 * n + 3 * j for j in range(m)),
            9 * n + 2 * m)


def test_reduce_stdout_is_pinned(tmp_path, capsys):
    # sha256 prefixes of `reduce` and `reduce --solve` (exit code, then
    # stdout) over the formulas above; both backends give them
    cnf = tmp_path / "phi.cnf"
    for flags, want in ((["reduce"], "e94064c36cbc3090"),
                        (["reduce", "--solve"], "db67976429bcd7bf")):
        digest = hashlib.sha256()
        for phi in wiring_formulas():
            cnf.write_text(f"p cnf {phi.n_vars} {len(phi.clauses)}\n"
                           + "".join(" ".join(map(str, cl)) + " 0\n" for cl in phi.clauses))
            code = main([*flags, str(cnf)])
            digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest()[:16] == want
