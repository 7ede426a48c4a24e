import sys

import pytest

from redld import cli, grids, satreduce
from redld.cli import main
from redld.families import kary_value
from redld.graph import build_path, build_petersen, render_edge_list

P7_CNF = """p cnf 3 2
1 2 3 0
-1 -2 3 0
"""

UNSAT_CNF = "p cnf 3 8\n" + "\n".join(
    f"{s1 * 1} {s2 * 2} {s3 * 3} 0"
    for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)
) + "\n"


def graph_file(tmp_path, g, name="g.edges"):
    path = tmp_path / name
    path.write_text(render_edge_list(g))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_ok(tmp_path, capsys):
    path = graph_file(tmp_path, build_path(4))
    code, out, err = run(capsys, ["verify", path, "0", "1", "2", "3"])
    assert code == 0
    assert out == "mode=redld ok=true\n"
    assert err.startswith("elapsed: ")


def test_verify_negative_lists_violations(tmp_path, capsys):
    path = graph_file(tmp_path, build_path(4))
    code, out, _ = run(capsys, ["verify", path, "0", "1"])
    assert code == 1
    assert "violation DOM2 3" in out
    code, out, _ = run(capsys, ["verify", "--mode", "redld-def", path, "0", "1"])
    assert code == 1
    code, out, _ = run(capsys, ["verify", "--mode", "ld", path, "1", "2"])
    assert code == 0


def test_verify_bad_vertex(tmp_path, capsys):
    path = graph_file(tmp_path, build_path(4))
    code, out, err = run(capsys, ["verify", path, "9"])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, ["solve", "/nonexistent/g.edges"])
    assert code == 2
    assert "error:" in err


def test_solve(tmp_path, capsys):
    path = graph_file(tmp_path, build_petersen())
    code, out, err = run(capsys, ["solve", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "optimum: 6"
    assert lines[1] == "witness: 0 1 2 3 6 7"
    assert lines[2] == "labels: 0 1 2 3 6 7"
    # the per-phase counts go to stderr, so stdout stays byte-stable
    assert "nodes: optimum 32 (2 calls), witness 4 (4 calls)\n" in err
    code, out, err = run(capsys, ["solve", "--mode", "ld", path])
    assert out.splitlines()[0] == "optimum: 4"
    assert "nodes: optimum 29 (1 calls), witness 22 (6 calls)\n" in err


def test_solve_of_a_disconnected_graph_is_pinned(tmp_path, capsys):
    # Petersen, C_5 and P_4 with their vertices interleaved: each component
    # is solved on its own and mapped back
    from redld.graph import Graph
    perm = [8, 3, 6, 5, 15, 16, 2, 12, 0, 1, 13, 10, 18, 9, 14, 11, 4, 17, 7]
    parts = [(0, build_petersen().edges()), (10, [(i, (i + 1) % 5) for i in range(5)]),
             (15, [(0, 1), (1, 2), (2, 3)])]
    g = Graph(19, [(perm[o + u], perm[o + v]) for o, es in parts for u, v in es])
    assert len(g.connected_components()) == 3
    path = graph_file(tmp_path, g)
    code, out, _ = run(capsys, ["solve", path])
    assert code == 0
    assert out == ("optimum: 14\nwitness: 0 1 2 3 4 5 7 9 10 11 13 14 16 17\n"
                   "labels: 0 1 2 3 4 5 7 9 10 11 13 14 16 17\n")
    code, out, _ = run(capsys, ["solve", "--mode", "ld", path])
    assert code == 0
    assert out == "optimum: 8\nwitness: 0 1 3 4 5 7 9 10\nlabels: 0 1 3 4 5 7 9 10\n"


def test_solve_infeasible(tmp_path, capsys):
    path = tmp_path / "iso.edges"
    path.write_text("3\n0 1\n")
    code, out, _ = run(capsys, ["solve", str(path)])
    assert code == 1
    assert "no valid set exists" in out


def test_solve_budget_exit(tmp_path, capsys):
    from redld.graph import Graph
    import random
    from itertools import combinations
    rng = random.Random(1)
    g = Graph(18, [e for e in combinations(range(18), 2) if rng.random() < 0.3])
    path = graph_file(tmp_path, g)
    code, _, err = run(capsys, ["solve", path, "--budget-nodes", "3"])
    assert code == 3
    assert "budget exceeded" in err


def test_solve_with_only_a_seconds_budget(tmp_path, capsys):
    path = graph_file(tmp_path, build_petersen())
    code, out, _ = run(capsys, ["solve", "--budget-seconds", "5", path])
    assert code == 0
    assert out.splitlines()[0] == "optimum: 6"


@pytest.mark.parametrize("flag, value", [("--budget-nodes", "-5"),
                                         ("--budget-seconds", "-1")])
def test_solve_rejects_a_negative_budget(tmp_path, capsys, flag, value):
    path = graph_file(tmp_path, build_petersen())
    code, out, err = run(capsys, ["solve", path, flag, value])
    assert code == 2
    assert out == ""
    assert "error: " in err and "must be a number >= 0" in err


def test_node_budgets_past_64_bits_mean_no_limit(tmp_path, capsys):
    # the kernels count nodes in 64 bits; a larger budget must not crash them
    path = graph_file(tmp_path, build_petersen())
    huge = ["--budget-nodes", str(10**20)]
    assert run(capsys, ["solve", path, *huge])[:2] == run(capsys, ["solve", path])[:2]
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(P7_CNF)
    code, out, _ = run(capsys, ["reduce", "--solve", str(cnf), *huge])
    assert (code, out) == run(capsys, ["reduce", "--solve", str(cnf)])[:2]
    assert out.startswith("SAT\n")


def test_family_path(capsys):
    code, out, _ = run(capsys, ["family", "path", "9"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "optimum: 7"
    assert lines[1] == "witness: 0 1 3 4 6 7 8"
    assert lines[2] == "labels: v_1 v_2 v_4 v_5 v_7 v_8 v_9"


def test_family_past_the_build_cap_prints_the_optimum_only(capsys):
    # a path, cycle or ladder past the build cap is not built: the exact
    # optimum is printed at once, with no witness line
    huge = 10**20
    for family, want in (("path", -(-(2 * huge + 2) // 3)), ("cycle", -(-2 * huge // 3)),
                         ("ladder", huge + 2)):
        assert run(capsys, ["family", family, str(huge)])[:2] == (0, f"optimum: {want}\n")


def test_family_prints_an_optimum_past_the_int_digit_limit(capsys):
    # kary 2 15000 has 4,516 digits, past CPython's default limit of 4,300
    # on int-to-str conversion, which the CLI must leave as it is
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run(capsys, ["family", "kary", "2", "15000"])
    assert code == 0
    head, digits = out.rstrip("\n").split(" ")
    assert head == "optimum:" and digits.isdigit() and digits[0] != "0"
    value = 0
    for i in range(0, len(digits), 1000):  # each part within any limit
        value = value * 10 ** len(digits[i:i + 1000]) + int(digits[i:i + 1000])
    assert value == kary_value(2, 15000)
    assert len(digits) == 4516
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.parametrize("digits", [1, 511, 512, 513, 1024, 1025, 2049, 4000])
def test_optimum_digits_at_the_part_boundaries(digits):
    # each x has at most 4,001 digits, which str() takes under the default limit
    for x in (10 ** digits - 1, 10 ** digits, 10 ** digits + 1, 7 * 10 ** (digits - 1) + 3):
        assert cli._decimal(x) == str(x)


def test_family_param_count(capsys):
    code, _, err = run(capsys, ["family", "kary"])
    assert code == 2
    assert "takes 2 integer parameter(s), got 0" in err


def test_family_kary_table(capsys):
    code, out, _ = run(capsys, ["--format", "csv", "family", "kary-table"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,k,value,density"
    assert len(lines) == 61
    assert lines[1] == "1,2,3,0.75"


def test_family_constants(capsys):
    code, out, _ = run(capsys, ["--format", "csv", "family", "constants"])
    assert code == 0
    assert "SQ,2/5,7/16" in out
    assert "HEX,1/2,1/2" in out


def test_family_max_even(capsys):
    code, out, _ = run(capsys, ["family", "max-even", "4"])
    assert code == 0
    assert out.splitlines()[0] == "vertices: 10"
    assert out.splitlines()[1] == "set size: 4"


def test_tree_classify(tmp_path, capsys):
    path = graph_file(tmp_path, build_path(8))
    code, out, _ = run(capsys, ["tree", "classify-min", path])
    assert code == 0
    assert out.splitlines()[0] == "member"
    # a 5-star is not minimum-family but is all-detector
    star = tmp_path / "star.edges"
    star.write_text("5\n0 1\n0 2\n0 3\n0 4\n")
    code, out, _ = run(capsys, ["tree", "classify-min", str(star)])
    assert code == 1
    assert out == "non-member\n"
    code, out, _ = run(capsys, ["tree", "classify-max", str(star)])
    assert code == 0
    code, out, _ = run(capsys, ["tree", "classify-max", path])
    assert code == 1


def test_tree_classify_rejects_nontree(tmp_path, capsys):
    path = tmp_path / "c3.edges"
    path.write_text("3\n0 1\n1 2\n0 2\n")
    code, _, err = run(capsys, ["tree", "classify-min", str(path)])
    assert code == 2
    assert "error:" in err


def test_tree_enum(capsys):
    code, out, _ = run(capsys, ["tree", "enum-min", "7"])
    assert code == 0
    assert out.splitlines()[-1] == "count: 6"
    code, out, _ = run(capsys, ["tree", "enum-max", "8"])
    assert out.splitlines()[-1] == "count: 10"


def test_reduce_render(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(P7_CNF)
    code, out, _ = run(capsys, ["reduce", str(cnf)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# K=31"
    assert lines[1] == "42"
    assert "# roles" in out
    assert "8 x_1" in out


def test_reduce_solve(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(P7_CNF)
    code, out, _ = run(capsys, ["reduce", "--solve", str(cnf)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "SAT"
    assert all(tok.startswith("x") for tok in lines[1].split())
    cnf.write_text(UNSAT_CNF)
    code, out, _ = run(capsys, ["reduce", "--solve", str(cnf)])
    assert code == 1
    assert out == "UNSAT\n"


def test_reduce_solve_builds_the_rows_once(tmp_path, capsys, monkeypatch):
    # --solve searches the bare rows: no labelled reduction is built
    wired, built = [], []
    real_wiring, real_build = satreduce._wiring, satreduce.build_reduction

    def counted_wiring(phi):
        wired.append(phi)
        return real_wiring(phi)

    def counted_build(phi):
        built.append(phi)
        return real_build(phi)

    monkeypatch.setattr(satreduce, "_wiring", counted_wiring)
    monkeypatch.setattr(satreduce, "build_reduction", counted_build)
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(P7_CNF)
    code, out, _ = run(capsys, ["reduce", "--solve", str(cnf)])
    assert (code, out.splitlines()[0], len(wired), len(built)) == (0, "SAT", 1, 0)
    code, out, _ = run(capsys, ["reduce", str(cnf)])
    assert (code, out.splitlines()[0], len(wired), len(built)) == (0, "# K=31", 2, 1)


def test_reduce_reads_a_satlib_tail(tmp_path, capsys):
    # SATLIB's uf/uuf files end their clause data with a "%" line and a "0"
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(P7_CNF + "%\n0\n\n")
    code, out, _ = run(capsys, ["reduce", "--solve", str(cnf)])
    assert (code, out.splitlines()[0]) == (0, "SAT")
    code, out, _ = run(capsys, ["reduce", str(cnf)])
    assert (code, out.splitlines()[0]) == (0, "# K=31")


def test_reduce_bad_cnf(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    code, _, err = run(capsys, ["reduce", str(cnf)])
    assert code == 2
    assert "error:" in err


def test_grid_verify(tmp_path, capsys):
    pat = tmp_path / "hex.pattern"
    pat.write_text("HEX 2 1\n#.\n")
    code, out, _ = run(capsys, ["grid", "verify", str(pat)])
    assert code == 0
    assert "ok=true" in out
    assert "density: 1/2" in out
    pat.write_text("SQ 2 2\n#.\n..\n")
    code, out, _ = run(capsys, ["grid", "verify", str(pat)])
    assert code == 1
    assert "ok=false" in out


def test_grid_search(capsys):
    code, out, _ = run(capsys, ["grid", "search", "tri", "3", "1/3"])
    assert code == 0
    assert out.splitlines()[0] == "TRI 2 3"
    assert "density: 1/3" in out
    code, out, _ = run(capsys, ["grid", "search", "hex", "2", "1/3"])
    assert code == 1
    assert out == "not found\n"
    # a target above 1 is met by the all-detector pattern, density 1
    code, out, _ = run(capsys, ["grid", "search", "sq", "2", "2"])
    assert code == 0
    assert out == "SQ 1 1\n#\ndensity: 1\n"


def test_grid_search_that_gave_up_exits_3(capsys, monkeypatch):
    # walks cut by their node budget leave the absence unproved: exit 3, as
    # for a solve that ran out of budget, and nothing on stdout
    monkeypatch.setattr(grids, "_DFS_NODE_BUDGET", 50)
    monkeypatch.setattr(grids, "_DESCENT_COUNT", 3)
    code, out, err = run(capsys, ["grid", "search", "sq", "5", "2/5"])
    assert (code, out) == (3, "")
    assert "budget exceeded after 200 nodes" in err


def test_grid_input_errors_exit_2(tmp_path, capsys):
    pat = tmp_path / "empty.pattern"
    for text in ("", "\n  \n", "#! a comment only\n"):
        pat.write_text(text)
        code, out, err = run(capsys, ["grid", "verify", str(pat)])
        assert (code, out) == (2, "")
        assert "error: empty pattern" in err
    code, out, err = run(capsys, ["grid", "search", "sq", "3", "1/0"])
    assert (code, out) == (2, "")
    assert "error: target density '1/0'" in err
    # a period that lists no domain, or whose largest domain the walk cannot
    # take, is an input error, not a search that found nothing
    for kind, period, message in (("sq", "0", "max_period must be in 1 .. 22, got 0"),
                                  ("sq", "23", "max_period must be in 1 .. 22, got 23"),
                                  ("hex", "1", "hexagonal domains have even widths: "
                                                "max_period must be at least 2")):
        code, out, err = run(capsys, ["grid", "search", kind, period, "1/2"])
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == f"error: {message}"


def test_reruns_are_byte_identical(tmp_path, capsys):
    path = graph_file(tmp_path, build_petersen())
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, ["solve", path])
        outs.add(out)
    assert len(outs) == 1


def test_successive_calls_share_no_options(monkeypatch, capsys):
    seeds = []

    def search(kind, max_period, target, seed):
        seeds.append(seed)
        return None

    monkeypatch.setattr(grids, "pattern_search", search)
    argv = ["grid", "search", "tri", "3", "1/3"]
    assert run(capsys, ["--seed", "3", *argv])[:2] == (1, "not found\n")
    assert run(capsys, argv)[:2] == (1, "not found\n")
    assert run(capsys, ["--format", "csv", "family", "constants"])[1].startswith("graph,")
    assert not run(capsys, ["family", "constants"])[1].startswith("graph,")
    assert seeds == [3, 0]
