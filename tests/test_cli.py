from redld import grids
from redld.cli import main
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
    code, out, _ = run(capsys, ["solve", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "optimum: 6"
    assert lines[1] == "witness: 0 1 2 3 6 7"
    assert lines[2] == "labels: 0 1 2 3 6 7"
    code, out, _ = run(capsys, ["solve", "--mode", "ld", path])
    assert out.splitlines()[0] == "optimum: 4"


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


def test_family_path(capsys):
    code, out, _ = run(capsys, ["family", "path", "9"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "optimum: 7"
    assert lines[1] == "witness: 0 1 3 4 6 7 8"
    assert lines[2] == "labels: v_1 v_2 v_4 v_5 v_7 v_8 v_9"


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
