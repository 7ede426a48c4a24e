"""Command-line front end.

Exit codes: 0 success (or property true), 1 valid run with a negative
answer, 2 input error, 3 budget exceeded.  Results go to standard output;
timing and diagnostics go to standard error so output stays byte-stable
across runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import families, grids, satreduce, trees
from .graph import Graph, parse_edge_list, render_edge_list
from .solver import BudgetExceededError, SolveBudget, min_ld, min_redld
from .verify import DetectorSet, is_ld_set, is_redld_by_definition, is_redld_set

OK, NEGATIVE, INPUT_ERROR, BUDGET = 0, 1, 2, 3


@dataclass
class RunReport:
    text: str
    code: int


def _read_graph(path: str) -> Graph:
    return parse_edge_list(Path(path).read_text())


def _budget(args) -> Optional[SolveBudget]:
    # 0 means no limit on the command line; SolveBudget reads None that way
    if args.budget_nodes or args.budget_seconds:
        return SolveBudget(args.budget_nodes or None, args.budget_seconds or None)
    return None


def _witness_line(g: Graph, s) -> str:
    vs = sorted(s)
    return "witness: " + " ".join(str(v) for v in vs) + "\n" + \
        "labels: " + " ".join(g.label(v) for v in vs)


def cmd_verify(args) -> RunReport:
    g = _read_graph(args.graph)
    checker = {
        "ld": is_ld_set,
        "redld": is_redld_set,
        "redld-def": is_redld_by_definition,
    }[args.mode]
    report = checker(g, args.vertices)
    return RunReport(report.render().rstrip("\n"), OK if report.ok else NEGATIVE)


def cmd_solve(args) -> RunReport:
    g = _read_graph(args.graph)
    solve = min_redld if args.mode == "redld" else min_ld
    result = solve(g, _budget(args))
    if result.infeasible:
        return RunReport("no valid set exists (isolated vertex)", NEGATIVE)
    lines = [f"optimum: {result.optimum}", _witness_line(g, result.witness)]
    return RunReport("\n".join(lines), OK)


def _family_report(value: families.FamilyValue) -> RunReport:
    lines = [f"optimum: {value.optimum}"]
    if value.construction is not None and value.graph is not None:
        lines.append(_witness_line(value.graph, value.construction))
    return RunReport("\n".join(lines), OK)


def _params(args, want: int) -> list[int]:
    if len(args.params) != want:
        raise ValueError(
            f"family {args.family!r} takes {want} integer parameter(s), "
            f"got {len(args.params)}"
        )
    return args.params


def _kary_table_text(fmt: str) -> str:
    rows = families.kary_table()
    if fmt == "csv":
        out = ["d,k,value,density"]
        for d, k, v, dens in rows:
            out.append(f"{d},{k},{v},{float(dens):.2f}")
        return "\n".join(out)
    ks = sorted({k for _d, k, _v, _dens in rows})
    by_d: dict[int, dict[int, tuple[int, Fraction]]] = {}
    for d, k, v, dens in rows:
        by_d.setdefault(d, {})[k] = (v, dens)
    header = "d\\k " + " ".join(f"{k:>16}" for k in ks)
    out = [header]
    for d in sorted(by_d):
        cells = [f"{by_d[d][k][0]} ({float(by_d[d][k][1]):.2f})" for k in ks]
        out.append(f"{d:<3} " + " ".join(f"{c:>16}" for c in cells))
    return "\n".join(out)


def cmd_family(args) -> RunReport:
    kind = args.family
    if kind == "path":
        return _family_report(families.redld_path(_params(args, 1)[0]))
    if kind == "cycle":
        return _family_report(families.redld_cycle(_params(args, 1)[0]))
    if kind == "ladder":
        return _family_report(families.redld_ladder(_params(args, 1)[0]))
    if kind == "kary":
        k, d = _params(args, 2)
        return _family_report(families.redld_kary(k, d))
    if kind == "kary-table":
        return RunReport(_kary_table_text(args.format), OK)
    if kind == "max-even":
        value = families.max_order_even_k(_params(args, 1)[0])
        lines = [
            f"vertices: {value.graph.n}",
            f"set size: {value.optimum}",
            _witness_line(value.graph, value.construction),
        ]
        return RunReport("\n".join(lines), OK)
    if kind == "constants":
        rows = families.density_constants()
        if args.format == "csv":
            out = ["graph,lower,upper"]
            out.extend(f"{c.graph_id},{c.lower},{c.upper}" for c in rows)
        else:
            out = [f"{c.graph_id:<12} [{c.lower}, {c.upper}]" for c in rows]
        return RunReport("\n".join(out), OK)
    raise ValueError(f"unknown family {kind!r}")


def cmd_tree(args) -> RunReport:
    sub = args.tree_cmd
    if sub == "classify-min":
        g = _read_graph(args.graph)
        result = trees.classify_tmin(g)
        if result.member:
            return RunReport(
                "member\n" + _witness_line(g, result.witness), OK
            )
        return RunReport("non-member", NEGATIVE)
    if sub == "classify-max":
        g = _read_graph(args.graph)
        return (
            RunReport("member", OK)
            if trees.is_tmax(g)
            else RunReport("non-member", NEGATIVE)
        )
    if sub == "enum-min":
        codes = trees.enumerate_tmin(args.n)
    else:
        codes = trees.enumerate_tmax(args.n)
    return RunReport("\n".join(codes + [f"count: {len(codes)}"]), OK)


def cmd_reduce(args) -> RunReport:
    phi = satreduce.parse_dimacs_cnf(Path(args.cnf).read_text())
    art = satreduce.build_reduction(phi)
    if not args.solve:
        text = (
            f"# K={art.k}\n"
            + render_edge_list(art.graph)
            + "# roles\n"
            + satreduce.render_roles(art)
        )
        return RunReport(text.rstrip("\n"), OK)
    sat, assignment = satreduce.decide_via_redld(phi, _budget(args))
    if not sat:
        return RunReport("UNSAT", NEGATIVE)
    pairs = " ".join(
        f"x{i}={'1' if assignment[i] else '0'}" for i in sorted(assignment)
    )
    return RunReport("SAT\n" + pairs, OK)


def cmd_grid(args) -> RunReport:
    if args.grid_cmd == "verify":
        pattern = grids.parse_pattern(Path(args.pattern).read_text())
        report = grids.verify_periodic(pattern)
        text = report.render().rstrip("\n") + f"\ndensity: {grids.density(pattern)}"
        return RunReport(text, OK if report.ok else NEGATIVE)
    kind = grids.LatticeKind(args.kind.upper())
    target = Fraction(args.target)
    found = grids.pattern_search(kind, args.max_period, target, seed=args.seed)
    if found is None:
        return RunReport("not found", NEGATIVE)
    return RunReport(
        grids.render_pattern(found) + f"density: {grids.density(found)}", OK
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-nodes", type=int, default=0)
    p.add_argument("--budget-seconds", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redld",
        description="Redundant locating-dominating sets: verify, solve, "
        "construct, reduce, and search grid patterns.",
    )
    parser.add_argument("--format", choices=["text", "csv"], default="text")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a detector set on a graph")
    p.add_argument("graph")
    p.add_argument("vertices", type=int, nargs="*")
    p.add_argument("--mode", choices=["ld", "redld", "redld-def"], default="redld")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("solve", help="minimum detector set")
    p.add_argument("graph")
    p.add_argument("--mode", choices=["ld", "redld"], default="redld")
    _add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("family", help="closed-form family values")
    p.add_argument(
        "family",
        choices=["path", "cycle", "ladder", "kary", "kary-table", "max-even", "constants"],
    )
    p.add_argument("params", type=int, nargs="*")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("tree", help="extremal tree families")
    tsub = p.add_subparsers(dest="tree_cmd", required=True)
    for name in ("classify-min", "classify-max"):
        tp = tsub.add_parser(name)
        tp.add_argument("graph")
        tp.set_defaults(fn=cmd_tree)
    for name in ("enum-min", "enum-max"):
        tp = tsub.add_parser(name)
        tp.add_argument("n", type=int)
        tp.set_defaults(fn=cmd_tree)

    p = sub.add_parser("reduce", help="3-SAT reduction")
    p.add_argument("cnf")
    p.add_argument("--solve", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("grid", help="periodic grid patterns")
    gsub = p.add_subparsers(dest="grid_cmd", required=True)
    gp = gsub.add_parser("verify")
    gp.add_argument("pattern")
    gp.set_defaults(fn=cmd_grid)
    gp = gsub.add_parser("search")
    gp.add_argument("kind", choices=["hex", "tri", "sq", "king"])
    gp.add_argument("max_period", type=int)
    gp.add_argument("target")
    gp.set_defaults(fn=cmd_grid)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args fills a new namespace on every call, so one parser serves
    # every main() call of a process
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.fn(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded after {exc.nodes} nodes", file=sys.stderr)
        return BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    finally:
        elapsed = time.perf_counter() - start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    print(report.text)
    return report.code


if __name__ == "__main__":
    sys.exit(main())
