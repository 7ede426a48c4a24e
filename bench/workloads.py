"""Seeded inputs for the four benchmark workloads and the check of every answer.

Each workload is a list of `Instance`s.  Running an instance calls redld the
way a user would: `solve`, `sat` and `grid` go through `redld.cli.main` on
generated files, `sweep` calls the library directly.  Every call is made
through a module attribute (`cli.main`, `verify.is_redld_set`, ...) at run
time, so the timing wrappers of `tracer.py` see it.

An instance name carries the seed exactly when its input depends on the
seed; the stored digests of seed-free names are compared on every seed.

Workload make-up (counts at full scale):

- solve: Petersen, Q_4 (both modes) and Q_5 (RED:LD); a fixed bank of
  G(n, 0.2) graphs with n = 20..24 (RED:LD; LD for n = 20) drawn from
  `BANK_SEED`; and seeded G(n, 0.2) graphs with n = 13..15 in both modes.
  The bank carries the heavy branch and bound; the seeded graphs are small
  because one graph of bank size takes from 0.01 s to 3 s, which would make
  the run time a draw of the seed.
- sat: the 215 instances of the reduction's acceptance test; a fixed bank of
  near-threshold (4.3 clauses per variable) formulas with 8 variables, half
  satisfiable; and seeded near-threshold formulas with 5 variables, half
  satisfiable.  With 9 or 10 variables one formula alone takes from 0.01 s
  to 5 s.
- grid: the published densities HEX 1/2, TRI 1/3, KING 5/16, the published
  SQ 7/16 pattern through `grid verify`, and absence probes that exhaust
  every domain up to period 5 or 6.  Searching SQ 7/16 itself takes about
  30 s in one call, longer than a run can hold.  The inputs do not depend on
  the seed beyond the CLI's `--seed`, which only steers random descents.
- sweep: RED:LD characterization against the removal definition on every
  (graph, subset) pair with n <= 5 and on seeded random graphs with
  n = 6..9, in both `verify` and the kernel; seeded random trees with
  n = 8..14 brute-forced against `classify_tmin` and `is_tmax`; and the
  extremal tree enumerations up to n = 14.
"""

from __future__ import annotations

import io
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path
from typing import Callable, Optional

from redld import _kernels, cli, graph, grids, satreduce, solver, trees, verify

BANK_SEED = 20221009

# Known optima of the fixed solve graphs.
KNOWN_OPTIMA = {
    ("petersen", "ld"): 4, ("petersen", "redld"): 6,
    ("q4", "ld"): 6, ("q4", "redld"): 8,
    ("q5", "redld"): 12,
}

# The published SQ pattern of density 7/16 (a 4 x 8 fundamental domain).
SQ_7_16 = """SQ 4 8
###.
...#
.#.#
.#..
#.##
.#..
.#.#
...#
"""

# (kind, max period, target, found): the published densities are found; the
# probes find nothing within their period, so they exhaust every domain and
# send every candidate to the pair scan.
GRID_SEARCHES = (
    ("hex", 2, "1/2", True),
    ("tri", 3, "1/3", True),
    ("king", 4, "5/16", True),
    ("sq", 5, "2/5", False),
    ("king", 5, "3/11", False),
    ("sq", 5, "7/16", False),
    ("king", 5, "2/7", False),
    ("hex", 6, "2/5", False),
)


@dataclass
class Instance:
    """One call into redld: `run` returns (exit code, stdout); `check`
    returns None when the answer holds, else the reason it does not."""

    name: str
    run: Callable[[], tuple[int, str]]
    check: Callable[[int, str], Optional[str]]


def _guarded(fn: Callable[[], tuple[int, str]]) -> tuple[int, str]:
    try:
        return fn()
    except Exception:  # an instance that raises is a failed answer, not a crash
        return -1, traceback.format_exc()


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    return lambda: _guarded(run)


# ---------------------------------------------------------------------------
# solve


def gnp(n: int, p: float, rng: random.Random) -> graph.Graph:
    """G(n, p), with each isolated vertex joined to a random other vertex so
    that a RED:LD set exists."""
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for v in range(n):
        if deg[v] == 0:
            w = rng.choice([x for x in range(n) if x != v])
            edges.add((min(v, w), max(v, w)))
            deg[v] += 1
            deg[w] += 1
    return graph.Graph(n, sorted(edges))


def _solve_check(g: graph.Graph, mode: str, known: Optional[int]):
    checker = verify.is_redld_set if mode == "redld" else verify.is_ld_set

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        if len(lines) != 3 or not lines[0].startswith("optimum: ") \
                or not lines[1].startswith("witness: "):
            return "malformed output"
        opt = int(lines[0].split()[1])
        witness = [int(t) for t in lines[1].split()[1:]]
        if lines[2].split()[1:] != lines[1].split()[1:]:
            return "labels differ from the witness"
        if len(set(witness)) != opt:
            return f"witness has {len(set(witness))} vertices, optimum says {opt}"
        if not checker(g, witness).ok:
            return "witness is not a valid set"
        if known is not None and opt != known:
            return f"optimum {opt}, expected {known}"
        return None

    return check


def solve_instances(seed: int, workdir: Path, smoke: bool) -> list[Instance]:
    cases = [
        ("petersen", graph.build_petersen(), ("ld", "redld")),
        ("q4", graph.build_hypercube(4), ("ld", "redld")),
    ]
    if not smoke:
        cases.append(("q5", graph.build_hypercube(5), ("redld",)))
    bank = random.Random(BANK_SEED)
    for n in range(20, 25):
        g = gnp(n, 0.2, bank)
        if smoke and n > 20:
            continue
        cases.append((f"bank-gnp{n}", g, ("ld", "redld") if n == 20 else ("redld",)))
    rng = random.Random(f"solve-{seed}")
    for i in range(4 if smoke else 24):
        n = rng.randint(13, 15)
        cases.append((f"s{seed}-gnp{n}-{i}", gnp(n, 0.2, rng), ("ld", "redld")))
    out = []
    for name, g, modes in cases:
        path = workdir / f"{name}.edges"
        path.write_text(graph.render_edge_list(g))
        for mode in modes:
            out.append(Instance(
                f"solve/{name}/{mode}",
                _cli(["solve", "--mode", mode, str(path)]),
                _solve_check(g, mode, KNOWN_OPTIMA.get((name, mode))),
            ))
    return out


# ---------------------------------------------------------------------------
# sat


def satisfying_assignments(phi: satreduce.SatInstance) -> int:
    """Bitset over all 2^n assignments (bit a: variable i is true iff bit
    i-1 of a is set) of those that satisfy every clause."""
    size = 1 << phi.n_vars
    full = (1 << size) - 1
    true_at = []
    for i in range(phi.n_vars):
        mask = 0
        for a in range(size):
            if a >> i & 1:
                mask |= 1 << a
        true_at.append(mask)
    sat = full
    for clause in phi.clauses:
        cover = 0
        for lit in clause:
            m = true_at[abs(lit) - 1]
            cover |= m if lit > 0 else full ^ m
        sat &= cover
    return sat


def _random_3sat(nv: int, m: int, rng: random.Random) -> satreduce.SatInstance:
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, nv + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return satreduce.SatInstance(nv, tuple(clauses))


def near_threshold(count: int, sizes: tuple[int, int], rng: random.Random):
    """`count` formulas at 4.3 clauses per variable, alternating satisfiable
    and unsatisfiable, by rejection on the truth table."""
    out = []
    while len(out) < count:
        nv = rng.randint(*sizes)
        phi = _random_3sat(nv, round(4.3 * nv), rng)
        if bool(satisfying_assignments(phi)) == (len(out) % 2 == 0):
            out.append(phi)
    return out


def acceptance_formulas() -> list[satreduce.SatInstance]:
    """The 165 sign patterns on three variables plus 50 seeded formulas,
    as in the reduction's acceptance test."""
    signs = [(s1, 2 * s2, 3 * s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    out = [satreduce.SatInstance(3, tuple(chosen))
           for m in range(4) for chosen in combinations_with_replacement(signs, m)]
    rng = random.Random(20240817)
    for _ in range(50):
        nv = rng.randint(3, 5)
        clauses = []
        for _ in range(rng.randint(1, 6)):
            vs = rng.sample(range(1, nv + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        out.append(satreduce.SatInstance(nv, tuple(clauses)))
    return out


def _dimacs(phi: satreduce.SatInstance) -> str:
    lines = [f"p cnf {phi.n_vars} {len(phi.clauses)}"]
    lines += [" ".join(map(str, cl)) + " 0" for cl in phi.clauses]
    return "\n".join(lines) + "\n"


def _sat_check(phi: satreduce.SatInstance):
    def check(code: int, out: str) -> Optional[str]:
        sat = bool(satisfying_assignments(phi))
        if not sat:
            return None if (code, out) == (1, "UNSAT\n") else f"expected UNSAT, got exit {code}"
        lines = out.splitlines()
        if code != 0 or len(lines) != 2 or lines[0] != "SAT":
            return f"expected SAT, got exit {code}"
        want = [f"x{i}=" for i in range(1, phi.n_vars + 1)]
        pairs = lines[1].split()
        if [p[:-1] for p in pairs] != want or any(p[-1] not in "01" for p in pairs):
            return "assignment does not list every variable once"
        value = {i + 1: p[-1] == "1" for i, p in enumerate(pairs)}
        if not all(any(value[abs(l)] == (l > 0) for l in cl) for cl in phi.clauses):
            return "assignment does not satisfy the formula"
        return None

    return check


def sat_instances(seed: int, workdir: Path, smoke: bool) -> list[Instance]:
    cases = [(f"crit08-{i:03d}", phi) for i, phi in enumerate(acceptance_formulas())]
    bank = near_threshold(2 if smoke else 8, (8, 8), random.Random(BANK_SEED))
    cases += [(f"bank-{i}", phi) for i, phi in enumerate(bank)]
    seeded = near_threshold(4 if smoke else 60, (5, 5), random.Random(f"sat-{seed}"))
    cases += [(f"s{seed}-{i}", phi) for i, phi in enumerate(seeded)]
    out = []
    for name, phi in cases:
        path = workdir / f"{name}.cnf"
        path.write_text(_dimacs(phi))
        out.append(Instance(f"sat/{name}", _cli(["reduce", "--solve", str(path)]),
                            _sat_check(phi)))
    return out


# ---------------------------------------------------------------------------
# grid


def _grid_search_check(target: Fraction, found: bool):
    def check(code: int, out: str) -> Optional[str]:
        if not found:
            if (code, out) != (1, "not found\n"):
                return f"expected absence, got exit {code}"
            return None
        if code != 0:
            return f"exit code {code}"
        head, _, dens = out.rstrip("\n").rpartition("\n")
        pattern = grids.parse_pattern(head)
        if not grids.verify_periodic(pattern).ok:
            return "pattern does not verify on the infinite grid"
        if grids.density(pattern) != target or dens != f"density: {target}":
            return f"density {grids.density(pattern)}, expected {target}"
        return None

    return check


def _grid_verify_check(code: int, out: str) -> Optional[str]:
    if (code, out) != (0, "mode=redld ok=true\ndensity: 7/16\n"):
        return f"published SQ pattern rejected (exit {code})"
    return None


def grid_instances(seed: int, workdir: Path, smoke: bool) -> list[Instance]:
    searches = GRID_SEARCHES[:4] if smoke else GRID_SEARCHES
    out = []
    for kind, period, target, found in searches:
        out.append(Instance(
            f"grid/search-{kind}-{period}-{target.replace('/', '_')}",
            _cli(["--seed", str(seed), "grid", "search", kind, str(period), target]),
            _grid_search_check(Fraction(target), found),
        ))
    path = workdir / "sq-7-16.txt"
    path.write_text(SQ_7_16)
    out.append(Instance("grid/verify-sq-7_16", _cli(["grid", "verify", str(path)]),
                        _grid_verify_check))
    return out


# ---------------------------------------------------------------------------
# sweep


def _pairs_run(graphs: list[graph.Graph], subsets: Callable[[graph.Graph], list[int]]):
    """Characterization, removal definition and both kernel predicates on
    every (graph, subset) pair; the output counts pairs, valid sets and
    pairs on which the four disagree."""

    def run() -> tuple[int, str]:
        pairs = valid = disagree = 0
        for g in graphs:
            ctx = _kernels.make_ctx(g.adj)
            for mask in subsets(g):
                s = [v for v in range(g.n) if mask >> v & 1]
                a = verify.is_redld_set(g, s).ok
                b = verify.is_redld_by_definition(g, s).ok
                c = _kernels.is_redld(ctx, mask)
                d = _kernels.is_redld_def(ctx, mask)
                pairs += 1
                valid += a
                disagree += not (a == b == c == d)
        return 0, f"pairs={pairs} valid={valid} disagree={disagree}\n"

    return lambda: _guarded(run)


def _pairs_check(pairs: int):
    def check(code: int, out: str) -> Optional[str]:
        if code != 0 or not out.startswith(f"pairs={pairs} ") \
                or not out.endswith(" disagree=0\n"):
            return f"predicates disagree or pairs missing: {out.strip()!r}"
        return None

    return check


def _all_graphs(n: int) -> list[graph.Graph]:
    slots = list(combinations(range(n), 2))
    return [graph.Graph(n, [e for e, take in zip(slots, picks) if take])
            for picks in product((0, 1), repeat=len(slots))]


def _tree_run(g: graph.Graph):
    def run() -> tuple[int, str]:
        opt = solver.brute_force_min_redld(g).optimum
        tmin = trees.classify_tmin(g)
        tmax = trees.is_tmax(g)
        witness = ",".join(map(str, tmin.witness)) if tmin.member else "-"
        return 0, f"n={g.n} optimum={opt} tmin={tmin.member} tmax={tmax} witness={witness}\n"

    return lambda: _guarded(run)


def _tree_check(g: graph.Graph):
    bound = trees.tree_lower_bound(g.n)

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return "raised"
        fields = dict(f.split("=", 1) for f in out.split())
        opt = int(fields["optimum"])
        if (fields["tmin"] == "True") != (opt == bound):
            return f"classify_tmin disagrees with the brute-force optimum {opt}"
        if (fields["tmax"] == "True") != (opt == g.n):
            return f"is_tmax disagrees with the brute-force optimum {opt}"
        if fields["tmin"] == "True":
            witness = [int(v) for v in fields["witness"].split(",")]
            if len(witness) != bound or not verify.is_redld_set(g, witness).ok:
                return "classify_tmin witness is not an optimal set"
        return None

    return check


def _enum_run(kind: str, n: int):
    def run() -> tuple[int, str]:
        fn = trees.enumerate_tmin if kind == "tmin" else trees.enumerate_tmax
        codes = fn(n)
        return 0, "\n".join(codes + [f"count: {len(codes)}"]) + "\n"

    return lambda: _guarded(run)


# Family sizes by order, from filtering all trees by their brute-force optimum.
ENUM_COUNTS = {
    "tmin": {8: 2, 9: 6, 10: 24, 11: 5, 12: 22, 13: 104, 14: 15},
    "tmax": {8: 10, 9: 14, 10: 27, 11: 43, 12: 82, 13: 140, 14: 269},
}


def _enum_check(kind: str, n: int):
    def check(code: int, out: str) -> Optional[str]:
        lines = out.splitlines()
        want = ENUM_COUNTS[kind].get(n)
        if code != 0 or not lines or lines[-1] != f"count: {len(lines) - 1}":
            return "malformed enumeration"
        codes = lines[:-1]
        if codes != sorted(set(codes)):
            return "codes are not sorted and distinct"
        if want is not None and len(codes) != want:
            return f"{len(codes)} trees, expected {want}"
        return None

    return check


def sweep_instances(seed: int, workdir: Path, smoke: bool) -> list[Instance]:
    out = []
    for n in range(1, 5 if smoke else 6):
        graphs = _all_graphs(n)
        out.append(Instance(
            f"sweep/pairs-all-n{n}",
            _pairs_run(graphs, lambda g: range(1 << g.n)),
            _pairs_check(len(graphs) << n),
        ))
    rng = random.Random(f"sweep-pairs-{seed}")
    for i in range(10 if smoke else 60):
        n = rng.randint(6, 9)
        p = rng.uniform(0.15, 0.7)
        g = graph.Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        masks = [rng.getrandbits(n) for _ in range(40)]
        out.append(Instance(f"sweep/pairs-s{seed}-{i}", _pairs_run([g], lambda _g, m=masks: m),
                            _pairs_check(len(masks))))
    rng = random.Random(f"sweep-trees-{seed}")
    for i in range(10 if smoke else 80):
        g = trees.random_tree(rng.randint(8, 14), rng)
        out.append(Instance(f"sweep/tree-s{seed}-{i}", _tree_run(g), _tree_check(g)))
    for kind in ("tmin", "tmax"):
        for n in range(2, 11 if smoke else 15):
            out.append(Instance(f"sweep/enum-{kind}-{n}", _enum_run(kind, n), _enum_check(kind, n)))
    return out


BUILDERS = {
    "solve": solve_instances,
    "sat": sat_instances,
    "grid": grid_instances,
    "sweep": sweep_instances,
}
