"""Compiled kernel backend: the C kernel `_ckern.c`, a CPython extension module.

Same API, return types, exceptions and decision order as pybits.py, so
verdicts, optima, witnesses and branch-and-bound node counts are identical.
This module builds the extension next to its source on first import (see
`_build.py`), loads it without entering it in `sys.modules`, and re-exports
it.  When it cannot be built or loaded, importing this module raises
ImportError and backend selection falls back to the pure-Python kernel.

`make_ctx` and the predicates `is_ld`, `is_redld` and `is_redld_def` are the
extension's own functions: a verdict is one call into C, which range-checks
the mask there and runs no Python frame of the kernel.  `brute_force_min`,
`pairs_ok`, `pairs_scan`, `dom_candidates` and `bnb` make the argument checks
they share with pybits.py here, then one call into C, which releases the GIL
while it searches.  A context is read-only once made, so several threads can
use one at once.
"""

from __future__ import annotations

import time
from importlib.machinery import ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader

from . import _build
from .pybits import (MODE_LD, MODE_REDLD, MODE_REDLD_DEF, _check_forced, _check_mode,
                     _check_pairs, _check_walk)

BACKEND = "c"


def _load():
    # Loaded under this module's name, which gives the extension's init
    # function its name (PyInit__ckern), but not entered in sys.modules: the
    # extension is reached through this module only.
    loader = ExtensionFileLoader(__name__, str(_build.build()))
    ext = module_from_spec(spec_from_loader(__name__, loader))
    loader.exec_module(ext)
    return ext


_ext = _load()

Ctx = _ext.Ctx
make_ctx = _ext.make_ctx
is_ld = _ext.is_ld
is_redld = _ext.is_redld
is_redld_def = _ext.is_redld_def


def brute_force_min(ctx, mode: int) -> tuple[int, int]:
    """Minimum valid set by cardinality then lexicographic order.

    Returns (size, mask), or (-1, 0) when no subset is valid.
    """
    _check_mode(mode, (MODE_LD, MODE_REDLD, MODE_REDLD_DEF))
    return _ext.brute_force_min(ctx, mode)


def pairs_ok(ctx, s: int, us: list[int], vs: list[int]) -> bool:
    """2-domination of every vertex plus the pair conditions on (us[i], vs[i])."""
    _check_pairs(us, vs)
    return _ext.pairs_scan(ctx, us, vs, (s,)) == 0


def pairs_scan(ctx, us: list[int], vs: list[int], candidates) -> int:
    """Index of the first candidate mask passing pairs_ok, or -1."""
    _check_pairs(us, vs)
    return _ext.pairs_scan(ctx, us, vs, candidates)


def dom_candidates(n_cells: int, touch, count: int,
                   node_budget: int) -> tuple[list[int], bool]:
    """Same contract as pybits.dom_candidates."""
    _check_walk(n_cells, touch, count)
    return _ext.dom_candidates(touch, count, node_budget)


def bnb(ctx, mode: int, forced_in: int, forced_out: int, cap: int,
        stop_at: int, node_budget: int, deadline: float) -> tuple[int, int, int, int]:
    """Same contract as pybits.bnb."""
    _check_mode(mode, (MODE_LD, MODE_REDLD))
    _check_forced(ctx.n, forced_in, forced_out)
    # C keeps its own clock: pass the time left rather than a monotonic-clock
    # deadline, and -1 for none.  A deadline already past stops the search at
    # its first node, as in pybits.
    timeout = max(deadline - time.monotonic(), 0.0) if deadline else -1.0
    return _ext.bnb(ctx, mode, forced_in, forced_out, cap, stop_at, node_budget, timeout)
