"""Compiled kernel backend: the C kernel `_ckern.c`, a CPython extension module.

Same API, return types, exceptions and decision order as pybits.py, so
verdicts, optima, witnesses and branch-and-bound node counts are identical.
This module builds the extension next to its source on first import (see
`_build.py`), loads it without entering it in `sys.modules`, and re-exports
its functions.  When it cannot be built or loaded, importing this module
raises ImportError and backend selection falls back to the pure-Python kernel.
The predicates and branch and bound have a build for one 64-bit word, which
every graph of at most 64 vertices uses; brute force, which takes at most 64
vertices, steps its subsets inside that word.  `mask_of` reads a list or
tuple of ints below 64 in place, and any other input item by item.

Every kernel name here (`make_ctx`, `mask_of`, `is_ld`, `is_redld`,
`is_redld_def`, `report`, `brute_force_min`, `pairs_scan`, `dom_candidates`,
`bnb`, `tree_code`, `tree_orbits`) is the extension's own function: a call
is one call into C, which checks its arguments there and raises the
exceptions pybits.py raises.  `Report` is the extension's type of the
verification report, which `report` fills in C, running no Python code.
The predicates, `report` and the tree functions keep the GIL;
`brute_force_min`, `pairs_scan`, `dom_candidates` and `bnb` release it while
they search.  A context is read-only once made, so several threads can use
one at once.  `dom_candidates` folds a lattice's constraints and pair
conditions in C from its kind, whose steps C keeps as a copy of
pybits.LATTICES, and its domain of at most 2**9 cells, and returns only
valid patterns, as pybits.dom_candidates says.
"""

from __future__ import annotations

from importlib.machinery import ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader

from . import _build

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
Report = _ext.Report
make_ctx = _ext.make_ctx
mask_of = _ext.mask_of
is_ld = _ext.is_ld
is_redld = _ext.is_redld
is_redld_def = _ext.is_redld_def
report = _ext.report
brute_force_min = _ext.brute_force_min
pairs_scan = _ext.pairs_scan
dom_candidates = _ext.dom_candidates
bnb = _ext.bnb
tree_code = _ext.tree_code
tree_orbits = _ext.tree_orbits
