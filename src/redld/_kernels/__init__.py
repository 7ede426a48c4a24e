"""Kernel backend selection: compiled extension when available, else pure Python.

Both backends have the same entry points: `make_ctx` builds a graph's
context; `mask_of` turns an iterable of vertices into a mask, range-checked
(C reads a list or tuple of ints below 64 in place, anything else item by
item, with the same results and errors); the predicates `is_ld`, `is_redld`
and `is_redld_def` judge a mask; `report(cls, ctx, mode, g, mask)` judges it
in a mode and returns an instance of `cls`, a subclass of the backend's
verification report type `Report`, which holds the mode's name, the verdict,
the graph and the mask; `brute_force_min` (at most 64 vertices),
`pairs_scan`, `dom_candidates` and `bnb` search; and
`tree_code` and `tree_orbits` give a tree's canonical code and the least
vertex of each automorphism orbit, the tree given by its rows and a mask
of coloured vertices.

`dom_candidates(kind, w, h, count, node_budget)` takes a lattice by its
`LatticeKind` name ("HEX", "TRI", "SQ" or "KING"), whose steps are those of
`pybits.LATTICES` (C holds a copy), and returns the valid periodic patterns
of `count` cells on the w x h domain of at most 2**9 cells: it folds the
domination constraints, which prune its walk, and the pair conditions,
which it checks at the leaves only, so that most domains never fold them
and the walk's node count stays that of the domination walk.  A
verification torus then only certifies the pattern a search returns.

Set REDLD_BACKEND=py or REDLD_BACKEND=c to force a backend; forcing "c" raises,
naming the cause, if the extension cannot be built or loaded.
"""

import os

from . import pybits as _py
from .pybits import MODE_LD, MODE_REDLD, MODE_REDLD_DEF

_choice = os.environ.get("REDLD_BACKEND", "").strip().lower()
if _choice not in ("", "c", "py"):
    raise RuntimeError(f"REDLD_BACKEND must be 'c' or 'py', got {_choice!r}")

if _choice == "py":
    _impl = _py
else:
    try:
        from . import _ckern as _impl  # type: ignore[attr-defined]
    except ImportError as exc:
        if _choice == "c":
            raise RuntimeError(f"REDLD_BACKEND=c but the compiled kernel is not available: "
                               f"{exc}") from exc
        _impl = _py

BACKEND = _impl.BACKEND

make_ctx = _impl.make_ctx
mask_of = _impl.mask_of
is_ld = _impl.is_ld
is_redld = _impl.is_redld
is_redld_def = _impl.is_redld_def
Report = _impl.Report
report = _impl.report
brute_force_min = _impl.brute_force_min
pairs_scan = _impl.pairs_scan
bnb = _impl.bnb
dom_candidates = _impl.dom_candidates
tree_code = _impl.tree_code
tree_orbits = _impl.tree_orbits
