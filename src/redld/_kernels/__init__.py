"""Kernel backend selection: compiled extension when available, else pure Python.

Set REDLD_BACKEND=py or REDLD_BACKEND=c to force a backend; forcing "c" raises
if the extension was not built.
"""

import os

from . import pybits as _py

_choice = os.environ.get("REDLD_BACKEND", "").strip().lower()
if _choice not in ("", "c", "py"):
    raise RuntimeError(f"REDLD_BACKEND must be 'c' or 'py', got {_choice!r}")

if _choice == "py":
    _impl = _py
else:
    try:
        from . import _ckern as _impl  # type: ignore[attr-defined]
    except ImportError:
        if _choice == "c":
            raise RuntimeError("REDLD_BACKEND=c but the compiled kernel is not built")
        _impl = _py

BACKEND = _impl.BACKEND
MODE_LD = 0
MODE_REDLD = 1
MODE_REDLD_DEF = 2

make_ctx = _impl.make_ctx
is_ld = _impl.is_ld
is_redld = _impl.is_redld
is_redld_def = _impl.is_redld_def
brute_force_min = _impl.brute_force_min
pairs_ok = _impl.pairs_ok
pairs_scan = _impl.pairs_scan
bnb = _impl.bnb
dom_candidates = _impl.dom_candidates
