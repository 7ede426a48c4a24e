"""Compiled kernel backend: the C kernel `_ckern.c`, called through ctypes.

Same API, return types and decision order as pybits.py, so verdicts, optima,
witnesses and branch-and-bound node counts are identical.  The shared library
is built next to the source on first import (see `_build.py`); when it
cannot be built or loaded, importing this module raises ImportError and
backend selection falls back to the pure-Python kernel.

Vertex sets cross into C as little-endian byte strings of 8 * ceil(n / 64)
bytes.  ctypes releases the GIL during each call, and the C side allocates
its scratch per call, so one context can serve several threads at once.
"""

from __future__ import annotations

import ctypes
import time
from array import array

from . import _build
from .pybits import _check_walk

BACKEND = "c"

MODE_LD = 0
MODE_REDLD = 1
MODE_REDLD_DEF = 2

_NOMEM, _RANGE = -3, -4


def _load() -> ctypes.CDLL:
    path = _build.build()
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise ImportError(f"cannot load the C kernel {path}: {exc}") from exc
    ptr, i32, i64 = ctypes.c_void_p, ctypes.c_int, ctypes.c_longlong
    for name, restype, argtypes in (
        ("rlk_ctx_size", ctypes.c_size_t, [i32]),
        ("rlk_ctx_init", i32, [ptr, i32, ptr, ptr]),
        ("rlk_check", i32, [ptr, i32, ptr]),
        ("rlk_brute_force_min", i32, [ptr, i32, ptr]),
        ("rlk_pairs_scan", ctypes.c_long, [ptr, i32, ptr, ptr, ctypes.c_long, ptr]),
        ("rlk_dom_candidates", i32, [i32, i32, ptr, ptr, ptr, i32, i64,
                                     ctypes.POINTER(ptr), ctypes.POINTER(ctypes.c_long),
                                     ctypes.POINTER(i32)]),
        ("rlk_free", None, [ptr]),
        ("rlk_bnb", i32, [ptr, i32, ptr, ptr, i32, i32, i64, ctypes.c_double,
                          ctypes.POINTER(i32), ptr, ctypes.POINTER(i64)]),
    ):
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


_lib = _load()


def _ok(code: int) -> int:
    if code == _NOMEM:
        raise MemoryError("C kernel out of memory")
    if code == _RANGE:
        raise IndexError("vertex out of range")
    return code


class Ctx:
    """A graph's neighbourhood bitsets, in a buffer the C kernel reads."""

    __slots__ = ("n", "nbytes", "buf")

    def __init__(self, adj):
        n = len(adj)
        if n < 1:
            raise ValueError("the kernel needs at least one vertex")
        deg = array("i", map(len, adj))
        nbrs = array("i", [w for ws in adj for w in ws])
        self.buf = ctypes.create_string_buffer(_lib.rlk_ctx_size(n))
        _ok(_lib.rlk_ctx_init(self.buf, n, deg.tobytes(), nbrs.tobytes()))
        self.n = n
        self.nbytes = 8 * ((n + 63) >> 6)


def make_ctx(adj) -> Ctx:
    return Ctx(adj)


def _bytes(ctx: Ctx, mask: int) -> bytes:
    return mask.to_bytes(ctx.nbytes, "little")


def is_ld(ctx: Ctx, s: int) -> bool:
    return _ok(_lib.rlk_check(ctx.buf, MODE_LD, _bytes(ctx, s))) == 1


def is_redld(ctx: Ctx, s: int) -> bool:
    return _ok(_lib.rlk_check(ctx.buf, MODE_REDLD, _bytes(ctx, s))) == 1


def is_redld_def(ctx: Ctx, s: int) -> bool:
    return _ok(_lib.rlk_check(ctx.buf, MODE_REDLD_DEF, _bytes(ctx, s))) == 1


def brute_force_min(ctx: Ctx, mode: int) -> tuple[int, int]:
    """Minimum valid set by cardinality then lexicographic order.

    Returns (size, mask), or (-1, 0) when no subset is valid.
    """
    if mode not in (MODE_LD, MODE_REDLD, MODE_REDLD_DEF):
        raise ValueError(f"unknown mode {mode!r}")
    out = ctypes.create_string_buffer(ctx.nbytes)
    size = _ok(_lib.rlk_brute_force_min(ctx.buf, mode, out))
    return (size, int.from_bytes(out.raw, "little")) if size >= 0 else (-1, 0)


def _scan(ctx: Ctx, us, vs, masks: bytes) -> int:
    if len(us) != len(vs):
        raise ValueError("us and vs differ in length")
    return _ok(_lib.rlk_pairs_scan(ctx.buf, len(us), array("i", us).tobytes(),
                                   array("i", vs).tobytes(), len(masks) // ctx.nbytes, masks))


def pairs_ok(ctx: Ctx, s: int, us: list[int], vs: list[int]) -> bool:
    """2-domination of every vertex plus the pair conditions on (us[i], vs[i])."""
    return _scan(ctx, us, vs, _bytes(ctx, s)) == 0


def pairs_scan(ctx: Ctx, us: list[int], vs: list[int], candidates) -> int:
    """Index of the first candidate mask passing pairs_ok, or -1."""
    return _scan(ctx, us, vs, b"".join(_bytes(ctx, m) for m in candidates))


def dom_candidates(n_cells: int, touch, count: int,
                   node_budget: int) -> tuple[list[int], bool]:
    """Same contract as pybits.dom_candidates."""
    _check_walk(n_cells, touch, count)
    off, cons, mult = array("i", [0]), array("i"), array("i")
    for items in touch:
        for v, m in items:
            cons.append(v)
            mult.append(m)
        off.append(len(cons))
    out, n_out, exhausted = ctypes.c_void_p(), ctypes.c_long(), ctypes.c_int()
    _ok(_lib.rlk_dom_candidates(n_cells, max(cons, default=-1) + 1, off.tobytes(),
                                cons.tobytes(), mult.tobytes(), count, node_budget,
                                ctypes.byref(out), ctypes.byref(n_out),
                                ctypes.byref(exhausted)))
    size = 8 * ((n_cells + 63) >> 6)
    try:
        raw = ctypes.string_at(out, n_out.value * size) if n_out.value else b""
    finally:
        _lib.rlk_free(out)
    masks = [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
    return masks, exhausted.value == 1


def bnb(ctx: Ctx, mode: int, forced_in: int, forced_out: int, cap: int,
        stop_at: int, node_budget: int, deadline: float) -> tuple[int, int, int, int]:
    """Same contract as pybits.bnb."""
    value, nodes = ctypes.c_int(), ctypes.c_longlong()
    witness = ctypes.create_string_buffer(ctx.nbytes)
    # C keeps its own clock: pass the time left rather than a monotonic-clock
    # deadline, and -1 for none.  A deadline already past still stops the
    # search at its first time check, as in pybits.
    timeout = max(deadline - time.monotonic(), 0.0) if deadline else -1.0
    status = _ok(_lib.rlk_bnb(ctx.buf, mode, _bytes(ctx, forced_in), _bytes(ctx, forced_out),
                              cap, stop_at, node_budget, timeout, ctypes.byref(value),
                              witness, ctypes.byref(nodes)))
    return status, value.value, int.from_bytes(witness.raw, "little"), nodes.value
