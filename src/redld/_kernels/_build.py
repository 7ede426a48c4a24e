"""Build of the C kernel `_ckern.c` into a shared library.

The library is named by the SHA-256 of its source, so an edited source never
loads a stale build, and is compiled at most once per source.  This module
uses the standard library only, so `setup.py` can load it from its file
without importing redld.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

SOURCE = Path(__file__).with_name("_ckern.c")


def build(source: Path = SOURCE, directory: Path | None = None, cc: str | None = None) -> Path:
    """Return the library built from `source`, compiling it first when it is
    missing, with `cc` or else the C compiler Python was built with.  The
    library is `_ckern-<sha256 of the source>.so` in `directory`, by default
    the source's own.

    The compiler writes a temporary file in the target directory, which is
    then renamed into place, so concurrent builds never expose a partly
    written library.  After a compile, the libraries of other sources in
    that directory are deleted.  Any failure to build raises ImportError.
    """
    try:
        digest = hashlib.sha256(source.read_bytes()).hexdigest()
        target = Path(directory or source.parent) / f"_ckern-{digest}.so"
        if not target.is_file():
            _compile(source, target, cc)
            _remove_stale(target)
    except OSError as exc:
        raise ImportError(f"cannot build the C kernel: {exc}") from exc
    return target


def _remove_stale(target: Path) -> None:
    # a process that still has an old library loaded keeps its mapping
    for old in target.parent.glob("_ckern-*.so"):
        if old != target:
            try:
                old.unlink()
            except OSError:
                pass  # best effort: a stale library costs only disk space


def _compile(source: Path, target: Path, cc: str | None) -> None:
    # imported here: only a compile needs them, and every import of redld
    # would otherwise pay for them in time and memory
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    compiler = shlex.split(cc or sysconfig.get_config_var("CC") or "cc")
    fd, tmp = tempfile.mkstemp(prefix=f".{target.stem}-", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run([*compiler, "-O2", "-shared", "-fPIC", "-o", tmp, str(source)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise ImportError(f"compiling the C kernel failed with exit status "
                              f"{proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
