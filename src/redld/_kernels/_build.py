"""Build of the C kernel `_ckern.c` into a CPython extension module.

The module is named by the SHA-256 of its source and the interpreter's
extension suffix (`EXT_SUFFIX`, such as `.cpython-311-x86_64-linux-gnu.so`),
so an edited source never loads a stale build, each interpreter version gets
its own build, and each is compiled at most once per source.  This module
uses the standard library only, so `setup.py` can load it from its file
without importing redld.
"""

from __future__ import annotations

import hashlib
import os
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

SOURCE = Path(__file__).with_name("_ckern.c")
# the first suffix is the interpreter's own EXT_SUFFIX; read here because
# importlib is loaded at start-up and sysconfig is not
SUFFIX = EXTENSION_SUFFIXES[0]


def build(source: Path = SOURCE, directory: Path | None = None, cc: str | None = None) -> Path:
    """Return the extension module built from `source`, compiling it first
    when it is missing, with `cc` or else the C compiler Python was built
    with.  The module is `_ckern-<sha256 of the source><SUFFIX>` in
    `directory`, by default the source's own.

    The compiler writes a temporary file in the target directory, which is
    then renamed into place, so concurrent builds never expose a partly
    written module.  After a compile, the modules of other sources with the
    same suffix in that directory are deleted; the modules of other
    interpreters are left alone.  Any failure to build, a missing `Python.h`
    included, raises ImportError.
    """
    try:
        digest = hashlib.sha256(source.read_bytes()).hexdigest()
        target = Path(directory or source.parent) / f"_ckern-{digest}{SUFFIX}"
        if not target.is_file():
            _compile(source, target, cc)
            _remove_stale(target)
    except OSError as exc:
        raise ImportError(f"cannot build the C kernel: {exc}") from exc
    return target


def _remove_stale(target: Path) -> None:
    # a process that still has an old module loaded keeps its mapping
    for old in set(target.parent.glob(f"_ckern-*{SUFFIX}")) - {target}:
        try:
            old.unlink()
        except OSError:
            pass  # best effort: a stale module costs only disk space


def _compile(source: Path, target: Path, cc: str | None) -> None:
    # imported here: only a compile needs them, and every import of redld
    # would otherwise pay for them in time and memory
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    paths = sysconfig.get_paths()
    includes = list(dict.fromkeys((paths["include"], paths["platinclude"])))
    if not (Path(includes[0]) / "Python.h").is_file():
        raise ImportError(f"cannot build the C kernel: Python.h is missing from {includes[0]} "
                          f"(install the Python development headers)")
    compiler = shlex.split(cc or sysconfig.get_config_var("CC") or "cc")
    fd, tmp = tempfile.mkstemp(prefix=f".{target.name}-", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run([*compiler, "-O2", "-shared", "-fPIC",
                               *(f"-I{d}" for d in includes), "-o", tmp, str(source)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise ImportError(f"compiling the C kernel failed with exit status "
                              f"{proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
