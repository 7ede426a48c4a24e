"""Build script: compiles the C kernel at install time when it can.

The package works without it (the pure-Python backend is selected at import
time), and an installed package with its C source but no library builds the
library on first import instead, so a failed compile here only warns.  The
compile command lives in `src/redld/_kernels/_build.py`, loaded from its file
so that the build does not import redld.
"""

import importlib.util
from pathlib import Path

from setuptools import setup
from setuptools.command.build_py import build_py

_spec = importlib.util.spec_from_file_location(
    "_redld_kernel_build", Path(__file__).parent / "src" / "redld" / "_kernels" / "_build.py")
_build = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_build)


class BuildPyWithKernel(build_py):
    def run(self):
        super().run()
        kernels = Path(self.build_lib) / "redld" / "_kernels"
        try:
            _build.build(kernels / "_ckern.c", kernels)
        except ImportError as exc:
            print(f"warning: {exc}; the pure Python backend will be used")


setup(cmdclass={"build_py": BuildPyWithKernel})
