"""Build script for the optional compiled kernel.

The extension is compiled from the shipped C source src/pathconn/_kernel.c,
so building it needs only a C compiler.  That file is generated from
src/pathconn/_kernel.pyx; after editing the .pyx, regenerate it with
Cython 3 and update the hash pinned in tests/test_kernel_source.py:

    cython -3 -X boundscheck=False -X wraparound=False -X initializedcheck=False -X cdivision=True src/pathconn/_kernel.pyx

The package works without the extension: pathconn._backend falls back to the
pure-Python kernel if pathconn._kernel is missing; set PATHCONN_BACKEND=pure
to use that kernel even where the extension is built.
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import (CCompilerError, CompileError, FileError, LinkError,
                               PlatformError)

# the errors of a missing or broken C toolchain; any other build error, such
# as a missing source file or an unwritable target, still fails the build
TOOLCHAIN_ERRORS = (CCompilerError, CompileError, LinkError, PlatformError)


class OptionalBuildExt(build_ext):
    """Build the extension if a C toolchain works, otherwise install
    pure-Python only."""

    def run(self):
        try:
            super().run()
        except TOOLCHAIN_ERRORS as exc:
            print(f"warning: skipping compiled kernel ({exc}); "
                  "pure-Python backend will be used")

    def build_extension(self, ext):
        missing = [name for name in ext.sources if not os.path.isfile(name)]
        if missing:
            raise FileError(f"{ext.name}: missing sources {missing}")
        try:
            super().build_extension(ext)
        except TOOLCHAIN_ERRORS as exc:
            print(f"warning: failed to compile {ext.name} ({exc}); "
                  "pure-Python backend will be used")
            ext.optional = True  # nothing was built, so --inplace copies nothing


setup(ext_modules=[Extension("pathconn._kernel", ["src/pathconn/_kernel.c"])],
      cmdclass={"build_ext": OptionalBuildExt})
