"""Build the optional compiled kernels; the package falls back to the pure
Python implementations when the extension is unavailable.

With Cython the extension is generated from ``_fast.pyx``; without it the
shipped ``_fast.c`` is compiled.  Either way the extension is optional, so a
failed compile still installs the pure package.
"""
import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("FDALG_NO_EXT", "") in ("", "0"):
    try:
        from Cython.Build import cythonize
    except ImportError:
        ext_modules = [Extension("fdalg._kernels._fast", ["src/fdalg/_kernels/_fast.c"],
                                 extra_compile_args=["-O3"], optional=True)]
    else:
        ext_modules = cythonize(
            [Extension("fdalg._kernels._fast",
                       ["src/fdalg/_kernels/_fast.pyx"],
                       extra_compile_args=["-O3"], optional=True)],
            compiler_directives={"language_level": "3"},
        )

setup(ext_modules=ext_modules)
