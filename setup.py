"""Build the optional compiled kernel; the package falls back to the pure
Python implementations when the extension is unavailable.

``_fast.c`` is hand-written against the CPython C API and needs no code
generator.  The extension is optional, so a failed compile still installs the
pure package.  To build it in a source checkout:

    python3 setup.py build_ext --inplace
"""
from setuptools import Extension, setup

setup(ext_modules=[Extension("fdalg._kernels._fast", ["src/fdalg/_kernels/_fast.c"],
                             extra_compile_args=["-O3"], optional=True)])
