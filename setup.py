"""Build script: compiles the optional training kernel extension.

The package works without the extension (a NumPy fallback is selected at
import time), so the extension is marked optional and a failed compile
does not abort the install. The kernel is one hand-written C file that
needs only the Python headers.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("hdpmf._native", ["src/hdpmf/_native.c"], optional=True)])
