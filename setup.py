"""Build script: compiles the optional training kernel extension.

The package works without the extension (a NumPy fallback is selected at
import time), so the extension is marked optional and a failed compile
does not abort the install. With Cython installed the kernel is compiled
from `_native.pyx`; without it, from the tracked generated `_native.c`.
"""

from setuptools import Extension, setup


def _native(source: str) -> Extension:
    import numpy

    return Extension(
        "hdpmf._native",
        [source],
        include_dirs=[numpy.get_include()],
        define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
        optional=True,
    )


try:
    from Cython.Build import cythonize
except ImportError:
    extensions = [_native("src/hdpmf/_native.c")]
else:
    extensions = cythonize([_native("src/hdpmf/_native.pyx")], language_level=3)

setup(ext_modules=extensions)
