"""Compile the committed Cython output `src/hdpmf/_native.c` into a build
directory of the benchmark's own.

The package's `setup.py` builds the extension only when Cython is installed.
The benchmark instead compiles the committed C file with the interpreter's own
`sysconfig` compiler and flags, and never writes into `src/hdpmf/`: an
extension left there would silently switch the test suite to the native
backend. The result is cached under a key of the source hash and the compile
command, so only the first run in a checkout pays the build.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sysconfig
from pathlib import Path

SOURCE = Path("src") / "hdpmf" / "_native.c"


def source_sha256(root: Path) -> str:
    return hashlib.sha256((root / SOURCE).read_bytes()).hexdigest()


def _commands(src: Path, obj: Path, out: Path) -> list[list[str]]:
    import numpy

    cfg = sysconfig.get_config_var
    compile_cmd = (
        shlex.split(cfg("CC")) + shlex.split(cfg("CFLAGS")) + shlex.split(cfg("CCSHARED"))
        + ["-I" + sysconfig.get_paths()["include"], "-I" + numpy.get_include(),
           "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION", "-c", str(src), "-o", str(obj)]
    )
    link_cmd = shlex.split(cfg("LDSHARED")) + [str(obj), "-o", str(out)]
    return [compile_cmd, link_cmd]


def build(root: Path, build_dir: Path) -> Path:
    """Return the path of the compiled `hdpmf/_native<EXT_SUFFIX>`, compiling
    it first if no build with the same source and flags exists."""
    src = root / SOURCE
    if not src.is_file():
        raise FileNotFoundError(f"{SOURCE} not found under {root}")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    probe = _commands(src, Path("o"), Path("so"))
    key = hashlib.sha256(src.read_bytes() + repr(probe).encode()).hexdigest()[:16]
    out_dir = build_dir / f"native-{key}"
    target = out_dir / "hdpmf" / f"_native{suffix}"
    if target.is_file():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"_native.{os.getpid()}.tmp{suffix}")
    obj = target.with_name(f"_native.{os.getpid()}.o")
    try:
        for cmd in _commands(src, obj, tmp):
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                raise RuntimeError(f"native build failed: {shlex.join(cmd)}\n{done.stderr[-4000:]}")
        os.replace(tmp, target)
    finally:
        for leftover in (tmp, obj):
            leftover.unlink(missing_ok=True)
    return target
