"""Kernel backend selection.

A backend provides the training epoch (`run_epoch`), the keyed Philox
uniforms behind every seeded draw (`keyed_uniform`) and the Box-Muller
transform that `rng.keyed_normal` turns them into the noise plan's normals
with (`box_muller`); all come from the same module. The compiled extension
is preferred when importable; the NumPy fallback is always available. Set
HDPMF_BACKEND=python (or =native) to force a choice — forcing `native` is
refused if the extension did not build, and any other value is refused too.
An extension that lacks one of the entry points or the `ISA` that every
current build exports was built from an older `_native.c`, and is not taken.

The backend is chosen on first use, when one of the three names or
`backend_name` is first looked up, not while `import hdpmf` runs, so a
refused HDPMF_BACKEND raises ConfigError where the CLI reports it.
"""

from __future__ import annotations

import importlib
import os
from types import ModuleType

from . import _fallback
from .exceptions import ConfigError

_ENTRY_POINTS = ("run_epoch", "keyed_uniform", "box_muller")
_impl: ModuleType | None = None


def _select() -> ModuleType:
    raw = os.environ.get("HDPMF_BACKEND", "")
    requested = raw.strip().lower()
    if requested not in ("", "python", "native"):
        raise ConfigError(
            "HDPMF_BACKEND",
            f"the environment variable is {raw!r}, not a backend: "
            "leave it unset, or set it to 'python' or 'native'",
        )
    if requested == "python":
        return _fallback
    try:
        # import_module, unlike `from . import _native`, names the missing
        # module in its error rather than blaming a circular import
        impl = importlib.import_module("._native", __package__)
        if not all(hasattr(impl, name) for name in (*_ENTRY_POINTS, "ISA")):
            raise ImportError("it was built from an older _native.c; rebuild it")
    except ImportError as exc:
        if requested == "native":
            raise ConfigError(
                "HDPMF_BACKEND", f"native, but the compiled extension is not available: {exc}"
            ) from None
        return _fallback
    return impl


def _backend() -> ModuleType:
    """The selected backend, chosen on the first call; its entry points are
    then bound as this module's attributes."""
    global _impl
    if _impl is None:
        impl = _select()
        globals().update({name: getattr(impl, name) for name in _ENTRY_POINTS})
        _impl = impl
    return _impl


def __getattr__(name: str):
    if name in _ENTRY_POINTS:
        _backend()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def backend_name() -> str:
    """Which kernel implementation is active, 'native' or 'python': it runs
    the training epochs, draws the keyed uniforms and transforms them into
    normals."""
    return _backend().NAME


def backend_path() -> str:
    """The active backend with the code path it runs: 'python', or
    'native/avx2' or 'native/baseline', the lane width that the compiled
    kernels chose when they loaded. Either path gives the same bits."""
    impl = _backend()
    return f"{impl.NAME}/{impl.ISA}" if hasattr(impl, "ISA") else impl.NAME
