"""Kernel backend selection.

A backend provides the training epoch (`run_epoch`) and the noise plan's
keyed Philox words (`keyed_uniform`); both come from the same module. The
compiled extension is preferred when importable; the NumPy fallback is
always available. Set HDPMF_BACKEND=python (or =native) to force a choice —
forcing `native` raises if the extension did not build.
"""

from __future__ import annotations

import os

from . import _fallback

_requested = os.environ.get("HDPMF_BACKEND", "").strip().lower()

if _requested == "python":
    _impl = _fallback
else:
    try:
        from . import _native as _impl  # type: ignore[no-redef]

        if not hasattr(_impl, "keyed_uniform"):
            raise ImportError("it was built from an older _native.c; rebuild it")
    except ImportError as exc:
        if _requested == "native":
            raise ImportError(
                f"HDPMF_BACKEND=native but the compiled extension is not available: {exc}"
            ) from None
        _impl = _fallback

run_epoch = _impl.run_epoch
keyed_uniform = _impl.keyed_uniform


def backend_name() -> str:
    """Which kernel implementation is active, 'native' or 'python': it runs
    the training epochs and draws the noise plan's Philox words."""
    return _impl.NAME
