"""Spans around calls into the package's layers, recorded from outside.

The package has no tracing of its own, so the traced benchmark run replaces
the public functions and methods of each layer with timing wrappers for the
duration of one run and puts the originals back afterwards. Nothing under
`src/` is edited. A function is replaced in every `hdpmf` module that holds
a reference to it, so `from .rng import stream` bindings are covered too.

Each wrapper adds its duration to its layer's total and self time (duration
minus the time of the traced calls it made) and to its parent's child time.
Coarse layers also keep their individual spans (name, start, end, parent) so
a run can be laid out as a tree; leaf layers called hundreds of thousands of
times keep only aggregates.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

# Kernel implementation modules are skipped when rebinding, so a direct
# call such as `_fallback.run_epoch` in the parity check stays untraced.
_SKIP_MODULES = ("hdpmf._native", "hdpmf._fallback")

Observer = Callable[[tuple, dict, Any], None]


class Tracer:
    def __init__(self, keep_spans: frozenset[str] = frozenset(), keep_durations: frozenset[str] = frozenset()):
        self.keep_spans = keep_spans
        self.keep_durations = keep_durations
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.gauges: dict[str, float] = {}
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # per active call: [child seconds, span id or -1]
        self._undo: list[tuple[Any, str, Any]] = []

    # -- wrappers ---------------------------------------------------------
    def _timed(self, name: str, fn: Callable, observe: Observer | None) -> Callable:
        stack = self._stack
        perf = time.perf_counter
        keep_span = name in self.keep_spans
        keep_duration = name in self.keep_durations

        def traced(*args, **kwargs):
            span_id = -1
            if keep_span:
                span_id = len(self.spans)
                self.spans.append((span_id, self._parent_span(), name, 0.0, 0.0))
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                took = end - start
                self.total_s[name] += took
                self.self_s[name] += took - frame[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += took
                if keep_duration:
                    self.durations[name].append(took)
                if keep_span:
                    self.spans[span_id] = (span_id, self.spans[span_id][1], name, start, end)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _parent_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[1] >= 0:
                return frame[1]
        return -1

    # -- installation -----------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, name: str, original: Callable, observe: Observer | None = None) -> None:
        """Trace `original` under `name` wherever an hdpmf module binds it."""
        wrapper = self._timed(name, original, observe)
        found = False
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "hdpmf" or mod_name.startswith("hdpmf.")):
                continue
            if mod_name in _SKIP_MODULES:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"no hdpmf module binds {original!r}")

    def method(self, name: str, cls: type, attr: str, observe: Observer | None = None, timed: bool = True) -> None:
        """Trace (or only count) a method; classmethods keep their kind."""
        raw = cls.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapper = self._timed(name, fn, observe) if timed else self._counted(name, fn)
        self._set(cls, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
