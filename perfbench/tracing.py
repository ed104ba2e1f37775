"""Spans and probes installed from outside the library.

Both work by replacing a module attribute that library code looks up at
call time (for example ``lassodist.samplers.sweep_det_ratio``), so nothing
under ``src/`` changes.  A ``Probe`` only hands each call's arguments and
result to a callback; the untraced run uses probes to capture what the
correctness checks need.  ``Tracer`` adds a span per call: name, start,
end and the span that was open when the call began.
"""
from __future__ import annotations

import functools
import importlib
import time

_clock = time.perf_counter


class Patches:
    """Module-attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module_name: str, attr: str, make_wrapper) -> bool:
        """Wrap ``module.attr`` if it exists; report whether it did."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return False
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))
        return True

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def probe(patches: Patches, target: str, on_result) -> bool:
    """Call ``on_result(args, kwargs, result)`` after every call of ``target``.

    ``target`` is ``"package.module:attr"``.
    """
    module_name, attr = target.split(":")

    def make(original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            on_result(args, kwargs, result)
            return result

        return wrapper

    return patches.replace(module_name, attr, make)


class Tracer:
    """In-memory span recorder with per-span self time.

    Spans are stored as parallel lists and never written out during the
    run.  ``parent`` is the index of the enclosing span or -1.  The program
    is single-threaded, so spans nest strictly and a stack of open spans
    gives each new span its parent.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[int] = []
        self.op_index = -1

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_index)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = _clock()
        self._stack.pop()

    def span(self, patches: Patches, target: str, name: str, on_result=None) -> bool:
        """Record a span named ``name`` around every call of ``target``."""
        module_name, attr = target.split(":")

        def make(original):
            def wrapper(*args, **kwargs):
                idx = self.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(idx)
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result

            return wrapper

        return patches.replace(module_name, attr, make)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out
