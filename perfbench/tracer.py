"""Outside-in layer tracing: wrap the program's public functions.

Nothing in ``src/`` carries a timer for this benchmark. Instead a
:class:`Patcher` swaps wrappers onto public functions and methods for
the duration of a traced run and puts the originals back afterwards,
and a :class:`Tracer` turns the wrapped calls into spans:

* every wrapped call opened while a root span (a timed call, or one
  set-up) is open becomes a child of the innermost open span, so each
  span's *self time* is its duration minus the time its children
  cover, and the root's self time is the residual no layer explains;
* a span only adds to its name's count, total and self time, so a
  per-packet boundary costs two clock reads and nothing grows with
  the length of a run;
* outside a root span a wrapper calls straight through, so the
  benchmark's own bookkeeping between calls is never attributed to
  the program.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Optional

#: Attribute set on every wrapper, so a scan can prove none survived.
MARKER = "__perfbench_wrapped__"


class LayerTotals:
    """Accumulated count, total and self time for one span name."""

    __slots__ = ("count", "total_s", "self_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span stack with per-name self-time accounting."""

    def __init__(self) -> None:
        self.totals: dict[str, LayerTotals] = {}
        #: Open spans: ``[name, start_s, child_s]``.
        self._stack: list[list] = []

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def _totals(self, name: str) -> LayerTotals:
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = LayerTotals()
        return totals

    def begin_root(self, name: str) -> None:
        if self._stack:
            raise RuntimeError(f"root span {name!r} opened inside a span")
        self.enter(name)

    def end_root(self) -> float:
        """Close the root span; returns its duration."""
        if len(self._stack) != 1:
            raise RuntimeError("root span closed with children open")
        return self.exit()

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> float:
        name, start, child_s = self._stack.pop()
        duration = perf_counter() - start
        totals = self._totals(name)
        totals.count += 1
        totals.total_s += duration
        totals.self_s += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a pure counter (no time), inside a root only."""
        if self._stack:
            self._totals(name).count += n


def traced(
    tracer: Tracer,
    name: str,
    fn: Callable,
    after: Optional[Callable] = None,
) -> Callable:
    """``fn`` wrapped in a span; ``after(args, result)`` runs inside it."""

    def wrapper(*args, **kwargs):
        if not tracer._stack:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        finally:
            tracer.exit()

    setattr(wrapper, MARKER, name)
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


class Patcher:
    """Installs wrappers on module and class attributes; undoes them."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, wrap: Callable) -> None:
        """Wrap a plain method or a classmethod defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(wrap(raw.__func__)))
        else:
            self._set(cls, attr, wrap(raw))

    def function(self, module, attr: str, wrap: Callable) -> None:
        """Wrap a module-level function at every ``repro`` binding.

        Callers that did ``from module import fn`` hold their own
        reference, so the wrapper replaces each module attribute that
        is the original object.
        """
        original = getattr(module, attr)
        wrapped = wrap(original)
        for name, owner in sorted(sys.modules.items()):
            if owner is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, key, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def surviving_wrappers() -> list[str]:
    """``module.attr`` / ``module.Class.attr`` still holding a wrapper."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (
            name == "repro" or name.startswith("repro.")
        ):
            continue
        for key, value in list(vars(module).items()):
            if hasattr(value, MARKER):
                found.append(f"{name}.{key}")
            elif isinstance(value, type) and value.__module__ == name:
                for attr, raw in list(vars(value).items()):
                    inner = getattr(raw, "__func__", raw)
                    if hasattr(inner, MARKER):
                        found.append(f"{name}.{key}.{attr}")
    return found
