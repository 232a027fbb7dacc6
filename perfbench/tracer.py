"""Outside-in span tracer: wraps functions in place and restores them.

The benchmark never edits the program.  To see where time goes it
replaces chosen functions -- class methods and module-level functions --
with thin wrappers that time each call, and puts the originals back
afterwards.  Installed before a system is assembled, a class-level
wrapper is also what every bound method captured during assembly
(callbacks, predicates) points at, so one install covers the whole run.

Each span name accumulates ``calls``, ``total`` seconds and ``self``
seconds, where self time is the call's duration minus the time covered
by wrapped calls made inside it.  Spans must nest, so only synchronous
functions are wrapped: a coroutine suspended at an ``await`` would let
unrelated calls interleave with it.
"""

from __future__ import annotations

import inspect
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SpanStats", "Tracer"]


class SpanStats:
    """Aggregate of every call recorded under one span name."""

    __slots__ = ("layer", "calls", "total", "self_time", "intervals")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        #: (start, end) of every call, for spans installed with ``keep``
        self.intervals: List[Tuple[float, float]] = []

    def as_dict(self) -> Dict[str, Any]:
        return {
            "layer": self.layer,
            "calls": self.calls,
            "s": self.total,
            "self_s": self.self_time,
        }


class Tracer:
    """Span aggregation plus the install/restore bookkeeping.

    ``clock`` is injectable so tests can drive durations exactly.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.spans: Dict[str, SpanStats] = {}
        #: child-time accumulators of the open spans; index 0 is the root
        self._stack: List[float] = [0.0]
        #: (owner, attribute, original raw value, owner defined it itself)
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # Spans ---------------------------------------------------------------

    def stats(self, name: str, layer: str) -> SpanStats:
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = SpanStats(layer)
        return rec

    def traced(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        *,
        name_of: Optional[Callable[..., str]] = None,
        on_result: Optional[Callable[..., None]] = None,
        keep: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span.

        ``name_of(*args, **kwargs)`` picks the span name per call (the
        static ``name`` otherwise); ``on_result(result, *args, **kwargs)``
        sees each successful call's return value; ``keep`` records every
        call's interval, not just the aggregate.
        """
        stack = self._stack
        clock = self.clock
        static = self.stats(name, layer) if name_of is None else None
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                child = stack.pop()
                stack[-1] += dur
                rec = (
                    tracer.stats(name_of(*args, **kwargs), layer)
                    if name_of is not None
                    else static
                )
                rec.calls += 1
                rec.total += dur
                rec.self_time += dur - child
                if keep:
                    rec.intervals.append((t0, t1))
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # Installing --------------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> Any:
        """Set ``owner.attr = replacement``; :meth:`restore` undoes it.

        Returns the original value as looked up on ``owner``.
        """
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else inspect.getattr_static(owner, attr)
        self._patches.append((owner, attr, raw, own))
        setattr(owner, attr, replacement)
        return raw

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        **hooks: Any,
    ) -> None:
        """Replace the plain function ``owner.attr`` with a traced one."""
        raw = inspect.getattr_static(owner, attr)
        if not inspect.isfunction(raw) or inspect.iscoroutinefunction(raw):
            raise TypeError(f"{owner!r}.{attr} is not a plain synchronous function")
        self.patch(owner, attr, self.traced(raw, name, layer, **hooks))

    def restore(self) -> None:
        """Undo every patch, newest first (idempotent)."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # Reading ---------------------------------------------------------------

    def layer_self(self) -> Dict[str, float]:
        """Self seconds summed per layer."""
        out: Dict[str, float] = {}
        for rec in self.spans.values():
            out[rec.layer] = out.get(rec.layer, 0.0) + rec.self_time
        return out

    def calls(self, name: str) -> int:
        rec = self.spans.get(name)
        return rec.calls if rec is not None else 0

    def seconds(self, name: str) -> float:
        rec = self.spans.get(name)
        return rec.total if rec is not None else 0.0

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        return {name: rec.as_dict() for name, rec in sorted(self.spans.items())}
