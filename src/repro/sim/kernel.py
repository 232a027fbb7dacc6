"""The discrete-event simulation kernel.

:class:`Simulator` owns the clock, the event agenda, the random streams and
an optional trace sink.  Components interact with it through a small
surface:

* ``sim.now`` — current simulated time (seconds),
* ``sim.at(t, fn, *args)`` / ``sim.after(dt, fn, *args)`` — schedule,
* ``sim.periodic(interval, fn)`` — self-rescheduling timer,
* ``sim.run(until=...)`` — drive the agenda.

The kernel is strictly sequential and deterministic: two runs with the same
seed and the same component construction order produce bit-identical event
sequences.  That property underpins the common-random-numbers comparison
methodology used by the figure experiments and is asserted by property
tests.

Every event is one callback call: :meth:`Simulator.run` pops the agenda in
``(time, priority, seq)`` order and calls each event's function, with no
second dispatch path.  A message send is one event per arrival instant
(the transport delivers a flood's whole same-instant receiver group in
one callback), so ``events_executed`` and the ``max_events`` budget
count arrival groups, not receivers, and a :meth:`Simulator.stop` called
from a message handler takes effect after that handler's group.

:meth:`Simulator.run` knows nothing about profiling:
:class:`repro.obs.profiler.KernelProfiler` profiles it from outside.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from .events import _INF, Event, EventQueue, Priority
from .rng import RandomStreams
from .trace import Tracer

__all__ = [
    "Simulator",
    "PeriodicTimer",
    "RoundDriver",
    "RoundMembership",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, re-running, …)."""


class PeriodicTimer:
    """A self-rescheduling timer created by :meth:`Simulator.periodic`.

    The callback runs every ``interval`` seconds until :meth:`stop` is
    called or the simulation horizon is reached.  The interval may be
    changed between firings via :attr:`interval` (used by adaptive
    protocols).
    """

    __slots__ = (
        "sim", "fn", "interval", "_event", "_stopped", "jitter_rng", "jitter",
        "priority",
    )

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        fn: Callable[[], Any],
        *,
        phase: float = 0.0,
        jitter: float = 0.0,
        jitter_stream: Optional[str] = None,
        priority: int = Priority.DEFAULT,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.fn = fn
        self.interval = float(interval)
        self.jitter = float(jitter)
        self.jitter_rng = sim.streams.stream(jitter_stream) if jitter_stream else None
        self.priority = priority
        self._stopped = False
        self._event: Optional[Event] = sim.after(
            phase + self._next_gap(), self._fire, priority=priority
        )

    def _next_gap(self) -> float:
        gap = self.interval
        if self.jitter > 0.0 and self.jitter_rng is not None:
            gap += float(self.jitter_rng.uniform(-self.jitter, self.jitter))
            gap = max(gap, 1e-9)
        return gap

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fn()
        if not self._stopped:
            self._event = self.sim.after(
                self._next_gap(), self._fire, priority=self.priority
            )

    def stop(self) -> None:
        """Cancel the timer; the callback never fires again."""
        self._stopped = True
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    @property
    def stopped(self) -> bool:
        return self._stopped


class RoundMembership:
    """Handle returned by :meth:`RoundDriver.join` / ``shared_periodic``.

    API-compatible with :class:`PeriodicTimer` for the lifecycle calls
    protocols actually make (``stop()``, ``stopped``); the interval is
    read-only — a member that needs to adapt its period must leave the
    shared round and run a private timer.
    """

    __slots__ = ("driver", "_cell", "_stopped")

    def __init__(self, driver: "RoundDriver", cell: List[Optional[Callable]]) -> None:
        self.driver = driver
        self._cell = cell
        self._stopped = False

    @property
    def interval(self) -> float:
        return self.driver.interval

    def stop(self) -> None:
        """Leave the round; the callback never fires again."""
        if not self._stopped:
            self._stopped = True
            self._cell[0] = None
            self.driver._note_leave()

    @property
    def stopped(self) -> bool:
        return self._stopped


class RoundDriver:
    """One kernel event per round shared by N same-interval members.

    Per-node periodic timers are the dominant heap traffic of
    synchronized protocol rounds at scale: 10k nodes on a 1 s period
    push 10k heap entries per simulated second just to wake up.  A
    round driver collapses that to a single self-rescheduling event;
    members fire within the round in *join order* (callers join in node
    order, making the canonical order explicit), which is exactly the
    seq order N individual timers created in the same order would fire
    in — so for phase-aligned timers the executed sequence is unchanged.

    Members joining mid-run fire from the next shared round boundary
    (the driver owns the round clock — that is the aggregation
    contract).  Leaving is O(1) lazy; the member table compacts when
    more than half the slots are dead.  A driver whose last member
    leaves cancels its event and re-arms on the next join.
    """

    __slots__ = ("sim", "interval", "priority", "_members", "_live", "_event")

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        *,
        phase: float = 0.0,
        priority: int = Priority.DEFAULT,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval = float(interval)
        self.priority = priority
        self._members: List[List[Optional[Callable[[], Any]]]] = []
        self._live = 0
        self._event: Optional[Event] = sim.after(
            phase + self.interval, self._fire, priority=priority
        )

    @property
    def members(self) -> int:
        """Live member count (diagnostics)."""
        return self._live

    def join(self, fn: Callable[[], Any]) -> RoundMembership:
        """Add ``fn`` to the round; it fires after every later boundary."""
        if self._live == 0 and self._event is None:
            # dormant driver: re-arm from now, like a fresh timer
            self._event = self.sim.after(
                self.interval, self._fire, priority=self.priority
            )
        # Each member lives in its own one-slot cell shared with the
        # membership handle, so table compaction never invalidates a
        # handle — stop() blanks the cell wherever it currently sits.
        cell: List[Optional[Callable[[], Any]]] = [fn]
        self._members.append(cell)
        self._live += 1
        return RoundMembership(self, cell)

    def _note_leave(self) -> None:
        self._live -= 1
        if self._live == 0:
            if self._event is not None:
                self.sim.cancel(self._event)
                self._event = None
            self._members.clear()
        elif len(self._members) > 8 and self._live * 2 < len(self._members):
            # Join order is the canonical fire order; filtering preserves it.
            self._members = [c for c in self._members if c[0] is not None]

    def _fire(self) -> None:
        if self._live == 0:
            self._event = None
            return
        for cell in self._members:
            fn = cell[0]
            if fn is not None:
                fn()
        if self._live > 0:
            self._event = self.sim.after(
                self.interval, self._fire, priority=self.priority
            )
        else:
            self._event = None


class Simulator:
    """Sequential discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for :class:`~repro.sim.rng.RandomStreams`.
    trace:
        Optional :class:`~repro.sim.trace.Tracer`; when omitted a disabled
        tracer is installed so call sites never need ``if trace`` guards.
    """

    def __init__(self, seed: int = 0, trace: Optional[Tracer] = None) -> None:
        self.queue = EventQueue()
        self.streams = RandomStreams(seed)
        self.trace = trace if trace is not None else Tracer(enabled=False)
        self._now = 0.0
        self._running = False
        self._stop_requested = False
        self._events_executed = 0
        self._finalizers: List[Callable[[], None]] = []
        #: (interval, phase, priority) -> shared round driver
        self._round_drivers: Dict[Tuple[float, float, int], RoundDriver] = {}

    # Clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events fired so far (diagnostic).

        A message send counts once per arrival instant, however many
        receivers that instant's event delivers to.
        """
        return self._events_executed

    # Scheduling --------------------------------------------------------

    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.DEFAULT,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6g}, clock already at {self._now:.6g}"
            )
        return self._push(time, fn, args, priority)

    def after(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.DEFAULT,
    ) -> Event:
        """Schedule ``fn(*args)`` after a non-negative ``delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self._push(self._now + delay, fn, args, priority)

    def _push(
        self, time: float, fn: Callable[..., Any], args: tuple, priority: int
    ) -> Event:
        """Scheduling fast path shared by :meth:`at` and :meth:`after`.

        Equivalent to :meth:`EventQueue.schedule` — same validation, same
        seq allocation, same heap entry — minus one call frame and the
        ``*args`` repacking.  Kept in lockstep with the queue so handles
        from either path are interchangeable.
        """
        if time != time or time == _INF:  # NaN / inf guard
            raise ValueError(f"non-finite event time: {time!r}")
        queue = self.queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        ev = Event(time, priority, seq, fn, args)
        heappush(queue._heap, (time, priority, seq, ev))
        queue._live += 1
        return ev

    def periodic(
        self,
        interval: float,
        fn: Callable[[], Any],
        *,
        phase: float = 0.0,
        jitter: float = 0.0,
        jitter_stream: Optional[str] = None,
        priority: int = Priority.DEFAULT,
    ) -> PeriodicTimer:
        """Install a :class:`PeriodicTimer` firing every ``interval`` s."""
        return PeriodicTimer(
            self,
            interval,
            fn,
            phase=phase,
            jitter=jitter,
            jitter_stream=jitter_stream,
            priority=priority,
        )

    def shared_periodic(
        self,
        interval: float,
        fn: Callable[[], Any],
        *,
        phase: float = 0.0,
        priority: int = Priority.DEFAULT,
    ) -> RoundMembership:
        """Join ``fn`` to the shared :class:`RoundDriver` for this cadence.

        All callers with the same ``(interval, phase, priority)`` share
        one kernel event per round and fire in join order — the timer
        aggregation that keeps synchronized protocol rounds at one heap
        entry per round instead of one per node.  Unlike
        :meth:`periodic` there is no jitter and no per-member interval
        mutation; members needing either keep a private timer.
        """
        key = (float(interval), float(phase), priority)
        driver = self._round_drivers.get(key)
        if driver is None:
            driver = RoundDriver(self, interval, phase=phase, priority=priority)
            self._round_drivers[key] = driver
        return driver.join(fn)

    def cancel(self, ev: Optional[Event]) -> None:
        """Tracked cancel: O(1), exact live count, feeds heap compaction.

        Components holding the kernel should prefer this over
        ``Event.cancel()`` — both prevent the callback from firing, but
        only the tracked path lets the agenda rebuild itself once
        cancelled entries dominate (see :meth:`EventQueue.compact
        <repro.sim.events.EventQueue.compact>`).  ``None`` is accepted so
        call sites can pass an optional handle unguarded.
        """
        if ev is not None:
            self.queue.cancel_event(ev)

    def add_finalizer(self, fn: Callable[[], None]) -> None:
        """Register a callback that runs once when :meth:`run` returns.

        Finalizers are run-or-clear: they execute exactly once when the
        surrounding :meth:`run` call ends, *including* when a callback
        raises — and they are always cleared, so a later ``run`` never
        replays finalizers queued for an earlier one.
        """
        self._finalizers.append(fn)

    def cohort_stats(self) -> Dict[str, Any]:
        """Zero counts in the shape of the deleted cohort-batching report.

        The kernel no longer regroups events (a send is one event per
        arrival instant), so every count is zero.  This stub exists only
        because ``perfbench/layers.py::install_timers`` calls it after
        every kernel run of a benchmark pass (without it every pass
        raises), and ``perfbench/`` stays unchanged so the benchmark
        compares like with like against the previous commit.  The next
        change to the benchmark deletes this stub (ROADMAP item 3).
        """
        return {
            "cohorts": 0,
            "batched_events": 0,
            "batched_share": 0.0,
            "size_histogram": {},
        }

    # Execution ----------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Execute events until the agenda is empty or ``until`` is reached.

        The clock is left at ``until`` (if given) even when the agenda
        drains early, so post-run metric normalisation by horizon is exact.
        ``max_events`` budgets events, and one message event delivers a
        send's whole same-instant receiver group.  Returns the final
        clock value.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and until < self._now:
            raise SimulationError("until lies in the past")
        self._running = True
        self._stop_requested = False
        budget = max_events if max_events is not None else float("inf")
        # Hot loop: the pop is inlined over the queue's heap (same logic as
        # EventQueue.pop_until) with locals bound outside the loop, saving a
        # method call plus attribute loads per event.  Pop order is the
        # tuple key (time, priority, seq) either way — bit-identical to the
        # method-call path, pinned by the golden-trace tests.
        queue = self.queue
        heap = queue._heap
        executed = 0
        try:
            while executed < budget and not self._stop_requested:
                while heap and heap[0][3]._cancelled:
                    heappop(heap)
                    if queue._cancelled_pending > 0:
                        queue._cancelled_pending -= 1
                if not heap:
                    break
                entry = heap[0]
                if until is not None and entry[0] > until:
                    break
                heappop(heap)
                queue._live -= 1
                ev = entry[3]
                self._now = entry[0]
                ev.fn(*ev.args)
                executed += 1
            if until is not None and self._now < until and not self._stop_requested:
                self._now = until
        finally:
            self._events_executed += executed
            self._running = False
            # Run-or-clear: finalizers fire exactly once per run() call,
            # raising callback or not, and never leak into a later run.
            finalizers = self._finalizers[:]
            self._finalizers.clear()
            for fn in finalizers:
                fn()
        return self._now

    def stop(self) -> None:
        """Request :meth:`run` to return after the current event.

        Called from a message handler, that event is the handler's whole
        arrival group: the receivers after it in the group still get the
        message before :meth:`run` returns.
        """
        self._stop_requested = True

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Simulator t={self._now:.6g} pending={len(self.queue)} "
            f"executed={self._events_executed}>"
        )
