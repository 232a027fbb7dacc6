"""The live half of the runtime seam: a wall-clock scheduler over asyncio.

:class:`LiveScheduler` implements the same
:class:`~repro.runtime.api.SchedulerAPI` surface as the discrete-event
:class:`~repro.sim.kernel.Simulator`, so every protocol agent, the fault
manager, the admission layer and the arrival generator run **unchanged**
against it.  The differences are exactly what "live" means:

* **Time is real.**  ``now`` is elapsed wall time scaled by
  ``time_scale`` (virtual seconds per wall second); the scheduler sleeps
  between deadlines instead of jumping the clock.  ``time_scale=1`` is
  real time, larger values compress a long virtual horizon into a short
  wall run (the live-vs-sim equivalence tests use this).
* **The past is unreachable.**  ``at()`` with a deadline already behind
  the wall clock cannot raise — the moment has passed; the event fires
  as soon as possible instead and ``late_events`` counts the clamp.
* **A lagging agenda holds the clock.**  While due events drain,
  everything that reads ``now`` (the callback itself, and mailbox or
  socket handlers between batches) sees the deadline being drained,
  not the wall clock.  Without the hold, a process that falls behind
  hands every handler a clock ahead of the work it is doing: queue
  backlogs (``busy_until - now``) look shorter than they are and an
  overloaded run admits more than the same seed does in the simulator.
  The clock never moves backwards — the hold is never below a value
  already returned — and it is released, jumping to the wall clock, as
  soon as nothing is due.  The lag itself stays visible: ``late_events``
  compares deadlines with the wall clock, and ``worst_lag`` records how
  far the wall clock ran ahead of a deadline it fired.
* **Ties are best-effort.**  Events due at the same instant still fire
  in ``(time, priority, seq)`` order — the same key the kernel heap
  uses — but wall-clock jitter means cross-instant ordering guarantees
  are only as good as the event loop's timer resolution.

The timer-aggregation helpers are *shared with the kernel*:
:class:`~repro.sim.kernel.PeriodicTimer` and
:class:`~repro.sim.kernel.RoundDriver` only ever touch the seam
(``after``/``cancel``/``streams``), so ``periodic`` and
``shared_periodic`` here return the exact same classes the simulator
returns.
"""

from __future__ import annotations

import asyncio
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..runtime.api import Priority
from ..sim.kernel import PeriodicTimer, RoundDriver, RoundMembership
from ..sim.rng import RandomStreams
from ..sim.trace import Tracer

__all__ = ["LiveScheduler", "LiveTimer"]

_INF = float("inf")


def _noop(*_args: Any) -> None:
    """Replacement callable for cancelled timers."""


class LiveTimer:
    """Handle for one scheduled callback (the live analogue of
    :class:`~repro.sim.events.Event`; satisfies
    :class:`~repro.runtime.api.TimerHandle`)."""

    __slots__ = ("time", "priority", "seq", "fn", "args", "_cancelled")

    def __init__(
        self, time: float, priority: int, seq: int, fn: Callable[..., Any], args: tuple
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent, O(1) lazy)."""
        self._cancelled = True
        self.fn = _noop
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"<LiveTimer t={self.time:.6g} p={self.priority} [{state}]>"


class LiveScheduler:
    """Wall-clock :class:`~repro.runtime.api.SchedulerAPI` implementation.

    Parameters
    ----------
    seed:
        Root seed for the named random streams (same derivation as the
        simulator, so a live run and a simulated run with equal seeds
        draw identical workloads).
    trace:
        Optional tracer; a disabled one is installed when omitted.
    time_scale:
        Virtual seconds per wall-clock second.  The virtual clock is
        what every component sees through ``now`` and what all
        deadlines are expressed in.
    """

    def __init__(
        self,
        seed: int = 0,
        trace: Optional[Tracer] = None,
        *,
        time_scale: float = 1.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.streams = RandomStreams(seed)
        self.trace = trace if trace is not None else Tracer(enabled=False)
        self.time_scale = float(time_scale)
        self._heap: List[Tuple[float, int, int, LiveTimer]] = []
        self._next_seq = 0
        self._finalizers: List[Callable[[], None]] = []
        self._round_drivers: Dict[Tuple[float, float, int], RoundDriver] = {}
        #: wall perf_counter() of virtual t=0; None until the first run
        self._anchor_wall: Optional[float] = None
        self._wakeup: Optional[asyncio.Event] = None
        self._running = False
        self._stop_requested = False
        self._events_executed = 0
        #: deadlines already behind the wall clock when scheduled (clamped)
        self.late_events = 0
        #: most virtual seconds the wall clock ran past a fired deadline
        self.worst_lag = 0.0
        #: max events executed between cooperative yields (see :meth:`run`)
        self.max_batch = 512
        #: wall sleeps at or below this spin instead (see :meth:`_sleep`)
        self.spin_threshold = 0.002
        #: ceiling on ``now`` while a lagging agenda drains (inf: free)
        self._hold = _INF
        #: highest value ``now`` has returned (the hold never goes below)
        self._seen = 0.0

    # Clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time: elapsed wall seconds times ``time_scale``,
        held at the deadline being drained while the agenda lags."""
        t = self._wall_now()
        if t > self._hold:
            t = self._hold
        if t > self._seen:
            self._seen = t
        return t

    def _wall_now(self) -> float:
        """Virtual time of the wall clock, ignoring any hold."""
        if self._anchor_wall is None:
            return 0.0
        return (perf_counter() - self._anchor_wall) * self.time_scale

    @property
    def events_executed(self) -> int:
        return self._events_executed

    # Scheduling --------------------------------------------------------

    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.DEFAULT,
    ) -> LiveTimer:
        """Schedule ``fn(*args)`` at absolute virtual ``time``.

        A deadline behind the wall clock is clamped to "as soon as possible"
        — the live runtime cannot refuse a moment that already passed —
        and counted in :attr:`late_events`.
        """
        if time != time or time == _INF:
            raise ValueError(f"non-finite deadline: {time!r}")
        if time < self._wall_now():
            self.late_events += 1
        seq = self._next_seq
        self._next_seq = seq + 1
        timer = LiveTimer(time, priority, seq, fn, args)
        heappush(self._heap, (time, priority, seq, timer))
        if self._wakeup is not None:
            self._wakeup.set()
        return timer

    def after(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = Priority.DEFAULT,
    ) -> LiveTimer:
        """Schedule ``fn(*args)`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        return self.at(self.now + delay, fn, *args, priority=priority)

    def cancel(self, ev: Optional[LiveTimer]) -> None:
        """Cancel a timer; ``None`` accepted so call sites pass handles
        unguarded (mirrors :meth:`Simulator.cancel
        <repro.sim.kernel.Simulator.cancel>`)."""
        if ev is not None:
            ev.cancel()

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
        """A self-rescheduling timer — the kernel's own
        :class:`~repro.sim.kernel.PeriodicTimer`, which only ever talks
        to the seam and therefore runs here unchanged."""
        return PeriodicTimer(
            self,  # type: ignore[arg-type]
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
        """Join the shared round for this cadence (kernel's
        :class:`~repro.sim.kernel.RoundDriver`, reused verbatim)."""
        key = (float(interval), float(phase), priority)
        driver = self._round_drivers.get(key)
        if driver is None:
            driver = RoundDriver(
                self, interval, phase=phase, priority=priority  # type: ignore[arg-type]
            )
            self._round_drivers[key] = driver
        return driver.join(fn)

    def add_finalizer(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` once when the current (or next) :meth:`run` returns."""
        self._finalizers.append(fn)

    # Execution ----------------------------------------------------------

    async def run(self, until: Optional[float] = None) -> float:
        """Drive the agenda until virtual ``until`` (or forever if None).

        Sequential calls resume the same virtual clock — the anchor is
        set once, on the first call.  Returns the final virtual time.
        Between deadlines the scheduler awaits, so sibling tasks (node
        mailbox loops, UDP endpoints) run freely.
        """
        if self._running:
            raise RuntimeError("run() is not reentrant")
        if self._anchor_wall is None:
            self._anchor_wall = perf_counter()
        if self._wakeup is None:
            self._wakeup = asyncio.Event()
        self._running = True
        self._stop_requested = False
        heap = self._heap
        scale = self.time_scale
        try:
            while not self._stop_requested:
                # Drain every already-due event as one batch, then yield
                # once.  A per-event yield costs a full event-loop round
                # trip (hundreds of microseconds) and caps the scheduler
                # near 1k events/s wall — the load generator blows
                # straight past that.  The batch bound keeps mailbox
                # tasks from starving under a saturated agenda.  The
                # drain runs *before* the horizon check so an event due
                # at t <= until still fires even when the wall clock has
                # already slipped past the horizon.
                executed = 0
                while heap and not self._stop_requested:
                    head = heap[0]
                    if head[3]._cancelled:
                        heappop(heap)
                        continue
                    due = head[0]
                    wall = self._wall_now()
                    if due > wall or (until is not None and due > until):
                        break
                    self._hold = due if due > self._seen else self._seen
                    if wall - due > self.worst_lag:
                        self.worst_lag = wall - due
                    timer = heappop(heap)[3]
                    timer.fn(*timer.args)
                    self._events_executed += 1
                    executed += 1
                    if executed >= self.max_batch:
                        break
                if executed:
                    await asyncio.sleep(0)
                    continue
                self._hold = _INF
                now = self._wall_now()
                if until is not None and now >= until:
                    break
                if not heap:
                    if until is None:
                        await self._sleep(None)
                    else:
                        await self._sleep((until - now) / scale)
                    continue
                head_time = heap[0][0]
                if until is not None and head_time > until:
                    await self._sleep((until - now) / scale)
                    continue
                # Sleep toward the deadline, but wake early if a new
                # earlier event lands; re-evaluate either way.
                await self._sleep((head_time - now) / scale)
        finally:
            self._running = False
            self._hold = _INF
            finalizers = self._finalizers[:]
            self._finalizers.clear()
            for fn in finalizers:
                fn()
        return self.now

    async def _sleep(self, wall_seconds: Optional[float]) -> None:
        """Await the wakeup event for at most ``wall_seconds`` (None = forever)."""
        wakeup = self._wakeup
        assert wakeup is not None
        wakeup.clear()
        if wall_seconds is None:
            await wakeup.wait()
            return
        if wall_seconds <= self.spin_threshold:
            # The event loop's timer resolution is on the order of a
            # millisecond, so a timed wait quantises every sub-ms gap up
            # to it — at high time_scale that throttles chained timers
            # (each arrival scheduling the next) to ~1k/s wall.  Spin
            # through plain yields instead: full precision, and sibling
            # tasks still run on every iteration.
            await asyncio.sleep(0)
            return
        try:
            await asyncio.wait_for(wakeup.wait(), timeout=wall_seconds)
        except asyncio.TimeoutError:
            pass

    def stop(self) -> None:
        """Request :meth:`run` to return after the current event."""
        self._stop_requested = True
        if self._wakeup is not None:
            self._wakeup.set()

    @property
    def pending(self) -> int:
        """Live (non-cancelled) timers still on the agenda."""
        return sum(1 for e in self._heap if not e[3]._cancelled)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<LiveScheduler t={self.now:.6g} scale={self.time_scale:g} "
            f"executed={self._events_executed}>"
        )
