"""Layer profiler — per-subsystem self time of any run, sim or live.

``with KernelProfiler() as prof: system.run()`` runs the production
code path (the kernel's one run loop) under a stdlib
:class:`cProfile.Profile`, then attributes every function's *self*
time (``tottime``) two ways:

* **per function** — the code object's qualified name
  (``Transport._deliver``, ``WorkQueue._complete_head``, …), or
  cProfile's label for a builtin;
* **per subsystem** — the function's module, read from its code file,
  mapped onto the architectural layers (``kernel``, ``transport``,
  ``queue``, ``protocol``, ``migration``, ``workload``, ``metrics``, …)
  by :func:`subsystem_of`.

Self time of code outside ``repro`` — builtins, the stdlib, a script's
callbacks — is split across its callers' subsystems in proportion to
cProfile's per-caller times, so a ``heappop`` issued by the run loop is
kernel time and a ``dict.get`` issued by a protocol handler is protocol
time.  numpy is the exception: it gets its own ``numpy`` row.  Only time
no ``repro`` caller can claim (an asyncio event loop's own frames, say)
lands in ``other``.

Nothing here knows about the simulator: the same object profiles a
live asyncio run.  The cost is cProfile's — a profiled run takes a few
times the plain wall time — and nothing is paid when no profiler is
active.
"""

from __future__ import annotations

import cProfile
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Tuple

__all__ = ["KernelProfiler", "ProfileReport", "subsystem_of"]

#: module-prefix → subsystem; the first match wins, so specific prefixes
#: come before the packages that contain them
_SUBSYSTEM_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.node.queue", "queue"),
    ("repro.node.monitor", "monitor"),
    ("repro.node", "node"),
    ("repro.network.transport", "transport"),
    ("repro.network", "network"),
    ("repro.protocols", "protocol"),
    ("repro.core", "protocol"),
    ("repro.migration", "migration"),
    ("repro.workload", "workload"),
    ("repro.metrics", "metrics"),
    ("repro.obs", "obs"),
    ("repro.live", "live"),
    ("repro.experiments", "experiments"),
    ("repro.analysis", "analysis"),
    ("repro.cluster", "cluster"),
    # the sim/live seam: the clock/scheduler/transport contract
    ("repro.runtime", "kernel"),
    ("repro.sim", "kernel"),
    ("numpy", "numpy"),
)


def subsystem_of(module: str) -> str:
    """Map a module name onto an architectural subsystem."""
    for prefix, name in _SUBSYSTEM_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return name
    return "other"


@dataclass
class ProfileEntry:
    """Self time and call count of one function."""

    seconds: float = 0.0
    calls: int = 0


@dataclass
class ProfileReport:
    """Frozen outcome of one or more profiled sections."""

    total_seconds: float
    #: function name → self time and calls
    by_callback: Dict[str, ProfileEntry]
    #: subsystem → self time (seconds)
    by_subsystem: Dict[str, float]

    @property
    def accounted_seconds(self) -> float:
        return sum(
            s for name, s in self.by_subsystem.items() if name != "other"
        )

    @property
    def accounted_fraction(self) -> float:
        """Fraction of profiled wall time attributed to named subsystems."""
        if self.total_seconds <= 0.0:
            return 1.0
        return min(1.0, self.accounted_seconds / self.total_seconds)

    def top_callbacks(self, n: int = 10) -> List[Tuple[str, ProfileEntry]]:
        """The ``n`` functions with the most self time."""
        return sorted(
            self.by_callback.items(), key=lambda kv: kv[1].seconds, reverse=True
        )[:n]

    def format(self, top: int = 10) -> str:
        """A two-table plain-text report (subsystems, then hot functions)."""
        from ..metrics.report import format_table

        total = self.total_seconds or 1e-12
        sub_rows = [
            [name, seconds * 1e3, 100.0 * seconds / total]
            for name, seconds in sorted(
                self.by_subsystem.items(), key=lambda kv: kv[1], reverse=True
            )
        ]
        lines = [
            f"profiled: {self.total_seconds*1e3:.2f} ms wall, "
            f"{self.accounted_fraction:.1%} accounted",
            format_table(["subsystem", "self ms", "%wall"], sub_rows),
        ]
        fn_rows = [
            [name, entry.calls, entry.seconds * 1e3, 100.0 * entry.seconds / total]
            for name, entry in self.top_callbacks(top)
        ]
        if fn_rows:
            lines.append("")
            lines.append(
                format_table(["function", "calls", "self ms", "%wall"], fn_rows)
            )
        return "\n".join(lines)


class KernelProfiler:
    """Context manager that profiles whatever runs inside it.

    One instance may wrap several sections; their times accumulate.
    """

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self.total_seconds = 0.0
        self._started = 0.0

    def __enter__(self) -> "KernelProfiler":
        self._started = perf_counter()
        self._profile.enable()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._profile.disable()
        self.total_seconds += perf_counter() - self._started

    def report(self) -> ProfileReport:
        """Aggregate the profile collected so far into a fresh report."""
        stats = self._profile.getstats()
        # module of every loaded code file, for code → subsystem
        modules = {
            getattr(mod, "__file__", None): name
            for name, mod in list(sys.modules.items())
        }
        owner: Dict[Any, str] = {}
        callers: Dict[Any, List[Tuple[Any, float]]] = {}
        by_callback: Dict[str, ProfileEntry] = {}
        for entry in stats:
            code = entry.code
            if isinstance(code, str):  # a builtin, under cProfile's label
                name = code
                owner[code] = "numpy" if "numpy" in code else "other"
            else:
                name = getattr(code, "co_qualname", code.co_name)
                owner[code] = subsystem_of(modules.get(code.co_filename) or "")
            fn = by_callback.setdefault(name, ProfileEntry())
            fn.seconds += entry.inlinetime
            fn.calls += entry.callcount
            for call in entry.calls or ():
                callers.setdefault(call.code, []).append((code, call.totaltime))

        shares: Dict[Any, Dict[str, float]] = {}

        def share_of(code: Any) -> Dict[str, float]:
            """Subsystem → the fraction of ``code``'s time it owns."""
            if owner[code] != "other":
                return {owner[code]: 1.0}
            if code not in shares:
                shares[code] = {}  # a recursive edge contributes nothing
                split: Dict[str, float] = {}
                for caller, seconds in callers.get(code, ()):
                    for sub, frac in share_of(caller).items():
                        split[sub] = split.get(sub, 0.0) + frac * seconds
                weight = sum(split.values())
                shares[code] = (
                    {sub: t / weight for sub, t in split.items()}
                    if weight > 0.0 else {"other": 1.0}
                )
            return shares[code]

        by_subsystem: Dict[str, float] = {}
        for entry in stats:
            for sub, frac in share_of(entry.code).items():
                by_subsystem[sub] = (
                    by_subsystem.get(sub, 0.0) + frac * entry.inlinetime
                )
        return ProfileReport(
            total_seconds=self.total_seconds,
            by_callback=by_callback,
            by_subsystem=by_subsystem,
        )
