"""The benchmark workloads and their output checks.

Each workload builds its inputs from the seed alone and drives the
program only through public entry points: a serial ``run_sweep`` into a
fresh ``RunStore``, from config to stored results.  One *pass* is one
such sweep (50 cells, or a single large cell); a benchmark run makes
several passes, each on its own seed derived from the run's, and
reports medians.  README.md records why each workload was chosen.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from repro.experiments import (
    PAPER_LAMBDAS,
    ExperimentConfig,
    RunStore,
    paper_config,
    run_sweep,
    runner,
)
from repro.experiments.executor import CellExecutionError
from repro.metrics.collector import RunResult
from repro.metrics.export import result_to_canonical_json
from repro.protocols.registry import PAPER_PROTOCOLS
from repro.workload.churn import ChurnConfig
from repro.workload.fleet import FleetConfig

from tracer import Tracer

__all__ = ["WORKLOADS", "Pass", "Workload", "pass_seed"]

#: discovery message kinds; a cell under overload must send some
DISCOVERY_KINDS = ("HELP", "PLEDGE", "ADV")

#: a timed stretch of one pass, as (start, end) ``perf_counter`` readings
Interval = Tuple[float, float]


@dataclass
class Pass:
    """What one pass produced, and when its parts ran.

    Times are kept as raw intervals so that the caller can normalise
    them for host speed (see ``speed.py``) before reporting.
    """

    wall: Interval
    #: ``build_system`` interval of every cell
    setups: List[Interval]
    attempted: int
    #: operations that failed a check; ``failures`` says why
    failed: int
    failures: List[str]
    generated: int
    admitted: int
    messages: float
    #: canonical result JSON per cell
    fingerprints: List[str] = field(default_factory=list)


def pass_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th pass: every pass draws fresh inputs,
    so a run's medians cover several inputs, all fixed by ``seed``."""
    return seed * 100 + index


def cell_failures(result: RunResult, cfg: ExperimentConfig) -> List[str]:
    """Output checks on one stored cell; an empty list means it passed."""
    tag = f"{result.params.get('protocol')} lambda={result.params.get('lambda')}"
    out = []
    if result.admitted + result.rejected > result.generated:
        out.append(f"{tag}: admitted + rejected > generated")
    if cfg.with_(arrival_rate=result.params["lambda"]).offered_load >= 1.0:
        if result.admitted_migrated <= 0:
            out.append(f"{tag}: no migration under overload")
        if sum(result.messages_for(k) for k in DISCOVERY_KINDS) <= 0:
            out.append(f"{tag}: no discovery message under overload")
    if cfg.churn is not None:
        e = result.extra
        joins, leaves = e.get("churn_joins", 0.0), e.get("churn_leaves", 0.0)
        if e.get("churn_scheduled") != joins + leaves + e.get("churn_skipped", 0.0):
            out.append(f"{tag}: churn_scheduled != joins + leaves + skipped")
        if joins <= 0 or leaves <= 0:
            out.append(f"{tag}: churn needs joins and leaves")
    return out


class Workload:
    """A serial ``run_sweep`` into a fresh ``RunStore``, from config to
    stored results."""

    def __init__(
        self,
        name: str,
        protocols: Sequence[str],
        rates: Sequence[float],
        make_base,
        *,
        pass_s: float,
    ) -> None:
        self.name = name
        self.protocols = list(protocols)
        self.rates = list(rates)
        self.make_base = make_base
        #: seconds one pass takes at the reference host speed
        self.pass_s = pass_s

    @property
    def cells(self) -> int:
        return len(self.protocols) * len(self.rates)

    def time_setup(self, seed: int) -> Interval:
        """Assemble (and discard) the first cell's system once, timed."""
        cfg = self.make_base(seed).with_(
            protocol=self.protocols[0], arrival_rate=self.rates[0]
        )
        t0 = perf_counter()
        runner.build_system(cfg)
        return t0, perf_counter()

    def run_pass(self, seed: int, workdir: Path, tracer: Tracer) -> Pass:
        """One sweep; ``tracer`` must already carry the per-cell timers."""
        base: ExperimentConfig = self.make_base(seed)
        store_dir = workdir / "store"
        shutil.rmtree(store_dir, ignore_errors=True)
        cells = self.cells
        failures: List[str] = []
        t0 = perf_counter()
        try:
            raw = run_sweep(
                self.protocols, self.rates, base, parallel=False, store=RunStore(store_dir)
            )
        except CellExecutionError as exc:
            return Pass((t0, perf_counter()), [], cells, cells, [str(exc)], 0, 0, 0.0)
        wall = (t0, perf_counter())
        shutil.rmtree(store_dir, ignore_errors=True)

        results = [raw[p][r] for p in self.protocols for r in sorted(raw[p])]
        failed = 0
        for result in results:
            found = cell_failures(result, base)
            failures += found
            failed += bool(found)

        builds = tracer.spans["experiments.build_system"].intervals[-cells:]
        return Pass(
            wall=wall,
            setups=builds,
            attempted=cells,
            failed=failed,
            failures=failures,
            generated=sum(r.generated for r in results),
            admitted=sum(r.admitted for r in results),
            messages=sum(r.messages_total for r in results),
            fingerprints=[result_to_canonical_json(r) for r in results],
        )


def _paper_base(seed: int) -> ExperimentConfig:
    return paper_config("realtor", PAPER_LAMBDAS[0], seed=seed, horizon=500.0)


def _overlay_base(seed: int) -> ExperimentConfig:
    # 50x50 torus at offered load 1.2: 600 tasks/s * 5 s / 2500 nodes
    return ExperimentConfig(
        protocol="realtor", topology="torus", nodes=2500, arrival_rate=600.0,
        horizon=150.0, seed=seed,
    )


def _churn_base(seed: int) -> ExperimentConfig:
    # 500-node torus at offered load 1.2, about one join or leave a second
    return ExperimentConfig(
        protocol="realtor", topology="torus", nodes=500, arrival_rate=120.0,
        horizon=120.0, seed=seed, fleet=FleetConfig.heterogeneous(),
        churn=ChurnConfig(join_rate=0.5, leave_rate=0.5, graceful=True),
    )


WORKLOADS: Dict[str, Workload] = {
    "paper-cells": Workload(
        "paper-cells", PAPER_PROTOCOLS, PAPER_LAMBDAS, _paper_base, pass_s=10.0
    ),
    "overlay-2500": Workload(
        "overlay-2500", ["realtor"], [600.0], _overlay_base, pass_s=6.5
    ),
    "churn-500": Workload(
        "churn-500", ["realtor"], [120.0], _churn_base, pass_s=3.5
    ),
}
