"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-cells --seed 1 --seconds 20 --trace 0

``--trace 0`` makes as many passes of the workload as fit ``--seconds``
at the reference host speed, each on a seed derived from ``--seed``, and
reports the end-to-end metrics (medians over passes).  ``--trace 1``
runs one untraced reference pass and one pass with every layer wrapped,
checks that both took the same execution path, reports the per-layer
metrics and writes the full span table to ``--out``.  Every metric is
printed by name and unit; the last stdout line is the JSON result.  The
exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import (  # noqa: E402  (needs the path above)
    Probes,
    install_layers,
    install_timers,
    layer_metrics,
)
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Pass, Workload, pass_seed  # noqa: E402

#: end-to-end metrics: name -> unit (directions live in BENCHMARK.json)
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "admission_prob": "ratio",
    "msgs_per_admit": "msg/task",
}

#: fewest ``build_system`` samples behind the ``setup_s`` median
MIN_SETUP_SAMPLES = 5


def layer_unit(name: str) -> str:
    if name.endswith("us_per_event"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def per_layer_names() -> List[str]:
    """Every per-layer metric, in report order (BENCHMARK.json lists these)."""
    return list(layer_metrics(Tracer(), Probes(), 0.0)) + ["trace.overhead_ratio"]


def _run_pass(workload: Workload, seed: int, workdir: Path, tracer: Tracer) -> Pass:
    gc.collect()  # start every pass without the previous pass's garbage
    return workload.run_pass(seed, workdir, tracer)


def measure(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """``--trace 0``: ``seconds`` worth of passes, report medians.

    Timings are normalised for host speed (``speed.py``).
    """
    tracer = Tracer()
    probe = SpeedProbe()
    passes: List[Pass] = []
    try:
        install_timers(tracer, Probes())
        with probe:
            for index in range(max(1, round(seconds / workload.pass_s))):
                passes.append(
                    _run_pass(workload, pass_seed(seed, index), workdir, tracer)
                )
            setups = [iv for p in passes for iv in p.setups]
            while len(setups) < MIN_SETUP_SAMPLES:
                setups.append(workload.time_setup(seed))
    finally:
        tracer.restore()

    admitted = sum(p.admitted for p in passes)
    generated = sum(p.generated for p in passes)
    metrics = {
        "wall_s": statistics.median(probe.normalise(*p.wall) for p in passes),
        "setup_s": statistics.median(probe.normalise(*iv) for iv in setups)
        * workload.cells,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "admission_prob": admitted / generated if generated else 0.0,
        "msgs_per_admit": sum(p.messages for p in passes) / admitted if admitted else 0.0,
    }
    factor = probe.factor(passes[0].wall[0], passes[-1].wall[1])
    notes = {
        "passes": len(passes),
        "raw wall_s per pass": " ".join(f"{b - a:.3f}" for a, b in (p.wall for p in passes)),
        "setup samples": len(setups),
        "host speed vs reference": f"{factor:.3f} ({len(probe.samples)} samples)",
    }
    return {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "failures": [f for p in passes for f in p.failures],
        "metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()},
        "notes": notes,
    }


def trace(workload: Workload, seed: int, workdir: Path, out: Path) -> dict:
    """``--trace 1``: untraced reference pass, then a fully traced pass."""
    ref_tracer, ref_probes = Tracer(), Probes()
    try:
        install_timers(ref_tracer, ref_probes)
        ref = _run_pass(workload, pass_seed(seed, 0), workdir, ref_tracer)
    finally:
        ref_tracer.restore()

    tracer, probes = Tracer(), Probes()
    try:
        install_timers(tracer, probes)
        install_layers(tracer, probes)
        traced = _run_pass(workload, pass_seed(seed, 0), workdir, tracer)
    finally:
        tracer.restore()

    failures = ref.failures + traced.failures
    failed = ref.failed + traced.failed
    # The determinism check: wrapping from outside must not change what
    # the program computes or how the kernel executes it.
    if traced.fingerprints != ref.fingerprints:
        failures.append("tracing changed the run results")
        failed += 1
    if probes.kernel_runs != ref_probes.kernel_runs:
        failures.append("tracing changed the kernel's events or cohort batching")
        failed += 1
    metrics = layer_metrics(tracer, probes, ref_tracer.seconds("sim.run"))
    ref_wall = ref.wall[1] - ref.wall[0]
    traced_wall = traced.wall[1] - traced.wall[0]
    metrics["trace.overhead_ratio"] = traced_wall / ref_wall
    out.mkdir(parents=True, exist_ok=True)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "untraced_wall_s": ref_wall,
        "traced_wall_s": traced_wall,
        "layer_self_s": tracer.layer_self(),
        "metrics": metrics,
        "spans": tracer.as_dict(),
    }
    path = out / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    return {
        "attempted": ref.attempted + traced.attempted + 2,
        "failed": failed,
        "failures": failures,
        "metrics": {k: (float(v), layer_unit(k)) for k, v in metrics.items()},
        "notes": {"trace file": str(path)},
    }


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "out",
                    help="directory for trace files and scratch stores")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = args.out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            res = trace(workload, args.seed, workdir, args.out)
        else:
            res = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in res["failures"]:
        print(f"FAIL {failure}")
    for name, (value, unit) in res["metrics"].items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for key, value in res["notes"].items():
        print(f"# {key}: {value}")
    failed = res["failed"]
    result: Dict[str, object] = {
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in res["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
