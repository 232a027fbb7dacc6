"""Per-layer report and before/after diff from traced benchmark runs.

``run.py --trace 1`` writes ``trace-<workload>-seed<n>.json`` into its
``--out`` directory (default ``perfbench/out``).  This script reads
those files::

    # self time and self-time share per layer, per workload
    python3 perfbench/report.py perfbench/out

    # per-metric change between two commits' trace directories
    python3 perfbench/report.py --diff before/ after/

When a directory holds several seeds of one workload, every number is
the median across them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

#: pseudo-layer for traced wall time covered by no span
OUTSIDE = "(outside spans)"


def load(paths: List[Path]) -> Dict[str, List[dict]]:
    """Trace files by workload, from files or the directories holding them."""
    files: List[Path] = []
    for path in paths:
        if not path.exists():
            raise SystemExit(f"no such file or directory: {path}")
        files += sorted(path.glob("trace-*.json")) if path.is_dir() else [path]
    out: Dict[str, List[dict]] = {}
    for f in files:
        data = json.loads(f.read_text())
        out.setdefault(data["workload"], []).append(data)
    return out


def layer_table(runs: List[dict]) -> Dict[str, float]:
    """Median self seconds per layer, plus time outside every span."""
    layers = sorted({name for run in runs for name in run["layer_self_s"]})
    table = {
        layer: statistics.median(run["layer_self_s"].get(layer, 0.0) for run in runs)
        for layer in layers
    }
    table[OUTSIDE] = statistics.median(
        run["traced_wall_s"] - sum(run["layer_self_s"].values()) for run in runs
    )
    return table


def median_metrics(runs: List[dict]) -> Dict[str, float]:
    names = sorted({name for run in runs for name in run["metrics"]})
    return {
        name: statistics.median(run["metrics"].get(name, 0.0) for run in runs)
        for name in names
    }


def render_layers(by_workload: Dict[str, List[dict]]) -> str:
    lines = []
    for workload, runs in sorted(by_workload.items()):
        table = layer_table(runs)
        wall = statistics.median(run["traced_wall_s"] for run in runs)
        lines.append(
            f"== {workload}  ({len(runs)} traced run(s), traced wall {wall:.3f} s)"
        )
        lines.append(f"  {'layer':24s} {'self_s':>10s} {'share':>7s}")
        for layer, secs in sorted(table.items(), key=lambda kv: -kv[1]):
            share = secs / wall if wall else 0.0
            lines.append(f"  {layer:24s} {secs:10.4f} {share:7.1%}")
        lines.append("")
    return "\n".join(lines)


def render_diff(
    before: Dict[str, List[dict]], after: Dict[str, List[dict]]
) -> str:
    lines = []
    for workload in sorted(set(before) & set(after)):
        b = median_metrics(before[workload])
        a = median_metrics(after[workload])
        # every layer's self time is a metric already; add the remainder
        b["outside_spans.s"] = layer_table(before[workload])[OUTSIDE]
        a["outside_spans.s"] = layer_table(after[workload])[OUTSIDE]
        lines.append(f"== {workload}")
        lines.append(f"  {'metric':44s} {'before':>12s} {'after':>12s} {'change':>8s}")
        for name in sorted(set(a) | set(b)):
            x, y = b.get(name, 0.0), a.get(name, 0.0)
            if x == y == 0:
                continue
            change = f"{(y - x) / x:+8.1%}" if x else "     new"
            lines.append(f"  {name:44s} {x:12.6g} {y:12.6g} {change}")
        lines.append("")
    for workload in sorted(set(before) ^ set(after)):
        side = "before" if workload in before else "after"
        lines.append(f"== {workload}: traced only {side}")
    return "\n".join(lines)


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path, help="trace files or directories")
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = ap.parse_args(argv)
    if args.diff:
        before, after = (load([p]) for p in args.diff)
        if not before or not after:
            ap.error("both sides of --diff need trace files")
        print(render_diff(before, after))
        return 0
    runs = load(args.paths)
    if not runs:
        ap.error("no trace files found")
    print(render_layers(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
