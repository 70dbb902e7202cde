"""Compare two sets of end-to-end benchmark runs, metric by metric.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py parent.json change.json

Each file is a runs file that ``run.py --json OUT`` appends to.  Runs pair
up by position (the i-th run of each file), so build the two files by
alternating: parent, change, parent, change, ...

For every workload and metric the table shows each side's median and
quartiles, the change in the median, and a verdict:

* ``better``: at least 10 pairs, the change wins at least 9 of every 10
  (ties count for neither), and the medians differ by more than the
  parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json``, and the parent's spread is
  within the bound (or every change run is worse than every parent run);
* ``unresolved``: the parent's runs spread wider than the bound, and not
  every change run is better than every parent run;
* ``same``: none of the above -- no regression beyond the bound.

Per-layer metrics, and the ungated p95 and p99 over every latency that
each run reports under ``diagnostics``, have no bound: they are ``better``
or ``worse`` only by the paired rule, else ``-``.  ``failed_frac`` (failed
over attempted) may not increase at all.  The exit code is 1 when any
end-to-end metric, or ``failed_frac``, is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Pairs needed, and the share of them the change must win, to claim a gain.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _runs(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _series(runs: List[dict], workload: str) -> Dict[str, List[float]]:
    """metric -> values over the runs that measured ``workload``."""
    series: Dict[str, List[float]] = {}
    for run in runs:
        result = run["workloads"].get(workload)
        if result is None:
            continue
        for name, metric in {**result["metrics"], **result.get("diagnostics", {})}.items():
            series.setdefault(name, []).append(metric["value"])
        series.setdefault("failed_frac", []).append(
            result["failed"] / max(1, result["attempted"]))
    return series


def verdict(parent: Sequence[float], change: Sequence[float], lower_is_better: bool,
            bound: Optional[float]) -> str:
    """The verdict of one metric (see the module docs for the rules)."""
    sign = 1.0 if lower_is_better else -1.0
    p1, p_med, p3 = _quartiles(parent)
    _, c_med, _ = _quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gap_resolved = abs(c_med - p_med) > (p3 - p1)
    if len(pairs) >= MIN_PAIRS and gap_resolved:
        if wins >= WIN_SHARE * len(pairs):
            return "better"
        if bound is None and losses >= WIN_SHARE * len(pairs):
            return "worse"
    if bound is None:
        return "-"
    all_worse = min(sign * c for c in change) > max(sign * p for p in parent)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    spread = (p3 - p1) / abs(p_med) if p_med else 0.0
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if worse_by > bound and (spread <= bound or all_worse):
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    return "same"


def compare(parent_runs: List[dict], change_runs: List[dict], spec: dict) -> Tuple[str, bool]:
    """The comparison table, and whether any bounded metric got worse."""
    metrics = {m["name"]: (m["better"] == "lower", m.get("bound"))
               for m in spec["end_to_end"] + spec["per_layer"]}
    # The ungated latencies over every request (run.py's "diagnostics").
    for run in parent_runs:
        for result in run["workloads"].values():
            for name in result.get("diagnostics", {}):
                metrics.setdefault(name, (True, None))
    metrics["failed_frac"] = (True, None)
    lines = [f"{'workload':<14} {'metric':<40} {'parent median [q1, q3]':>34} "
             f"{'change median [q1, q3]':>34} {'delta':>8}  verdict"]
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        parent = _series(parent_runs, workload)
        change = _series(change_runs, workload)
        for name in metrics:
            if name not in parent or name not in change:
                continue
            lower, bound = metrics[name]
            if name == "failed_frac":
                result = "worse" if max(change[name]) > max(parent[name]) else "same"
                regressed |= result == "worse"
            else:
                result = verdict(parent[name], change[name], lower, bound)
                regressed |= result == "worse" and bound is not None
            p1, p2, p3 = _quartiles(parent[name])
            c1, c2, c3 = _quartiles(change[name])
            delta = (c2 - p2) / abs(p2) * 100.0 if p2 else 0.0
            lines.append(f"{workload:<14} {name:<40} "
                         f"{p2:>12.5g} [{p1:>9.4g}, {p3:>9.4g}] "
                         f"{c2:>12.5g} [{c1:>9.4g}, {c3:>9.4g}] {delta:>+7.1f}%  {result}")
    pairs = min(len(parent_runs), len(change_runs))
    lines.append(f"{len(parent_runs)} parent runs, {len(change_runs)} change runs, "
                 f"{pairs} pairs")
    return "\n".join(lines), regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="runs file of the parent commit")
    parser.add_argument("change", help="runs file of the change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    table, regressed = compare(_runs(args.parent), _runs(args.change), spec)
    print(table)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
