"""Adaptive refresh: background planning must change *when*, never *what*.

``repro.planner.refresh`` moves the re-plan of an expiring or just-expired
plan off the request path: a stale serve enqueues a refresh, and a periodic
pass refreshes entries before their TTL ends.  This benchmark replays one
hand-written traffic trace under a deliberately short TTL in two modes and
pins the three promises that made that acceptable:

* **bit-identical recommendations** — every request's winning plan (scheme,
  replication, stationary operand, simulated time) is identical with the
  refresher on and off, request by request: the search is deterministic per
  signature, so background refresh can only move *when* it runs;
* **zero request-path cold plans once warm** — with the refresher on, after
  each distinct signature's first request every later response is a cache
  hit (fresh or stale-while-revalidate); the same trace without the
  refresher re-plans on the request path five times;
* **exact stale-serve accounting** — the one deliberate traffic gap in the
  trace produces exactly one grace-window serve, and the response flags,
  service counters, and cache counters all agree on it.

The trace runs on an injectable fake clock, so every number in the committed
snapshot — outcomes, stale flags, plan identities, counter totals — is
deterministic and ``--check`` compares all of it exactly.

Usage:
    python benchmarks/bench_adaptive_refresh.py --check   # default
    python benchmarks/bench_adaptive_refresh.py --write
"""

from __future__ import annotations

import json
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)
_BENCH = os.path.dirname(os.path.abspath(__file__))
if _BENCH not in sys.path:
    sys.path.insert(0, _BENCH)

from harness_common import RESULTS_DIR, snapshot_cli, write_result

from repro.bench.workloads import Workload
from repro.planner import BackgroundRefresher, PlannerService
from repro.topology.machines import uniform_system

SNAPSHOT_PATH = os.path.join(RESULTS_DIR, "adaptive_refresh.json")

#: Plans expire after this many (fake) seconds — short enough that the trace
#: crosses several expiries.
TTL_SECONDS = 30.0

#: Stale-while-revalidate window on top of the TTL (refresher-on mode only).
GRACE_SECONDS = 300.0

#: Fraction of the TTL treated as the pre-expiry refresh window.
REFRESH_MARGIN = 0.5

#: The recorded trace: ``(workload name, seconds since previous request)``.
#: Three signatures cycle under steady traffic, then one 40 s gap lets every
#: entry expire — the refresher-on replay serves exactly one stale plan
#: across the whole trace, the refresher-off replay re-plans five times.
TRACE = [
    ("a", 0.0), ("b", 5.0), ("c", 5.0),    # warmup: three unavoidable colds
    ("a", 5.0), ("b", 5.0), ("c", 5.0),    # steady traffic, all fresh hits
    ("a", 10.0), ("b", 5.0),               # pre-TTL refresh absorbs aging
    ("a", 40.0),                           # gap: expired-in-grace -> stale
    ("a", 1.0), ("b", 1.0), ("c", 1.0),    # refreshed off-path: fresh again
]

WORKLOADS = {
    "a": Workload("a", 96, 80, 64),
    "b": Workload("b", 512, 80, 64),
    "c": Workload("c", 96, 512, 64),
}

SERVICE_OPTIONS = {"replication_factors": [1, 2],
                   "stationary_options": ("B", "C")}


class _FakeClock:
    """Manually advanced clock injected into the service/cache."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


def _outcome(response) -> str:
    """Classify one response (single-threaded: coalescing cannot occur)."""
    if not response.cache_hit:
        return "computed"
    return "stale" if response.stale else "hit"


def _replay(adaptive: bool) -> dict:
    """Replay the trace with the refresher on (``adaptive``) or off.

    The off mode runs a plain short-TTL cache — every expiry is a
    request-path cold plan, which is exactly the behavior the refresher
    exists to remove.  Both modes advance the same fake clock through the
    same schedule, so request ``i`` sees the same wall-clock instant in
    both replays.
    """
    clock = _FakeClock()
    options = dict(SERVICE_OPTIONS, cache_ttl_seconds=TTL_SECONDS, clock=clock)
    if adaptive:
        options["cache_grace_seconds"] = GRACE_SECONDS
    service = PlannerService(uniform_system(4), **options)
    refresher = (BackgroundRefresher(service, refresh_margin=REFRESH_MARGIN)
                 if adaptive else None)
    requests = []
    try:
        for name, advance in TRACE:
            clock.now += advance
            response = service.plan(WORKLOADS[name])
            winner = response.recommendation
            requests.append({
                "workload": name,
                "outcome": _outcome(response),
                "stale": response.stale,
                "plan_age": round(response.plan_age, 6),
                "scheme": winner.scheme.name,
                "replication": list(winner.replication),
                "stationary": winner.stationary,
                "simulated_time": winner.simulated_time,
            })
            if refresher is not None:
                refresher.run_once()
        stats = service.stats()
        cache = service.cache_stats()
        return {
            "mode": "adaptive" if adaptive else "off",
            "requests": requests,
            "cold_plans": sum(1 for r in requests if r["outcome"] == "computed"),
            "stale_serves": sum(1 for r in requests if r["stale"]),
            "stats_stale_hits": stats.stale_hits,
            "cache_stale_serves": cache.stale_serves,
            "background_refreshes": stats.background_refreshes,
            "plans_computed": stats.plans_computed,
        }
    finally:
        if refresher is not None:
            refresher.close()
        service.close()


def compute_points() -> dict:
    """Both replays, keyed by mode."""
    return {"off": _replay(adaptive=False),
            "adaptive": _replay(adaptive=True)}


def _verify(points: dict) -> list:
    """The machine-independent invariants (everything here is deterministic)."""
    off, on = points["off"], points["adaptive"]
    failures = []
    warmup = len(WORKLOADS)
    for index, (a, b) in enumerate(zip(off["requests"], on["requests"])):
        for field in ("scheme", "replication", "stationary", "simulated_time"):
            if a[field] != b[field]:
                failures.append(
                    f"request {index} ({a['workload']}): refresher changed "
                    f"{field}: {a[field]!r} -> {b[field]!r}")
    seen = set()
    for index, record in enumerate(on["requests"]):
        if record["workload"] not in seen:
            seen.add(record["workload"])
            continue
        if record["outcome"] == "computed":
            failures.append(
                f"request {index} ({record['workload']}) ran a cold plan on "
                f"the request path after warmup")
    if on["cold_plans"] != warmup:
        failures.append(f"adaptive replay computed {on['cold_plans']} "
                        f"request-path plans, expected the {warmup} warmups")
    if off["cold_plans"] <= warmup:
        failures.append("off replay never re-planned: the trace no longer "
                        "exercises TTL expiry")
    if on["stale_serves"] != 1:
        failures.append(f"expected exactly 1 stale serve in the adaptive "
                        f"replay, saw {on['stale_serves']}")
    for counter in ("stats_stale_hits", "cache_stale_serves"):
        if on[counter] != on["stale_serves"]:
            failures.append(
                f"stale accounting disagrees: {on['stale_serves']} flagged "
                f"responses but {counter} = {on[counter]}")
    if on["background_refreshes"] < 1:
        failures.append("adaptive replay never refreshed in the background")
    if (on["plans_computed"]
            != on["cold_plans"] + on["background_refreshes"]):
        failures.append("plans_computed does not decompose into request-path "
                        "colds + background refreshes")
    return failures


def render(points: dict) -> str:
    off, on = points["off"], points["adaptive"]
    lines = [
        f"adaptive refresh replay ({len(TRACE)} requests, "
        f"{len(WORKLOADS)} signatures, ttl {TTL_SECONDS:.0f}s)",
        "",
        f"{'mode':<10} {'request-path colds':>18} {'stale serves':>13} "
        f"{'bg refreshes':>13}",
    ]
    for record in (off, on):
        lines.append(f"{record['mode']:<10} {record['cold_plans']:>18} "
                     f"{record['stale_serves']:>13} "
                     f"{record['background_refreshes']:>13}")
    lines.append("")
    lines.append(f"recommendations identical across modes on all "
                 f"{len(TRACE)} requests; post-warmup request-path "
                 f"colds: {off['cold_plans'] - len(WORKLOADS)} -> 0")
    return "\n".join(lines)


def write_snapshot(path: str = SNAPSHOT_PATH) -> str:
    points = compute_points()
    failures = _verify(points)
    if failures:
        raise SystemExit("adaptive refresh invariants failed:\n  "
                         + "\n  ".join(failures))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"version": 1, "points": points}, handle, indent=1)
        handle.write("\n")
    text = render(points)
    print(text)
    write_result("adaptive_refresh", text)
    return path


def check_snapshot(path: str = SNAPSHOT_PATH) -> int:
    """Re-run both replays and compare everything to the committed record.

    The whole artifact is deterministic (fake clock, deterministic search),
    so the comparison is exact — outcomes, stale flags, plan identities,
    and counter totals all have to match.
    """
    with open(path, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    expected = snapshot["points"]

    points = compute_points()
    failures = _verify(points)
    for mode, record in points.items():
        want = expected.get(mode)
        if want is None:
            failures.append(f"mode {mode!r} missing from snapshot")
            continue
        for field in ("cold_plans", "stale_serves", "background_refreshes",
                      "plans_computed", "stats_stale_hits",
                      "cache_stale_serves"):
            if record[field] != want[field]:
                failures.append(f"{mode}: {field} {record[field]!r} != "
                                f"snapshot {want[field]!r}")
        for index, (got, exp) in enumerate(zip(record["requests"],
                                               want["requests"])):
            if got != exp:
                failures.append(f"{mode}: request {index} diverged from "
                                f"snapshot: {got!r} != {exp!r}")
        if len(record["requests"]) != len(want["requests"]):
            failures.append(f"{mode}: request count "
                            f"{len(record['requests'])} != "
                            f"snapshot {len(want['requests'])}")
    print(render(points))
    if failures:
        print("adaptive refresh check FAILED:\n  " + "\n  ".join(failures))
        return len(failures)
    print("adaptive refresh: OK")
    return 0


def main(argv=None) -> int:
    return snapshot_cli(__doc__, SNAPSHOT_PATH, write_snapshot,
                        check_snapshot, argv)


if __name__ == "__main__":
    raise SystemExit(main())
