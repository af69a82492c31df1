"""The serve-ladder rate ladder and the rule that judges each rung.

Shared by the load generator (which stops climbing after two rungs in a
row that did not pass) and the orchestrator (which reports capacity).
Stdlib only, so the generator process never imports the program.
"""

from __future__ import annotations

import math
import os

#: Offered rates in requests per second, climbed in order.  The first
#: is the latency rung, measured for longer; the rest climb through the
#: knee (~12-15k req/s on a 2-CPU host with this pipelining generator).
RUNGS = (
    2000, 4000, 7000, 10000, 11000, 12000, 13000, 14000, 15000, 16000,
    17000, 18000, 20000,
)

#: Share of the run spent on the latency rung, and on each other rung.
LATENCY_LEG_SHARE = 0.4
LEG_SHARE = 0.05

#: A rung's p50, p95 and p99 are medians, over windows of this many
#: scheduled requests (20 samples past each window's p99), of the window
#: quantiles: a single stall of the shared host then spoils one window,
#: not the rung, while a growing backlog spoils every window.
WINDOW_REQUESTS = 2000

#: The reported p50 and p95 use only *steady* windows: the generator
#: sent its p99 request at most WINDOW_MAX_LATE_P99_MS late, and the
#: hypervisor took at most WINDOW_MAX_STEAL CPU-seconds per second from
#: this machine (its steal time).  On a shared virtual machine, steal
#: stalls both processes and otherwise triples a ~1 ms latency.  All
#: windows count when none is steady; the capacity p99 always uses all.
WINDOW_MAX_LATE_P99_MS = 3.0
WINDOW_MAX_STEAL = 0.05

#: The latency rung runs up to this many times until it has
#: MIN_STEADY_WINDOWS steady windows; the steadiest attempt is kept.
LATENCY_ATTEMPTS = 3
MIN_STEADY_WINDOWS = 3

#: Capacity limits: a rung passes when its windowed p99 stays under the
#: latency limit, at most 1% of its requests fail and at least 98% of the
#: offered rate is answered within the leg (no growing backlog).
P99_LIMIT_MS = 50.0
MAX_FAILED_FRAC = 0.01
MIN_ACHIEVED_FRAC = 0.98

#: A rung whose generator sent its p99 request later than half the
#: latency limit after its scheduled instant measures the generator, not
#: the server: it is marked invalid and neither passes nor fails.
MAX_LATE_P99_MS = P99_LIMIT_MS / 2

#: Keep-alive connections from the generator (at most nproc = 2).
CONNECTIONS = 2


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of ``values`` (NaN when empty)."""
    data = sorted(values)
    if not data:
        return math.nan
    rank = max(1, math.ceil(round(q * len(data), 9)))
    return data[min(rank, len(data)) - 1]


def judge(rung: dict) -> str:
    """``pass``, ``fail`` or ``invalid`` for one measured rung."""
    if rung["late_p99_ms"] > MAX_LATE_P99_MS:
        return "invalid"
    ok = (
        rung["p99_window_ms"] <= P99_LIMIT_MS
        and rung["failed"] <= MAX_FAILED_FRAC * rung["scheduled"]
        and rung["achieved_rps"] >= MIN_ACHIEVED_FRAC * rung["offered_rps"]
    )
    return "pass" if ok else "fail"


def capacity(rungs: list[dict]) -> float:
    """Achieved rate of the highest passing rung; invalid rungs count
    only when no valid rung passed (0 when none passed at all)."""
    passing = [r for r in rungs if r["verdict"] == "pass"]
    if not passing:
        passing = [r for r in rungs if r["verdict"] == "invalid"
                   and judge({**r, "late_p99_ms": 0.0}) == "pass"]
    return max((r["achieved_rps"] for r in passing), default=0.0)


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests so far, summed over
    this machine's CPUs (0 where the kernel does not report it)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0
