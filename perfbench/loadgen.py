"""Open-loop Poisson load generator for the serve-ladder workload.

Runs in its own process, started by ``run.py``.  It climbs the rate
ladder in :mod:`ladder` against a running ``repro serve``, stopping after
two rungs in a row that did not pass, and prints one JSON object with the per-rung
results.

Open loop: every request is sent at its scheduled instant whether or not
earlier requests were answered (HTTP/1.1 pipelining on ``CONNECTIONS``
keep-alive connections), so a slow server builds a queue instead of
slowing the client down.  Latency runs from the scheduled instant to the
end of the response, which charges a stall to every request queued
behind it.  ``late_p99_ms`` says how late the generator itself sent.

Every 200 must name a known region as arrival and target, a 429 must say
why it shed, and ``/plan`` fractions must sum to 1 after every rung.
Stdlib only: the client never imports the program it measures.

Usage::

    python3 perfbench/loadgen.py --url http://127.0.0.1:8080 --seed 1 \\
        --seconds 20 [--rungs 2000,4000]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from collections import deque

import ladder

#: Seconds to wait for the answers still owed after a leg ends.
DRAIN_S = 10.0
#: Pause between rungs so one rung's backlog cannot leak into the next.
REST_S = 0.2


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if not line:
            raise ConnectionError("truncated headers")
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


async def http_get_json(host: str, port: int, path: str) -> dict:
    """One-shot GET on its own connection; returns the JSON body."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        status, body = await _read_response(reader)
    finally:
        writer.close()
    if status != 200:
        raise ConnectionError(f"GET {path} returned {status}")
    return json.loads(body)


def plan_sums_to_one(plan: dict) -> bool:
    rows = [plan["fractions"], *plan["matrix"]]
    return all(abs(sum(row) - 1.0) <= 1e-9 for row in rows)


async def _watch_steal(samples: list, period_s: float = 0.1) -> None:
    while True:
        samples.append((time.perf_counter(), ladder.steal_s()))
        await asyncio.sleep(period_s)


def schedule(rate: float, leg_s: float, seed: int) -> list[float]:
    """Poisson arrival offsets in ``[0, leg_s)``."""
    rng = random.Random(seed)
    out, t = [], rng.expovariate(rate)
    while t < leg_s:
        out.append(t)
        t += rng.expovariate(rate)
    return out


class _Conn:
    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def ensure(self) -> None:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port
            )

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


async def run_rung(
    conns: list[_Conn], rate: int, leg_s: float, seed: int, regions: set
) -> dict:
    offsets = schedule(rate, leg_s, seed)
    n = len(offsets)
    sent = [0.0] * n
    done = [0.0] * n
    status = [0] * n
    valid = [True] * n
    pending = [deque() for _ in conns]
    owed = [len(range(c, n, len(conns))) for c in range(len(conns))]
    request = b"GET / HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n"
    for conn in conns:
        await conn.ensure()

    async def read_loop(c: int) -> None:
        conn = conns[c]
        for _ in range(owed[c]):
            # a response only follows its request, so pending is non-empty
            code, body = await _read_response(conn.reader)
            i = pending[c].popleft()
            done[i] = time.perf_counter()
            status[i] = code
            try:
                doc = json.loads(body)
            except ValueError:
                valid[i] = False
                continue
            if code == 200:
                valid[i] = doc.get("arrival") in regions and (
                    doc.get("target") in regions
                )
            elif code == 429:
                valid[i] = doc.get("error") in ("shed", "slo")

    readers = [asyncio.ensure_future(read_loop(c)) for c in range(len(conns))]
    steal: list = []
    watcher = asyncio.ensure_future(_watch_steal(steal))
    t0 = time.perf_counter() + 0.01
    due = [t0 + off for off in offsets]
    i = 0
    while i < n:
        now = time.perf_counter()
        while i < n and due[i] <= now:
            c = i % len(conns)
            conns[c].writer.write(request)
            sent[i] = now
            pending[c].append(i)
            i += 1
        if i < n:
            await asyncio.sleep(max(0.0, due[i] - time.perf_counter()))
    t_end = t0 + leg_s
    while time.perf_counter() < t_end + 0.1:
        await asyncio.sleep(0.05)
    watcher.cancel()
    _, still = await asyncio.wait(
        readers, timeout=max(0.0, t_end + DRAIN_S - time.perf_counter())
    )
    for task in still:
        task.cancel()
    for task in readers:
        if task.done() and not task.cancelled() and task.exception():
            still = set(readers)  # a broken connection: resync both
    if still:
        for conn in conns:
            conn.close()

    lat_ms = [(done[k] - due[k]) * 1e3 for k in range(n)]
    late = [(sent[k] - due[k]) * 1e3 for k in range(n)]
    answered = [k for k in range(n) if status[k] == 200]
    window_s = ladder.WINDOW_REQUESTS / rate
    windows: dict[int, list] = {}
    for k in answered:
        windows.setdefault(int(offsets[k] // window_s), []).append(k)
    full = [
        w for w in windows.values()
        if len(w) >= ladder.WINDOW_REQUESTS // 2
    ] or [answered]  # a leg too short for one window: use all of it

    def stolen(w: list) -> float:
        """Steal per second over the window's span of send times."""
        a, b = due[w[0]], due[w[-1]]
        before = [v for t, v in steal if t <= a] or [steal[0][1]]
        after = [v for t, v in steal if t >= b] or [steal[-1][1]]
        return (after[0] - before[-1]) / max(b - a, 1e-9)

    steady = [
        w for w in full
        if w
        and ladder.quantile([late[k] for k in w], 0.99)
        <= ladder.WINDOW_MAX_LATE_P99_MS
        and stolen(w) <= ladder.WINDOW_MAX_STEAL
    ]

    def windowed(ws: list, q: float) -> float:
        return ladder.quantile(
            [ladder.quantile([lat_ms[k] for k in w], q) for w in ws], 0.50
        )

    ok = sum(1 for k in range(n) if status[k] == 200 and valid[k])
    shed = sum(1 for k in range(n) if status[k] == 429)
    answered_in_leg = sum(1 for k in range(n) if 0.0 < done[k] <= t_end)
    rung = {
        "rate": rate,
        "scheduled": n,
        "offered_rps": n / leg_s,
        "achieved_rps": answered_in_leg / leg_s,
        "ok": ok,
        "shed": shed,
        "errors": n - ok - shed,
        "failed": n - ok,
        "invalid_bodies": sum(
            1 for k in range(n) if status[k] and not valid[k]
        ),
        "p50_ms": ladder.quantile([lat_ms[k] for k in answered], 0.50),
        "p99_ms": ladder.quantile([lat_ms[k] for k in answered], 0.99),
        "p50_window_ms": windowed(steady or full, 0.50),
        "p95_window_ms": windowed(steady or full, 0.95),
        "p99_window_ms": windowed(full, 0.99),
        "windows": len(full),
        "steady_windows": len(steady),
        "samples": len(answered),
        "t0": t0,
        "t_end": t_end,
        "late_p99_ms": ladder.quantile(late, 0.99),
    }
    rung["verdict"] = ladder.judge(rung)
    return rung


async def climb(
    url: str, rungs: list[int], seconds: float, seed: int
) -> dict:
    host, _, port = url.split("://", 1)[-1].partition(":")
    port = int(port.rstrip("/"))
    plan = await http_get_json(host, port, "/plan")
    regions = set(plan["regions"])
    conns = [_Conn(host, port) for _ in range(ladder.CONNECTIONS)]
    out = {"regions": sorted(regions), "rungs": [], "plan_ok": True}
    out["plan_ok"] = plan_sums_to_one(plan)
    try:
        for k, rate in enumerate(rungs):
            share = ladder.LATENCY_LEG_SHARE if k == 0 else ladder.LEG_SHARE
            rung = await run_rung(
                conns, rate, share * seconds, seed * 1000 + k, regions
            )
            # the latency rung is measured again (keeping the steadier
            # attempt) while a burst of host steal left too few windows
            for attempt in range(1, ladder.LATENCY_ATTEMPTS if k == 0 else 1):
                if rung["steady_windows"] >= ladder.MIN_STEADY_WINDOWS:
                    break
                await asyncio.sleep(REST_S)
                again = await run_rung(
                    conns, rate, share * seconds, seed * 1000 + k, regions
                )
                again["attempt"] = attempt + 1
                if again["steady_windows"] > rung["steady_windows"]:
                    rung = again
            out["rungs"].append(rung)
            out["plan_ok"] &= plan_sums_to_one(
                await http_get_json(host, port, "/plan")
            )
            last = [r["verdict"] for r in out["rungs"][-2:]]
            if len(last) == 2 and "pass" not in last:
                break
            await asyncio.sleep(REST_S)
    finally:
        for conn in conns:
            conn.close()
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--url", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument(
        "--rungs", default=",".join(str(r) for r in ladder.RUNGS)
    )
    args = ap.parse_args(argv)
    rungs = [int(r) for r in args.rungs.split(",") if r]
    result = asyncio.run(climb(args.url, rungs, args.seconds, args.seed))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
