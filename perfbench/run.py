"""The benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S [--trace 1]

Run from the root of a checkout.  Workloads, metrics and bounds are
declared in ``BENCHMARK.json``; what each one measures is in
``perfbench/README.md``.  The last line of a single-workload run is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer table).

Output checks: a batch run compares every unit's output digests with
``perfbench/reference.json`` for the unit's input seed, or -- for an
input with no recorded reference -- with the run's first unit on that
input.  ``--record FILE`` adds the outputs of a run to FILE and
``--against FILE`` checks against such a file, so a change can be
re-checked against its parent's outputs on any seed.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ladder  # noqa: E402
from hostspeed import HostSpeed, slowdown  # noqa: E402
from tracer import summarize  # noqa: E402

BATCH = ("sweep-oracle", "fig3-trained", "des-large")
WORKLOADS = BATCH + ("serve-ladder",)
REFERENCE = HERE / "reference.json"

#: Set-up samples per run (fresh interpreters); setup_s is their median.
SETUP_SAMPLES = 3

#: ``repro serve`` for the serve-ladder: the two-region deployment, the
#: default policy, 30 clock seconds per wall second, an admission bucket
#: far above the top rung and an SLO gate whose p95 target no rung
#: reaches -- armed, so its per-request path runs, but never shedding.
SERVE_ARGS = (
    "--scenario", "two-region", "--port", "0", "--speed", "30",
    "--admission-rps", "100000", "--slo-p95", "30",
)

#: Thread-count settings of the BLAS libraries numpy may be built with.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("eras_per_s", "eras/s"),
    ("sim_requests_per_s", "req/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("capacity_rps", "req/s"),
)


class BenchError(RuntimeError):
    """The benchmark could not run to the end."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS thread: every measured process owns one CPU, and a second
    # BLAS thread would time the other CPU (and spin on it) as well
    for var in BLAS_THREADS:
        env[var] = "1"
    return env


def _pin(proc: subprocess.Popen, slot: int) -> None:
    """Give the server and the load generator a CPU each, when there
    are two to give, so they never queue behind each other."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            os.sched_setaffinity(proc.pid, {cpus[slot]})
    except OSError:  # not permitted here: share the CPUs instead
        pass


def _stop(proc: subprocess.Popen, sig: int = signal.SIGINT) -> None:
    """Ask a child to stop, then make sure it has ended."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def _until_ready(proc: subprocess.Popen, marker: str) -> str:
    """Read the child's stdout up to the line containing ``marker``."""
    while True:
        line = proc.stdout.readline()
        if not line:
            raise BenchError(f"child exited before {marker!r}")
        if marker in line:
            return line


# ------------------------------------------------------------------ #
# batch workloads
# ------------------------------------------------------------------ #


def run_batch(workload: str, seed: int, seconds: float, trace: int,
              tmp: Path, reference: Path | None) -> dict:
    cmd = [
        sys.executable, str(HERE / "work.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--tmp", str(tmp),
        "--trace", str(trace),
    ]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    setup = []
    for probe in range(SETUP_SAMPLES):
        last = probe == SETUP_SAMPLES - 1
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd + ([] if last else ["--probe"]), cwd=ROOT, env=_env(),
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = _until_ready(proc, "ready")
            setup.append((time.perf_counter() - t0) / float(line.split()[1]))
            out = proc.stdout.read()
            if proc.wait(timeout=170) != 0:
                raise BenchError(f"{workload} worker exited {proc.returncode}")
        finally:
            _stop(proc, signal.SIGKILL)
    doc = json.loads(out.strip().splitlines()[-1])
    doc["setup_s"] = statistics.median(setup)
    doc["capacity_rps"] = doc.get("sim_requests_per_s")
    doc["correct"] = doc["failed"] == 0
    return doc


# ------------------------------------------------------------------ #
# serve-ladder
# ------------------------------------------------------------------ #


def _get(port: int, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


def boot_server(seed: int, tmp: Path, launcher: list | None = None):
    """Start a server; returns (process, port, seconds until /healthz
    answered 200)."""
    if launcher is None:
        cmd = [sys.executable, "-m", "repro", "serve"]
    else:
        cmd = [sys.executable, str(HERE / "serve_launcher.py"), *launcher, "--"]
    cmd += [*SERVE_ARGS, "--seed", str(seed)]
    t0 = time.perf_counter()
    with open(tmp / "server.err", "a") as err:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=err,
            text=True,
        )
    try:
        _pin(proc, 0)
        line = _until_ready(proc, "serving")
        port = int(line.rsplit(":", 1)[1])
        while True:
            try:
                if _get(port, "/healthz")[0] == 200:
                    return proc, port, time.perf_counter() - t0
            except OSError:
                pass
            if time.perf_counter() - t0 > 60:
                raise BenchError("server never answered /healthz")
            time.sleep(0.005)
    except BaseException:
        _stop(proc, signal.SIGKILL)
        raise


def _next_era(port: int) -> tuple[int, float]:
    """Wait for the server's era counter to move; (era, when)."""
    era = _get(port, "/healthz")[1]["era"]
    deadline = time.perf_counter() + 30
    while time.perf_counter() < deadline:
        now_era = _get(port, "/healthz")[1]["era"]
        if now_era != era:
            return now_era, time.perf_counter()
        time.sleep(0.002)
    raise BenchError("the server's era counter stopped")


def _loadgen(port: int, seed: int, seconds: float, rungs=ladder.RUNGS) -> dict:
    proc = subprocess.Popen(
        [
            sys.executable, str(HERE / "loadgen.py"), "--seed", str(seed),
            "--url", f"http://127.0.0.1:{port}", "--seconds", str(seconds),
            "--rungs", ",".join(str(r) for r in rungs),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        _pin(proc, 1)
        out, _ = proc.communicate(timeout=150)
    finally:
        _stop(proc, signal.SIGKILL)
    if proc.returncode != 0:
        raise BenchError(f"load generator exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


def _cpu_s(pid: int) -> float:
    """User plus system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class _Watch(threading.Thread):
    """Samples a process's peak RSS and CPU time while the ladder runs,
    so both can be read for a window of the ladder afterwards."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.samples: list[tuple[float, float, float]] = []
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(0.02):
            self.samples.append(
                (time.perf_counter(), _peak_rss_mb(self.pid), _cpu_s(self.pid))
            )

    def stop(self) -> None:
        self.done.set()
        self.join()

    def peak_rss_until(self, t: float) -> float:
        return max(rss for when, rss, _ in self.samples if when <= t)

    def cpu_between(self, a: float, b: float) -> float:
        inside = [cpu for when, _, cpu in self.samples if a <= when <= b]
        return inside[-1] - inside[0]


def _verdict(gen: dict) -> dict:
    rungs = gen["rungs"]
    errors = sum(r["errors"] for r in rungs)
    invalid = sum(r["invalid_bodies"] for r in rungs)
    mismatches = []
    if errors:
        mismatches.append(f"{errors} requests got 5xx, a transport error or no answer")
    if invalid:
        mismatches.append(f"{invalid} responses named no known region")
    if not gen["plan_ok"]:
        mismatches.append("/plan fractions did not sum to 1")
    return {
        "attempted": sum(r["scheduled"] for r in rungs),
        "failed": sum(r["failed"] for r in rungs),
        "correct": not mismatches,
        "mismatches": mismatches,
    }


def run_serve(seed: int, seconds: float, trace: int, tmp: Path) -> dict:
    if trace:
        return run_serve_traced(seed, seconds, tmp)
    setup = []
    proc = watch = None
    # the host speed is sampled here, on the other CPU, while the server
    # boots: set-up is reported at the reference speed like the batch ones
    speed = HostSpeed()
    try:
        for _ in range(SETUP_SAMPLES):
            if proc is not None:
                _stop(proc)
            speed.start()
            try:
                proc, port, boot = boot_server(seed, tmp)
            finally:
                speed.stop()
            setup.append(boot / slowdown(speed.take()))
        era0, t0 = _next_era(port)
        watch = _Watch(proc.pid)
        watch.start()
        gen = _loadgen(port, seed, seconds)
        era1, t1 = _next_era(port)
    finally:
        if watch is not None:
            watch.stop()
        if proc is not None:
            _stop(proc)
    rungs = gen["rungs"]
    lat = rungs[0]
    doc = _verdict(gen)
    doc.update(
        setup_s=statistics.median(setup),
        # a fixed amount of serving: the server's memory grows with
        # uptime, and higher rungs add backlog buffers
        peak_rss_mb=watch.peak_rss_until(
            t0 + ladder.LATENCY_LEG_SHARE * seconds
        ),
        eras_per_s=(era1 - era0) / (t1 - t0),
        # at a fixed offered rate, so the figure does not depend on how
        # far up the ladder the run climbed
        sim_requests_per_s=lat["ok"] / watch.cpu_between(lat["t0"], lat["t_end"]),
        p50_ms=rungs[0]["p50_window_ms"],
        p95_ms=rungs[0]["p95_window_ms"],
        capacity_rps=ladder.capacity(rungs),
        rungs=rungs,
    )
    return doc


def _load_spans(prefix: str):
    with open(prefix + ".json", encoding="utf-8") as fh:
        head = json.load(fh)
    cols = {}
    for column, code in (("name_ids", "i"), ("parents", "i"),
                         ("starts", "d"), ("ends", "d")):
        cols[column] = array(code)
        with open(f"{prefix}.{column}", "rb") as fh:
            cols[column].fromfile(fh, head["spans"])
    probes = array("d")
    with open(prefix + ".probes", "rb") as fh:
        probes.frombytes(fh.read())
    return head["names"], cols, [
        tuple(probes[k:k + 3]) for k in range(0, len(probes), 3)
    ]


def _window(probes: list, a: float, b: float) -> list:
    return [p for p in probes if a <= p[0] <= b]


def _cpu(probes: list, a: float, b: float) -> float:
    inside = _window(probes, a, b)
    return inside[-1][2] - inside[0][2] if len(inside) > 1 else 0.0


def run_serve_traced(seed: int, seconds: float, tmp: Path) -> dict:
    """Untraced 2k leg for the overhead baseline, then the traced ladder."""
    import layers

    runs = {}
    for key, extra, rungs in (
        ("untraced", [], ladder.RUNGS[:1]),
        ("traced", ["--layers"], ladder.RUNGS),
    ):
        prefix = str(tmp / f"serve-{key}")
        proc, port, _ = boot_server(seed, tmp, ["--out", prefix, *extra])
        try:
            gen = _loadgen(port, seed, seconds, rungs)
        finally:
            _stop(proc)
        runs[key] = (gen, _load_spans(prefix))

    gen_u, (_, _, probes_u) = runs["untraced"]
    gen, (names, cols, probes) = runs["traced"]
    lat = gen["rungs"][0]
    base = gen_u["rungs"][0]
    a, b = gen["rungs"][0]["t0"], gen["rungs"][-1]["t_end"]
    keep = [k for k, s in enumerate(cols["starts"]) if a <= s <= b]
    index = {k: i for i, k in enumerate(keep)}
    spans = summarize(
        names,
        [cols["name_ids"][k] for k in keep],
        [index.get(cols["parents"][k], -1) for k in keep],
        [cols["starts"][k] for k in keep],
        [cols["ends"][k] for k in keep],
    )
    cpu_ladder = _cpu(probes, a, b)
    per_req_t = _cpu(probes, lat["t0"], lat["t_end"]) / max(lat["ok"], 1)
    per_req_u = _cpu(probes_u, base["t0"], base["t_end"]) / max(base["ok"], 1)
    out = layers.layer_metrics(spans, [], cpu_ladder, 0.0)
    handle_id = names.index("serve.handle") if "serve.handle" in names else -1
    handle_ms = [
        (cols["ends"][k] - cols["starts"][k]) * 1e3
        for k in keep
        if cols["name_ids"][k] == handle_id
        and lat["t0"] <= cols["starts"][k] <= lat["t_end"]
    ]
    lag = [p[1] * 1e3 for p in _window(probes, lat["t0"], lat["t_end"])]
    out.update({
        "trace.overhead": per_req_t / per_req_u - 1.0 if per_req_u else 0.0,
        "serve.wait_p50_ms": lat["p50_ms"] - ladder.quantile(handle_ms, 0.5),
        "serve.loop_lag_p99_ms": ladder.quantile(lag, 0.99),
        "serve.shed": sum(r["shed"] for r in gen["rungs"]),
        "serve.errors": sum(r["errors"] for r in gen["rungs"]),
        "loadgen.late_p99_ms": lat["late_p99_ms"],
    })
    doc = _verdict(gen)
    doc["layers"] = out
    doc["rungs"] = gen["rungs"]
    return doc


# ------------------------------------------------------------------ #
# reporting
# ------------------------------------------------------------------ #


def _reference(against: str | None, recording: bool) -> Path | None:
    if recording:
        return None
    path = Path(against) if against else REFERENCE
    return path if path.exists() else None


def _record(path: Path, workload: str, outputs: dict) -> None:
    """Add a run's outputs, by input seed, to a reference file."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault(workload, {}).update(outputs)
    doc[workload] = dict(sorted(doc[workload].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def run_one(workload: str, seed: int, seconds: float, trace: int,
            against: str | None, record: str | None) -> dict:
    tmp = ROOT / ".perfbench" / f"run-{os.getpid()}-{workload}"
    tmp.mkdir(parents=True, exist_ok=True)
    steal0 = ladder.steal_s()
    try:
        if workload == "serve-ladder":
            doc = run_serve(seed, seconds, trace, tmp)
        else:
            reference = _reference(against, record is not None)
            doc = run_batch(workload, seed, seconds, trace, tmp, reference)
            if record:
                _record(Path(record), workload, doc["outputs"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    doc["host_steal_s"] = ladder.steal_s() - steal0
    if trace:
        import layers

        metrics = {
            name: {"value": doc["layers"][name], "unit": unit}
            for name, unit in layers.PER_LAYER
        }
    else:
        metrics = {
            name: {"value": doc[name], "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": metrics,
        "detail": doc,
    }


def report(workload: str, seed: int, result: dict) -> None:
    doc = result["detail"]
    frac = result["failed"] / result["attempted"]
    verdict = "PASS" if result["correct"] else "FAIL"
    print(f"== {workload} (seed {seed}) ==")
    print(
        f"output check: {verdict}  attempted {result['attempted']}  "
        f"failed {result['failed']}  failed_frac {frac:.4f}"
    )
    print(f"host steal time during the run: {doc['host_steal_s']:.2f} s")
    if "unit_slowdowns" in doc:
        slow = " ".join(f"{x:.3f}" for x in doc["unit_slowdowns"])
        print(f"units {doc['units']}  ops {doc['ops']}  host slowdown per unit: {slow}")
    for line in doc.get("mismatches", []):
        print(f"  mismatch: {line}")
    for rung in doc.get("rungs", []):
        print(
            f"  rung {rung['rate']:>6} req/s: {rung['verdict']:<7} "
            f"achieved {rung['achieved_rps']:8.1f}  p50 {rung['p50_ms']:7.2f} ms  "
            f"p99 {rung['p99_ms']:8.2f} ms  late p99 {rung['late_p99_ms']:6.2f} ms  "
            f"steady windows {rung['steady_windows']}/{rung['windows']}"
        )
    for name, rec in result["metrics"].items():
        print(f"  {name:<26} {rec['value']:>14.6g} {rec['unit']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--against", metavar="FILE",
                    help="check outputs against a --record file")
    ap.add_argument("--record", metavar="FILE",
                    help="write this run's output digests to FILE")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if bool(args.all) == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    workloads = WORKLOADS if args.all else (args.workload,)
    ok = True
    for workload in workloads:
        try:
            result = run_one(workload, args.seed, args.seconds, args.trace,
                             args.against, args.record)
        except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        report(workload, args.seed, result)
        ok &= result["correct"]
        line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(line), flush=True)
    return 0 if ok or not args.all else 1


if __name__ == "__main__":
    sys.exit(main())
