"""The three batch workloads, each run in a fresh interpreter.

``run.py`` starts this file once per setup sample (``--probe``: import
and build the deployment, say ``ready``, exit) and once for the measured
run, which prints ``ready`` when set up and one JSON object when done.
The ``ready`` line carries the host's slowdown during set-up, so that
``run.py`` reports set-up time at the reference host speed too.

A workload repeats one *unit* -- a whole sweep grid, a whole
``repro fig3 --predictor rep-tree`` comparison, or one 6-era DES batch on
a freshly built deployment -- until the time budget would be overrun.
A unit is made of *ops*, the outputs that are checked: the sweep's cells,
the comparison's policy runs, the DES batch itself.  Rates are taken over
all units of the run and latencies are quantiles over its ops, both at
the reference host speed (:mod:`hostspeed`), so a slow stretch of the
shared host does not move them.

A workload whose cost depends much on its input takes turns over
several inputs made from the seed (``inputs``), so one run averages
them.  Every unit's outputs are digested and checked -- against the
reference recorded for its input or, for an input with none, against
the first unit of the run on the same input -- so a run proves it
computed what the program computed when the reference was recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from hostspeed import HostSpeed, slowdown  # noqa: E402
from ladder import quantile  # noqa: E402
from tracer import Tracer, install, merge  # noqa: E402


def digest(doc) -> str:
    """Short content digest of a JSON-able document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class SweepOracle:
    """``repro sweep`` with its defaults: three-region x the three paper
    policies x load 1.0 x 3 replicates x 60 eras, oracle predictor, one
    worker, a fresh result store per grid."""

    def __init__(self, seed: int, tmp: Path) -> None:
        from repro.fleet import FleetExecutor, ResultStore, SweepSpec

        self.inputs = [seed]
        self._executor, self._store = FleetExecutor, ResultStore
        self.jobs = SweepSpec(replicates=3, root_seed=seed).expand()
        self.tmp = tmp

    def unit(self, k: int) -> dict[str, str]:
        root = self.tmp / f"store-{k}"
        try:
            outcome = self._executor(
                workers=1, store=self._store(root)
            ).run(self.jobs)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return {
            job.label: digest(payload) if payload is not None else "missing"
            for job, payload in zip(outcome.jobs, outcome.payloads)
        }


class Fig3Trained:
    """``repro fig3 --predictor rep-tree``: the paper's two-region
    comparison of its three policies with REP-Tree in the loop.

    Training is most of the cost and its cost follows the profiled
    dataset, which differs by seed (by up to 1.5x), so units take turns
    over four experiment seeds: the seed plus 0, 100000, 200000 and
    300000.
    """

    INPUT_STRIDE = 100_000

    #: an op is one policy's run, training included
    OP = "experiments.run"

    @staticmethod
    def op_targets() -> list[tuple]:
        import repro.experiments.runner as runner

        return [(Fig3Trained.OP, runner, "run_policy_experiment")]

    def __init__(self, seed: int, tmp: Path) -> None:
        from repro.experiments.runner import (
            PAPER_POLICIES,
            compare_policies,
            paper_shape_holds,
        )
        from repro.experiments.scenarios import two_region_scenario

        self.inputs = [seed + self.INPUT_STRIDE * j for j in range(4)]
        self._compare, self._shape = compare_policies, paper_shape_holds
        self._policies, self._scenario = PAPER_POLICIES, two_region_scenario

    def unit(self, k: int) -> dict[str, str]:
        results = self._compare(
            self._scenario(), self._policies,
            seed=self.inputs[k % len(self.inputs)], predictor="rep-tree",
        )
        out = {p: digest(r.traces.to_dict()) for p, r in results.items()}
        failing = [name for name, ok in self._shape(results).items() if not ok]
        out["paper_shape"] = "failed:" + ",".join(failing) if failing else "ok"
        return out


class DesLarge:
    """``DesControlLoop`` on the large two-region deployment (1920/1152
    browsers, pools x16, available-resources) with the program's own
    oracle predictor, rebuilt from the seed for every 6-era batch."""

    ERAS = 6

    def __init__(self, seed: int, tmp: Path) -> None:
        from repro.core import get_policy
        from repro.core.des_loop import DesControlLoop
        from repro.pcam.predictor import OracleRttfPredictor
        from repro.pcam.vm import VirtualMachine
        from repro.sim.instances import get_instance_type
        from repro.sim.rng import RngRegistry
        from repro.workload.anomalies import AnomalyInjector
        from repro.workload.browsers import BrowserPopulation

        def build():
            rngs = RngRegistry(seed=seed)

            def pool(name, itype, n):
                return [
                    VirtualMachine(
                        f"{name}/vm{i}",
                        get_instance_type(itype),
                        AnomalyInjector(rngs.child(f"{name}{i}").stream("a")),
                    )
                    for i in range(n)
                ]

            vms = {"r1": pool("r1", "m3.medium", 96), "r3": pool("r3", "private.small", 64)}
            loop = DesControlLoop(
                {
                    "r1": (vms["r1"], BrowserPopulation(n_clients=1920), 64),
                    "r3": (vms["r3"], BrowserPopulation(n_clients=1152), 48),
                },
                get_policy("available-resources"),
                OracleRttfPredictor(),
                rngs,
            )
            return loop, [vm for pool_ in vms.values() for vm in pool_]

        self.inputs = [seed]
        self.build = build
        self.build()
        self.last_requests = 0

    def unit(self, k: int) -> dict[str, str]:
        loop, vms = self.build()
        loop.run(self.ERAS)
        self.last_requests = sum(vm.total_requests for vm in vms)
        return {
            "requests": str(self.last_requests),
            "events": str(loop.sim.fired_count),
            "traces": digest(loop.traces.to_dict()),
        }


WORKLOADS = {
    "sweep-oracle": SweepOracle,
    "fig3-trained": Fig3Trained,
    "des-large": DesLarge,
}


class Spool:
    """Carries spans out of the sweep's forked job processes.

    The fleet executor forks one worker per job and the worker leaves
    through ``os._exit``, so a job's spans are summarised and written
    at the end of the job itself; the parent folds them in per grid.
    With ``speed``, the job samples the host speed while it runs.
    """

    def __init__(self, tracer: Tracer, sink: list, root: Path,
                 speed: HostSpeed | None = None) -> None:
        import repro.fleet.executor as executor

        self.root = root
        root.mkdir(parents=True, exist_ok=True)
        original = executor.execute_job

        def job_in_worker(job):
            tracer.clear()
            tracer.counters.clear()
            del sink[:]
            if speed is not None:
                speed.spent = 0.0
                speed.start()
            t0 = time.perf_counter()
            payload = original(job)
            wall_s = time.perf_counter() - t0
            if speed is not None:
                speed.stop()
            doc = {
                "wall_s": wall_s,
                "op_s": wall_s - (speed.spent if speed is not None else 0.0),
                "speed": speed.take() if speed is not None else [],
                "spans": tracer.summary(),
                "eras": len(tracer.durations("core.era")),
                "requests": tracer.counters.get("requests", 0),
                "train": sink,
            }
            path = root / f"{os.getpid()}-{time.perf_counter_ns()}.json"
            path.write_text(json.dumps(doc))
            return payload

        executor.execute_job = job_in_worker

    def drain(self) -> list[dict]:
        docs = []
        for path in sorted(self.root.iterdir()):
            docs.append(json.loads(path.read_text()))
            path.unlink()
        return docs


class Run:
    """Repeats units, checks their outputs and keeps the timings."""

    def __init__(self, work, spool: Spool | None, tracer: Tracer,
                 expected: dict | None, speed: HostSpeed | None = None) -> None:
        self.work, self.spool, self.tracer = work, spool, tracer
        self.speed = speed
        #: reference outputs by input seed (as a string)
        self.expected = expected or {}
        #: outputs of the first unit on each input, by input seed
        self.first: dict[str, dict] = {}
        self.attempted = self.failed = 0
        self.mismatches: list[str] = []
        #: seconds each op took, at the reference host speed
        self.op_s: list[float] = []
        #: (eras, requests, seconds at the reference speed) of each unit
        self.done: list[tuple[int, float, float]] = []
        #: host slowdown during each unit
        self.slowdowns: list[float] = []
        self.jobs: list[dict] = []

    def check(self, k: int, outputs: dict[str, str]) -> None:
        seed = str(self.work.inputs[k % len(self.work.inputs)])
        first = self.first.setdefault(seed, outputs)
        want = self.expected.get(seed, first)
        for key, got in outputs.items():
            self.attempted += 1
            if want.get(key) != got or got == "missing" or (
                key == "paper_shape" and got != "ok"
            ):
                self.failed += 1
                self.mismatches.append(
                    f"unit {k} {key}: got {got} want {want.get(key)}"
                )

    def units(self, budget_s: float | None, count: int | None,
              first: int = 0) -> tuple[int, float]:
        """Run units ``first``, ``first + 1``, ... until ``count`` are
        done or the next one would end past ``budget_s``; returns (units,
        wall seconds)."""
        n, wall = 0, 0.0
        while True:
            if count is not None and n >= count:
                break
            if budget_s is not None and n and wall + wall / n > budget_s:
                break
            self.tracer.clear()
            self.tracer.counters.clear()
            if self.speed is not None:
                self.speed.start()
            t0 = self.tracer.clock()
            outputs = self.work.unit(first + n)
            unit_wall = self.tracer.clock() - t0
            if self.speed is not None:
                self.speed.stop()
            wall += unit_wall
            self.check(first + n, outputs)
            samples = self.speed.take() if self.speed is not None else []
            eras = len(self.tracer.durations("core.era"))
            requests = self.tracer.counters.get("requests", 0)
            requests += getattr(self.work, "last_requests", 0)
            op = getattr(self.work, "OP", None)
            if self.spool is not None:
                for doc in self.spool.drain():
                    self.op_s.append(doc["op_s"] / slowdown(doc["speed"]))
                    samples += doc["speed"]
                    eras += doc["eras"]
                    requests += doc["requests"]
                    self.jobs.append(doc)
            elif op is not None:
                self.op_s += [
                    (end - start) / slowdown(samples, start, end)
                    for start, end in self.tracer.spans(op)
                ]
            else:
                self.op_s.append(unit_wall / slowdown(samples))
            slow = slowdown(samples)
            self.slowdowns.append(slow)
            self.done.append((eras, requests, unit_wall / slow))
            n += 1
        return n, wall


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--reference", default=None,
                    help="JSON file of outputs to match, by workload and input")
    ap.add_argument("--probe", action="store_true", help="set up and exit")
    args = ap.parse_args(argv)
    tmp = Path(args.tmp)
    speed = HostSpeed()
    speed.start()
    work = WORKLOADS[args.workload](args.seed, tmp)
    speed.stop()
    print(f"ready {slowdown(speed.take())!r}", flush=True)
    if args.probe:
        return 0

    # the end-to-end run samples the host speed in whichever process
    # runs the eras: the sweep's forked jobs, or this one
    if args.trace:
        speed = None
    tracer = Tracer(speed.clock if speed is not None else None)
    train: list = []
    install(tracer, layers.era_targets(), on_return=_count_requests(tracer))
    if speed is not None and hasattr(work, "op_targets"):
        install(tracer, work.op_targets())
    spool = (
        Spool(tracer, train, tmp / "spool", speed)
        if isinstance(work, SweepOracle) else None
    )
    expected = None
    if args.reference:
        with open(args.reference, encoding="utf-8") as fh:
            expected = json.load(fh).get(args.workload)
    run = Run(work, spool, tracer, expected, speed if spool is None else None)
    doc: dict = {}
    if args.trace:
        n, untraced = run.units(args.seconds / 2, None)
        layers.install_layers(tracer, train)
        run.jobs.clear()
        del train[:]
        spans: dict = {}
        traced_wall = 0.0
        # the untraced units again, on the same inputs, one at a time, so
        # each unit's spans are summed before the arrays are cleared
        for k in range(n):
            _, wall = run.units(None, 1, first=k)
            traced_wall += wall
            merge(spans, tracer.summary())
        train_all = list(train)
        for job in run.jobs:
            merge(spans, job["spans"])
            train_all += [tuple(t) for t in job["train"]]
        doc["layers"] = layers.layer_metrics(
            spans, train_all, traced_wall, untraced,
            fleet_job_wall_s=sum(j["wall_s"] for j in run.jobs),
            fleet_jobs=len(run.jobs),
        )
        doc["units"] = n
    else:
        n, wall = run.units(args.seconds, None)
        doc.update(
            units=n,
            wall_s=wall,
            unit_slowdowns=run.slowdowns,
            eras_per_s=sum(d[0] for d in run.done) / sum(d[2] for d in run.done),
            sim_requests_per_s=(
                sum(d[1] for d in run.done) / sum(d[2] for d in run.done)
            ),
            ops=len(run.op_s),
            p50_ms=quantile(run.op_s, 0.50) * 1e3,
            p95_ms=quantile(run.op_s, 0.95) * 1e3,
            peak_rss_mb=peak_rss_mb(),
        )
    doc.update(
        attempted=run.attempted,
        failed=run.failed,
        mismatches=run.mismatches[:20],
        outputs=run.first,
    )
    print(json.dumps(doc), flush=True)
    return 0


def _count_requests(tracer: Tracer):
    def on_return(summary) -> None:
        requests = getattr(summary, "total_requests", None)
        if requests is not None:
            tracer.counters["requests"] = (
                tracer.counters.get("requests", 0) + requests
            )
    return on_return


if __name__ == "__main__":
    sys.exit(main())
