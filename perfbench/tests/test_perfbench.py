"""Tests of the benchmark itself (not collected by the program's suite).

    python3 -m pytest perfbench/tests -q

The self-time arithmetic is checked on synthetic nested spans with known
answers; every workload then runs once at minimum size.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import ladder  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import work  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def test_self_time_known_answer():
    # a[0,10] holds b[1,4] (which holds c[2,3]) and b[5,7]; a[20,21] alone
    names = ["a", "b", "c"]
    spans = [
        (0, -1, 0.0, 10.0),
        (1, 0, 1.0, 4.0),
        (2, 1, 2.0, 3.0),
        (1, 0, 5.0, 7.0),
        (0, -1, 20.0, 21.0),
    ]
    out = summarize(names, *zip(*spans))
    assert out["a"] == {"calls": 2, "total_s": 11.0, "self_s": 6.0}
    assert out["b"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert out["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    # self times partition the time the outermost spans cover
    assert sum(r["self_s"] for r in out.values()) == 11.0


def test_tracer_records_nesting(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()  # outer [0,5], inner [1,2] and [3,4]
    out = tracer.summary()
    assert out["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert out["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert list(tracer.parents) == [-1, 0, 0]
    assert tracer.durations("inner") == [1.0, 1.0]


def test_span_survives_exception():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.summary()["boom"]["calls"] == 1
    assert tracer.ends[0] >= tracer.starts[0]
    assert tracer._stack == []


def test_layer_metrics_fleet_and_ratio():
    spans = {
        "fleet.run": {"calls": 1, "total_s": 10.0, "self_s": 9.5},
        "fleet.store_put": {"calls": 9, "total_s": 0.5, "self_s": 0.5},
        "core.era": {"calls": 60, "total_s": 8.0, "self_s": 2.0},
        "pcam.predict": {"calls": 60, "total_s": 6.0, "self_s": 6.0},
    }
    train = [("d1", "rep-tree")] * 3
    out = layers.layer_metrics(spans, train, 10.0, 8.0, 9.0, 9)
    assert out["fleet.overhead_s"] == pytest.approx(0.5)
    assert out["fleet.store_put_s"] == 0.5
    assert out["ml.train.useful_ratio"] == pytest.approx(1 / 3)
    assert out["trace.coverage"] == pytest.approx((0.5 + 2 + 6 + 0.5) / 10)
    assert out["trace.overhead"] == pytest.approx(0.25)
    assert set(out) == {name for name, _ in layers.PER_LAYER}


def test_slowdown_known_answer():
    nominal = hostspeed.NOMINAL_S
    samples = [(0.0, nominal), (1.0, 2 * nominal), (2.0, 2 * nominal),
               (3.0, 4 * nominal)]
    assert hostspeed.slowdown(samples) == pytest.approx(2.0)
    # only the samples taken inside the window count ...
    assert hostspeed.slowdown(samples, 2.5, 3.5) == pytest.approx(4.0)
    assert hostspeed.slowdown(samples, 0.0, 1.0) == pytest.approx(1.5)
    # ... unless none was, and no samples at all means no scaling
    assert hostspeed.slowdown(samples, 9.0, 10.0) == pytest.approx(2.0)
    assert hostspeed.slowdown([]) == 1.0


def test_clock_leaves_out_samples():
    speed = hostspeed.HostSpeed()
    t0 = speed.clock()
    speed._tick(None, None)
    t1 = speed.clock()
    [(_, kernel_s)] = speed.take()
    assert speed.spent >= kernel_s > 0
    assert t1 - t0 < kernel_s / 2
    assert speed.samples == []


class _TwoInputs:
    """A workload whose units alternate between inputs 1 and 2."""

    inputs = [1, 2]

    def __init__(self, outputs):
        self.outputs = iter(outputs)

    def unit(self, k):
        return next(self.outputs)


def test_check_by_input():
    a, b, bad = {"x": "a"}, {"x": "b"}, {"x": "zz"}
    tracer = Tracer()
    # input 1 has a reference; input 2 is checked against its first unit
    units = _TwoInputs([a, b, a, bad, bad])
    checked = work.Run(units, None, tracer, {"1": a})
    assert checked.units(None, 5)[0] == 5
    assert checked.attempted == 5
    assert checked.failed == 2  # unit 3 (input 2) and unit 4 (input 1)
    assert [m.split(" x:")[0] for m in checked.mismatches] == ["unit 3", "unit 4"]
    assert checked.first == {"1": a, "2": b}
    assert [op > 0 for op in checked.op_s] == [True] * 5


def test_ladder_judge():
    rung = {
        "late_p99_ms": 1.0, "p99_window_ms": 10.0, "failed": 0,
        "scheduled": 1000, "achieved_rps": 1990.0, "offered_rps": 2000.0,
    }
    assert ladder.judge(rung) == "pass"
    assert ladder.judge({**rung, "achieved_rps": 1900.0}) == "fail"
    assert ladder.judge({**rung, "p99_window_ms": 60.0}) == "fail"
    assert ladder.judge({**rung, "failed": 11}) == "fail"
    assert ladder.judge({**rung, "late_p99_ms": 30.0}) == "invalid"
    rungs = [
        {**rung, "verdict": "pass", "achieved_rps": 1990.0},
        {**rung, "verdict": "invalid", "achieved_rps": 3990.0,
         "late_p99_ms": 30.0},
        {**rung, "verdict": "fail", "achieved_rps": 5000.0},
    ]
    assert ladder.capacity(rungs) == 1990.0
    assert ladder.capacity(rungs[1:]) == 3990.0
    assert ladder.capacity(rungs[2:]) == 0.0
    assert ladder.quantile([3, 1, 2, 4], 0.5) == 2
    assert ladder.quantile(list(range(1, 101)), 0.99) == 99


def _bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_end_to_end(workload):
    line = _bench("--workload", workload, "--seed", "1", "--seconds", "1")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert list(line["metrics"]) == [name for name, _ in run.END_TO_END]
    for rec in line["metrics"].values():
        assert rec["value"] > 0


@pytest.mark.parametrize("workload", ["des-large", "serve-ladder"])
def test_smoke_traced(workload):
    line = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", "1")
    assert line["correct"]
    assert list(line["metrics"]) == [name for name, _ in layers.PER_LAYER]
    assert line["metrics"]["trace.coverage"]["value"] > 0


def test_refuses_without_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "des-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
