"""``repro sweep --obs-dump`` instruments the first policy cell as swept."""

from __future__ import annotations

import repro.experiments.runner
import repro.fleet
from repro.cli import main
from repro.fleet import FleetOutcome


class _Executor:
    def __init__(self, **kwargs):
        pass

    def run(self, jobs):
        return FleetOutcome(jobs=jobs, payloads=[None] * len(jobs))


class _Telemetry:
    def dump_json(self, path):
        pass


def test_obs_dump_uses_the_first_cell_axes(monkeypatch, tmp_path):
    calls = {}

    def build_scenario(key, load, domains="flat"):
        calls["scenario"] = (key, load, domains)
        return "scenario"

    def run_instrumented_experiment(scenario, policy, **kwargs):
        calls["run"] = (scenario, policy, kwargs)
        return None, _Telemetry()

    monkeypatch.setattr(repro.fleet, "FleetExecutor", _Executor)
    monkeypatch.setattr(repro.fleet, "build_scenario", build_scenario)
    monkeypatch.setattr(
        repro.experiments.runner,
        "run_instrumented_experiment",
        run_instrumented_experiment,
    )
    rc = main(
        ["sweep", "--scenarios", "two-region", "--policies", "uniform",
         "--loads", "0.5", "--replicates", "1", "--eras", "12",
         "--retrain", "8", "--domains", "2x2",
         "--store", str(tmp_path / "store"),
         "--obs-dump", str(tmp_path / "dump.json")]
    )
    assert rc == 0
    assert calls["scenario"] == ("two-region", 0.5, "2x2")
    scenario, policy, kwargs = calls["run"]
    assert (scenario, policy) == ("scenario", "uniform")
    assert kwargs["online_retrain"] == 8
    assert kwargs["eras"] == 12
