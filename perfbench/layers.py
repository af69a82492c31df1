"""Which public functions the traced run wraps, and the per-layer table.

Layer names are the program's modules.  ``policy`` and ``chaos`` are
off in every workload and ``obs`` in all but the server, which always
keeps its metrics (off is what users run), so nothing of theirs is
wrapped; ``topology`` runs flat everywhere.  Each span name
below is ``<layer>.<operation>``; a metric is reported for every
workload, and a layer a workload never calls reads 0 there.
"""

from __future__ import annotations

import functools
import hashlib
import importlib

from tracer import Tracer, install

#: Modules imported before wrapping, so that every ``from x import f``
#: binding exists when module functions are rebound.
MODULES = (
    "repro.core.control_loop",
    "repro.core.des_loop",
    "repro.core.forward_plan",
    "repro.core.policy",
    "repro.core.rmttf",
    "repro.experiments.runner",
    "repro.fleet.executor",
    "repro.fleet.jobs",
    "repro.fleet.store",
    "repro.ml",
    "repro.ml.toolchain",
    "repro.ml.validation",
    "repro.overlay.election",
    "repro.overlay.routing",
    "repro.pcam.monitor",
    "repro.pcam.predictor",
    "repro.pcam.state_table",
    "repro.pcam.vmc",
    "repro.serve.clock",
    "repro.serve.service",
    "repro.sim.engine",
    "repro.slo.evaluator",
    "repro.workload.anomalies",
)


def _mod(name: str):
    return importlib.import_module(name)


def era_targets() -> list[tuple]:
    """The control-era timer the end-to-end runs keep (one span per
    era, ~1 us against a multi-ms era)."""
    return [
        ("core.era", _mod("repro.core.control_loop").AcmControlLoop, "run_era"),
        ("core.era", _mod("repro.core.des_loop").DesControlLoop, "run_era"),
    ]


def layer_targets() -> list[tuple]:
    """Every wrapped public function, as ``(span, owner, attribute)``."""
    for name in MODULES:
        _mod(name)
    pred = _mod("repro.pcam.predictor").RttfPredictor
    sim = _mod("repro.sim.engine").Simulator
    table = _mod("repro.pcam.state_table").VmStateTable
    slo = _mod("repro.slo.evaluator").SloEvaluator
    return era_targets() + [
        ("pcam.predict", pred, "predict_rttf_batch"),
        ("pcam.predict", pred, "predict_rttf_rows"),
        ("pcam.process_era", _mod("repro.pcam.vmc").VirtualMachineController, "process_era"),
        ("pcam.profile", _mod("repro.pcam.monitor").ProfilingHarness, "collect_runs"),
        ("pcam.state_table", table, "capacity_at"),
        ("pcam.state_table", table, "failure_point_at"),
        ("ml.train", _mod("repro.ml.toolchain").F2PMToolchain, "train_best"),
        ("ml.cv", _mod("repro.ml.validation"), "cross_validate"),
        ("ml.fit", _mod("repro.ml.base").Regressor, "fit"),
        ("ml.infer", _mod("repro.ml.toolchain").TrainedModel, "predict"),
        ("core.plan", _mod("repro.core.policy"), "compute_fractions"),
        ("core.plan", _mod("repro.core.policy"), "renormalize_live"),
        ("core.plan", _mod("repro.core.forward_plan"), "build_forward_plan"),
        ("core.rmttf", _mod("repro.core.rmttf").RmttfAggregator, "update_all"),
        ("overlay.elect", _mod("repro.overlay.election").LeaderElection, "elect"),
        ("overlay.route", _mod("repro.overlay.routing").Router, "route"),
        ("fleet.run", _mod("repro.fleet.executor").FleetExecutor, "run"),
        ("fleet.store_put", _mod("repro.fleet.store").ResultStore, "put"),
        ("sim.step", sim, "step"),
        ("sim.schedule", sim, "schedule_pooled"),
        ("sim.schedule", sim, "schedule_at"),
        ("workload.inject", _mod("repro.workload.anomalies").AnomalyInjector, "inject"),
        ("serve.handle", _mod("repro.serve.service").AcmService, "handle_request"),
        ("slo.observe", slo, "observe_latency"),
        ("slo.observe", slo, "status"),
    ]


def record_train_inputs(sink: list) -> None:
    """Record ``(dataset digest, model)`` for every ``train_best`` call,
    so the traced run can say how much training repeated itself."""
    cls = _mod("repro.ml.toolchain").F2PMToolchain
    original = cls.train_best

    @functools.wraps(original)
    def recording(self, dataset, rng, model_name=None):
        h = hashlib.sha256(dataset.X.tobytes())
        h.update(dataset.y.tobytes())
        sink.append((h.hexdigest(), model_name))
        return original(self, dataset, rng, model_name)

    cls.train_best = recording


def install_layers(tracer: Tracer, train_sink: list) -> None:
    """Wrap every layer target, then record training inputs outside the
    ``ml.train`` span so hashing them is not charged to the layer."""
    install(tracer, layer_targets())
    record_train_inputs(train_sink)


#: The per-layer metrics, in report order, with their units.
PER_LAYER = (
    ("pcam.predict.calls", "count"),
    ("pcam.predict.self_s", "s"),
    ("pcam.process_era.calls", "count"),
    ("pcam.process_era.self_s", "s"),
    ("pcam.profile.self_s", "s"),
    ("pcam.state_table.calls", "count"),
    ("pcam.state_table.self_s", "s"),
    ("ml.train.calls", "count"),
    ("ml.train.self_s", "s"),
    ("ml.train.useful_ratio", "ratio"),
    ("ml.cv.self_s", "s"),
    ("ml.fit.calls", "count"),
    ("ml.infer.self_s", "s"),
    ("core.era.calls", "count"),
    ("core.era.self_s", "s"),
    ("core.plan.self_s", "s"),
    ("core.rmttf.self_s", "s"),
    ("overlay.elect.self_s", "s"),
    ("overlay.route.calls", "count"),
    ("overlay.route.self_s", "s"),
    ("fleet.jobs", "count"),
    ("fleet.overhead_s", "s"),
    ("fleet.store_put_s", "s"),
    ("sim.events", "count"),
    ("sim.schedule.calls", "count"),
    ("sim.step.self_s", "s"),
    ("workload.inject.calls", "count"),
    ("workload.inject.self_s", "s"),
    ("serve.handle.calls", "count"),
    ("serve.handle.self_s", "s"),
    ("slo.observe.calls", "count"),
    ("slo.observe.self_s", "s"),
    ("serve.wait_p50_ms", "ms"),
    ("serve.loop_lag_p99_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


def layer_metrics(
    spans: dict[str, dict],
    train_inputs: list,
    traced_wall_s: float,
    untraced_wall_s: float,
    fleet_job_wall_s: float = 0.0,
    fleet_jobs: int = 0,
) -> dict[str, float]:
    """Fold span summaries into the per-layer table (serve-only rows
    are filled in by the serve workload).

    ``fleet.run`` spans cover the time the parent waited for its worker
    processes; their in-job time is accounted in the workers' own spans,
    so the fleet layer keeps only ``fleet.overhead_s``: the run's wall
    minus in-job time minus result-store writes.
    """
    def rec(name: str) -> dict:
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind in ("calls", "self_s"):
            out[metric] = rec(base)[kind]
    out["sim.events"] = rec("sim.step")["calls"]
    puts = rec("fleet.store_put")["total_s"]
    overhead = max(0.0, rec("fleet.run")["total_s"] - fleet_job_wall_s - puts)
    out["fleet.jobs"] = fleet_jobs
    out["fleet.overhead_s"] = overhead
    out["fleet.store_put_s"] = puts
    calls = len(train_inputs)
    out["ml.train.useful_ratio"] = (
        len(set(train_inputs)) / calls if calls else 0.0
    )
    covered = sum(
        r["self_s"] for name, r in spans.items() if name != "fleet.run"
    ) + (overhead if fleet_jobs else 0.0)
    out["trace.coverage"] = covered / traced_wall_s if traced_wall_s else 0.0
    out["trace.overhead"] = (
        traced_wall_s / untraced_wall_s - 1.0 if untraced_wall_s else 0.0
    )
    for metric, _unit in PER_LAYER:
        out.setdefault(metric, 0.0)
    return out
