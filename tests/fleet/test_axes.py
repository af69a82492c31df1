"""Every optional sweep axis honours the same contract.

One test per :data:`repro.fleet.jobs.AXES` row: widening a sweep along
the axis never perturbs existing cells (labels, seeds, digests); a
non-default value shows up in the cell name, the label, the job config
and the sweep config, and a default value in none of them; job configs
round-trip; and aggregation keeps cells that differ only in this axis
apart.
"""

from __future__ import annotations

import pytest

from repro.fleet.aggregate import CellStats, aggregate, cell_key
from repro.fleet.jobs import AXES, JobSpec
from repro.fleet.spec import SweepSpec
from repro.sim.rng import derive_seed

#: field -> (non-default value, cell-name segment, label segment)
SAMPLES = {
    "online_retrain": (8, "retrain8", "retrain8"),
    "domains": ("2x2", "domains2x2", "domains2x2"),
    "policy_head": (
        "frozen:/deep/dir/head-abc.json",
        "head:frozen:/deep/dir/head-abc.json",
        "head:frozen:head-abc.json",
    ),
    "slo": (
        "p95:0.5+dwell:120",
        "slo:p95:0.5+dwell:120",
        "slo:p95:0.5+dwell:120",
    ),
}

ROOT_SEED = 11
BASE_CELL = "two-region/uniform/load0.5"


def _spec(**overrides) -> SweepSpec:
    kwargs = dict(
        scenarios=("two-region",),
        policies=("uniform",),
        loads=(0.5,),
        replicates=2,
        root_seed=ROOT_SEED,
        eras=12,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def _job(**overrides) -> JobSpec:
    kwargs = dict(
        kind="policy",
        scenario="two-region",
        policy="uniform",
        load=0.5,
        seed=1,
        replicate=0,
        eras=12,
    )
    kwargs.update(overrides)
    return JobSpec(**kwargs)


def test_every_axis_has_a_sample():
    assert [axis.field for axis in AXES] == list(SAMPLES)


@pytest.mark.parametrize("axis", AXES, ids=lambda axis: axis.field)
class TestAxisContract:
    def _widened(self, axis) -> SweepSpec:
        value = SAMPLES[axis.field][0]
        return _spec(**{axis.sweep: (axis.default, value)})

    def test_widening_keeps_existing_identities(self, axis):
        before = {j.label: (j.seed, j.digest) for j in _spec().expand()}
        widened = self._widened(axis).expand()
        after = {j.label: (j.seed, j.digest) for j in widened}
        assert len(after) == 2 * len(before)
        for label, identity in before.items():
            assert after[label] == identity

    def test_value_named_only_when_non_default(self, axis):
        value, name_segment, label_segment = SAMPLES[axis.field]
        jobs = self._widened(axis).expand()
        for job in jobs:
            rep = f"rep{job.replicate}"
            if getattr(job, axis.field) == axis.default:
                cell = BASE_CELL
                assert label_segment not in job.label
                assert axis.field not in job.config()
            else:
                assert getattr(job, axis.field) == value
                cell = f"{BASE_CELL}/{name_segment}"
                assert job.label == f"policy/{BASE_CELL}/{label_segment}/{rep}"
                assert job.config()[axis.field] == value
            # the cell name (raw value, not the label form) seeds the job
            assert job.seed == derive_seed(ROOT_SEED, f"{cell}/{rep}")
        assert len({j.seed for j in jobs}) == len(jobs)

    def test_sweep_config_keyed_only_when_axis_used(self, axis):
        value = SAMPLES[axis.field][0]
        assert axis.sweep not in _spec().config()
        widened = self._widened(axis)
        assert widened.config()[axis.sweep] == [axis.default, value]
        assert widened.cell_count == 2 * _spec().cell_count

    def test_from_config_round_trips(self, axis):
        job = _job(**{axis.field: SAMPLES[axis.field][0]})
        assert JobSpec.from_config(job.config()) == job
        assert JobSpec.from_config(_job().config()) == _job()

    def test_cell_key_separates_the_axis(self, axis):
        value = SAMPLES[axis.field][0]
        plain, valued = _job(), _job(seed=2, **{axis.field: value})
        assert cell_key(plain) != cell_key(valued)
        assert cell_key(plain)[:4] == cell_key(valued)[:4]
        assert cell_key(_job(seed=3, replicate=1)) == cell_key(plain)

    def test_cell_stats_label_carries_the_value(self, axis):
        value, _, label_segment = SAMPLES[axis.field]
        jobs = [_job(), _job(seed=2, **{axis.field: value})]
        plain, valued = aggregate(jobs, [{"m": 1.0}, {"m": 2.0}])
        assert getattr(valued, axis.field) == value
        assert valued.label == f"{BASE_CELL}/{label_segment}"
        assert plain.label == BASE_CELL
        direct = CellStats(
            kind="policy",
            scenario="two-region",
            policy="uniform",
            load=0.5,
            n=1,
            **{axis.field: value},
        )
        assert direct.label == valued.label

    def test_empty_axis_rejected(self, axis):
        with pytest.raises(ValueError, match=axis.sweep):
            _spec(**{axis.sweep: ()})
