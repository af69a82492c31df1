"""The shared Plan-phase seam: `PlanStep` over `compute_fractions` and
`renormalize_live`.

The helpers replaced inlined ladders in the fluid loop, the DES loop,
and the serve path, and `PlanStep` now owns the whole Analyze -> Plan
decision for all three; these tests pin the bit-identity contract that
made that refactor safe, the step's known answers, and that every
runtime goes through it.
"""

import numpy as np
import pytest

from repro.core.degradation import DegradationConfig
from repro.core.plan import PlanStep
from repro.core.policy import (
    compute_fractions,
    get_policy,
    normalize_fractions,
    renormalize_live,
)

PAPER_POLICIES = ("sensible-routing", "available-resources", "exploration")


def _random_inputs(rng, n):
    prev = rng.dirichlet(np.ones(n))
    rmttf = rng.uniform(10.0, 900.0, size=n)
    rate = rng.uniform(1.0, 400.0)
    return prev, rmttf, rate


class TestComputeFractions:
    @pytest.mark.parametrize("name", PAPER_POLICIES)
    def test_normal_mode_bit_identical_to_policy_compute(self, name):
        """mode="normal" is POLICY() itself -- same floats, not close."""
        rng = np.random.default_rng(7)
        policy = get_policy(name)
        for n in (2, 3, 5):
            for _ in range(20):
                prev, rmttf, rate = _random_inputs(rng, n)
                direct = policy.compute(prev, rmttf, rate)
                via_seam = compute_fractions(policy, prev, rmttf, rate)
                assert np.array_equal(direct, via_seam)

    def test_hold_mode_returns_previous(self):
        policy = get_policy("sensible-routing")
        prev = np.array([0.5, 0.3, 0.2])
        held = compute_fractions(
            policy, prev, np.array([1.0, 2.0, 3.0]), 10.0, mode="hold"
        )
        assert np.array_equal(held, prev)
        assert held.dtype == float

    def test_fallback_mode_normalizes_capacities(self):
        policy = get_policy("sensible-routing")
        caps = np.array([30.0, 60.0, 10.0])
        got = compute_fractions(
            policy,
            np.full(3, 1 / 3),
            np.zeros(3),
            0.0,
            mode="fallback",
            capacities=caps,
        )
        expected = normalize_fractions(caps, policy.min_fraction)
        assert np.array_equal(got, expected)

    def test_fallback_requires_capacities(self):
        policy = get_policy("sensible-routing")
        with pytest.raises(ValueError, match="capacities"):
            compute_fractions(
                policy, np.full(2, 0.5), np.ones(2), 1.0, mode="fallback"
            )

    def test_unknown_mode_rejected(self):
        policy = get_policy("sensible-routing")
        with pytest.raises(ValueError, match="unknown plan mode"):
            compute_fractions(
                policy, np.full(2, 0.5), np.ones(2), 1.0, mode="panic"
            )


class TestRenormalizeLive:
    def test_all_alive_returns_plan_unchanged(self):
        plan = np.array([0.2, 0.5, 0.3])
        got = renormalize_live(plan, np.array([True, True, True]))
        assert np.array_equal(got, plan)

    def test_dead_region_zeroed_and_renormalized(self):
        got = renormalize_live(
            np.array([0.2, 0.5, 0.3]), np.array([True, False, True])
        )
        assert got[1] == 0.0
        assert got == pytest.approx([0.4, 0.0, 0.6])
        assert got.sum() == pytest.approx(1.0)

    def test_no_region_alive_returns_none(self):
        assert (
            renormalize_live(
                np.array([0.5, 0.5]), np.array([False, False])
            )
            is None
        )

    def test_all_mass_on_dead_regions_goes_uniform_over_live(self):
        got = renormalize_live(
            np.array([1.0, 0.0, 0.0]), np.array([False, True, True])
        )
        assert np.array_equal(got, np.array([0.0, 0.5, 0.5]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            renormalize_live(np.array([0.5, 0.5]), np.array([True]))


class TestPlanStep:
    """Known answers of the shared Analyze -> Plan step."""

    REGIONS = ["a", "b", "c"]

    def make(self, **kw):
        return PlanStep(self.REGIONS, get_policy("available-resources"), **kw)

    def test_nan_report_dropped(self):
        step = self.make(degradation=DegradationConfig(stale_after_eras=0))
        nan = float("nan")
        vec, mode = step.observe(0, {"a": nan, "b": nan, "c": 40.0})
        assert np.array_equal(vec, [0.0, 0.0, 40.0])
        assert list(step.aggregator.snapshot()) == ["c"]
        # NaN reports are missing reports: one fresh region of three
        # is no quorum
        assert mode == "hold"

    def test_unknown_region_reads_zero_until_first_report(self):
        step = self.make(beta=0.5)
        vec, _ = step.observe(0, {"b": 100.0, "c": 50.0})
        assert np.array_equal(vec, [0.0, 100.0, 50.0])
        vec, _ = step.observe(1, {"a": 30.0, "b": 200.0})
        # first report initialises Eq. (1); later ones are EWMA-folded;
        # a silent region keeps its last value
        assert np.array_equal(vec, [30.0, 150.0, 50.0])

    def test_quorum_loss_walks_hold_then_fallback(self):
        step = self.make(
            degradation=DegradationConfig(
                stale_after_eras=0, fallback_after_eras=2
            )
        )
        full = {"a": 10.0, "b": 20.0, "c": 30.0}
        modes = [step.observe(0, full)[1]]
        modes += [step.observe(era, {"a": 10.0})[1] for era in (1, 2, 3)]
        assert modes == ["normal", "hold", "fallback", "fallback"]
        assert step.observe(4, full)[1] == "normal"

    def test_normal_plan_is_compute_fractions(self):
        step = self.make()
        prev = np.array([0.5, 0.3, 0.2])
        vec = np.array([100.0, 200.0, 300.0])
        got = step.plan(prev, vec, "normal", 40.0, lambda: None)
        assert np.array_equal(
            got, compute_fractions(step.policy, prev, vec, 40.0)
        )

    def test_idle_era_returns_prev(self):
        step = self.make()
        prev = np.array([0.5, 0.3, 0.2])
        assert step.plan(prev, np.ones(3), "normal", 0.0, None) is prev

    def test_all_regions_dead_returns_none(self):
        step = self.make()
        got = step.plan(
            np.full(3, 1 / 3), np.ones(3), "normal", 5.0, None,
            alive=np.zeros(3, dtype=bool),
        )
        assert got is None

    def test_one_dead_region_zeroed(self):
        step = self.make()
        prev = np.full(3, 1 / 3)
        vec = np.array([100.0, 200.0, 300.0])
        alive = np.array([True, False, True])
        got = step.plan(prev, vec, "normal", 5.0, None, alive=alive)
        assert got[1] == 0.0
        assert got.sum() == pytest.approx(1.0)
        assert np.array_equal(
            got,
            renormalize_live(
                compute_fractions(step.policy, prev, vec, 5.0), alive
            ),
        )

    def test_capacities_called_only_in_fallback(self):
        step = self.make()
        calls = []

        def capacities():
            calls.append(1)
            return np.array([30.0, 60.0, 10.0])

        prev = np.full(3, 1 / 3)
        for mode in ("normal", "hold"):
            step.plan(prev, np.ones(3), mode, 5.0, capacities)
        step.plan(prev, np.ones(3), "fallback", 0.0, capacities)  # idle
        assert calls == []
        got = step.plan(prev, np.ones(3), "fallback", 5.0, capacities)
        assert calls == [1]
        assert np.array_equal(
            got,
            normalize_fractions(
                np.array([30.0, 60.0, 10.0]), step.policy.min_fraction
            ),
        )


class TestEveryRuntimeUsesPlanStep:
    """The fluid loop, the DES loop and serve's Plan phase each call
    ``observe`` and ``plan`` exactly once per era."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        for name in ("observe", "plan"):
            original = getattr(PlanStep, name)

            def spy(self, *args, _name=name, _original=original, **kw):
                seen.append(_name)
                return _original(self, *args, **kw)

            monkeypatch.setattr(PlanStep, name, spy)
        return seen

    def test_fluid_loop(self, calls):
        from repro.core import AcmManager, RegionSpec

        loop = AcmManager(
            regions=[
                RegionSpec("region1", "m3.medium", 6, 4, 128),
                RegionSpec("region3", "private.small", 4, 3, 64),
            ],
            policy="available-resources",
            seed=3,
        ).loop
        loop.run(3)
        assert calls == ["observe", "plan"] * 3

    def test_des_loop(self, calls):
        from tests.core.test_des_loop_bugfixes import build_loop

        build_loop().run(3)
        assert calls == ["observe", "plan"] * 3

    def test_serve_plan_phase(self, calls):
        from repro.experiments.scenarios import two_region_scenario
        from repro.serve import AcmService, ServeConfig, WallClock

        service = AcmService(
            two_region_scenario(), WallClock(speed=100.0), ServeConfig(seed=7)
        )
        for era in range(3):
            service._era_tick()
            service._plan_phase(service._leader_name, era)
        assert calls == ["observe", "plan"] * 3
