"""Declarative sweep specifications.

A :class:`SweepSpec` names the grid the paper's evaluation implies --
(scenario x policy x load x seed replicate), optionally extended with
chaos campaigns -- and :meth:`~SweepSpec.expand` turns it into the
deterministic, cartesian job list the fleet executor runs.

Seeds derive from one root: each job's seed is
``derive_seed(root_seed, cell-name/repN)`` (see
:func:`repro.sim.rng.derive_seed`), so

* the whole sweep is reproducible from ``(spec, root_seed)``;
* replicates of a cell are statistically independent;
* adding a policy or load level never perturbs the seeds of existing
  cells (each cell's name, not its grid position, feeds the hash).

Expansion order is fixed -- scenario-major, then policy, then load,
then each optional axis in :data:`~repro.fleet.jobs.AXES` order, then
replicate, chaos cells last -- so a job list, its digests, and every
downstream aggregate are identical across processes and machines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.fleet.jobs import (
    AXES,
    POLICY_SCENARIOS,
    JobSpec,
    axis_segments,
    parse_scenario_key,
)
from repro.obs.manifest import RunManifest
from repro.sim.rng import derive_seed

#: Documented default root seed, shared with the CLI (`--seed`).
DEFAULT_ROOT_SEED = 7


@dataclass(frozen=True)
class SweepSpec:
    """The declarative grid of one sweep campaign."""

    scenarios: tuple[str, ...] = ("three-region",)
    policies: tuple[str, ...] = (
        "sensible-routing",
        "available-resources",
        "exploration",
    )
    #: client multipliers applied to every region of each scenario
    loads: tuple[float, ...] = (1.0,)
    #: seed replicates per cell
    replicates: int = 1
    root_seed: int = DEFAULT_ROOT_SEED
    eras: int = 60
    era_s: float = 30.0
    predictor: str = "oracle"
    # the optional axes over the policy cells, one AXES row each
    #: online-lifecycle retrain intervals (eras; 0 = lifecycle off)
    retrain: tuple[int, ...] = (0,)
    #: failure-domain shapes ("flat" or "NxM", see
    #: :func:`repro.topology.domains.parse_domain_shape`)
    domains: tuple[str, ...] = ("flat",)
    #: policy-head specs ("" = static Plan path, "static:<policy>",
    #: "frozen:<path>", or a checkpoint path)
    policy_heads: tuple[str, ...] = ("",)
    #: SLO specs ("" = no SLO, else ``parse_slo_spec`` grammar, e.g.
    #: "p95:0.5+dwell:120")
    slo: tuple[str, ...] = ("",)
    #: chaos campaigns appended as extra cells (policy axis not applied)
    campaigns: tuple[str, ...] = ()
    #: era override for campaign cells; 0 = each campaign's default
    campaign_eras: int = 0

    def __post_init__(self) -> None:
        for scenario in self.scenarios:
            base, _ = parse_scenario_key(scenario)
            if base not in POLICY_SCENARIOS:
                raise ValueError(
                    f"unknown scenario {scenario!r}; "
                    f"expected one of {POLICY_SCENARIOS} "
                    "(optionally with a '+drift<factor>' suffix)"
                )
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if any(load <= 0 for load in self.loads):
            raise ValueError(f"loads must be positive, got {self.loads}")
        for axis in AXES:
            values = getattr(self, axis.sweep)
            if not values:
                raise ValueError(
                    f"{axis.sweep} axis must name at least one value "
                    f"({axis.default!r} = off)"
                )
            for value in values:
                if value != axis.default:
                    axis.validate(value)  # raises ValueError on garbage
        if self.eras < 10:
            raise ValueError("eras must be >= 10 (assessment minimum)")
        if self.cell_count == 0:
            raise ValueError("spec expands to zero jobs")

    def _grid(self) -> tuple[tuple, ...]:
        """The policy-cell axes, outermost first."""
        return (
            self.scenarios,
            self.policies,
            self.loads,
            *(getattr(self, axis.sweep) for axis in AXES),
        )

    @property
    def cell_count(self) -> int:
        """Grid cells (each cell holds ``replicates`` jobs)."""
        return math.prod(map(len, self._grid())) + len(self.campaigns)

    @property
    def job_count(self) -> int:
        return self.cell_count * self.replicates

    def expand(self) -> list[JobSpec]:
        """The full job list, in the fixed deterministic order."""
        jobs: list[JobSpec] = []
        for scenario, policy, load, *values in itertools.product(
            *self._grid()
        ):
            # default axis values add no name segment, so widening an
            # axis never perturbs the seeds (or store digests) of
            # existing cells
            cell = "/".join(
                [scenario, policy, f"load{load:g}"]
                + axis_segments(values, raw=True)
            )
            axes = {axis.field: value for axis, value in zip(AXES, values)}
            for rep in range(self.replicates):
                jobs.append(
                    JobSpec(
                        kind="policy",
                        scenario=scenario,
                        policy=policy,
                        load=float(load),
                        seed=derive_seed(self.root_seed, f"{cell}/rep{rep}"),
                        replicate=rep,
                        eras=self.eras,
                        era_s=self.era_s,
                        predictor=self.predictor,
                        **axes,
                    )
                )
        for campaign in self.campaigns:
            for rep in range(self.replicates):
                cell = f"chaos/{campaign}/rep{rep}"
                jobs.append(
                    JobSpec(
                        kind="chaos",
                        scenario=campaign,
                        policy="",
                        load=1.0,
                        seed=derive_seed(self.root_seed, cell),
                        replicate=rep,
                        eras=self.campaign_eras,
                        era_s=self.era_s,
                    )
                )
        return jobs

    def config(self) -> dict:
        """JSON-able form of the whole spec (digested into the sweep
        manifest and embedded in every aggregate artifact)."""
        config = {
            "scenarios": list(self.scenarios),
            "policies": list(self.policies),
            "loads": [float(x) for x in self.loads],
            "replicates": self.replicates,
            "root_seed": self.root_seed,
            "eras": self.eras,
            "era_s": self.era_s,
            "predictor": self.predictor,
            "campaigns": list(self.campaigns),
            "campaign_eras": self.campaign_eras,
        }
        for axis in AXES:
            values = getattr(self, axis.sweep)
            if values != (axis.default,):
                # keyed only when the axis is used: historical sweep
                # manifests keep their digests
                config[axis.sweep] = [axis.coerce(v) for v in values]
        return config

    def manifest(self) -> RunManifest:
        """Sweep-level provenance for reports and CSV exports."""
        return RunManifest.build(
            seed=self.root_seed,
            config=self.config(),
            cells=self.cell_count,
            jobs=self.job_count,
        )


def listing(jobs: list[JobSpec]) -> str:
    """The ``--dry-run`` job table: order, label, seed, digest."""
    lines = [f"{'#':>4}  {'digest':<16} {'seed':>20}  label"]
    for i, job in enumerate(jobs):
        lines.append(
            f"{i:>4}  {job.digest:<16} {job.seed:>20}  {job.label}"
        )
    return "\n".join(lines)
