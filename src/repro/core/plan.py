"""The leader's Analyze -> Plan step (Algorithms 2-3), shared by the fluid
loop, the DES loop and the wall-clock serve path: each gathers the era's
reports and installs the new fractions its own way, and decides in
between with :meth:`PlanStep.observe` then :meth:`PlanStep.plan`.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.core.degradation import DegradationConfig, DegradationTracker
from repro.core.policy import Policy, compute_fractions, renormalize_live
from repro.core.rmttf import RmttfAggregator


class PlanStep:
    """Eq. (1), the degradation ladder and ``POLICY()`` of one leader."""

    def __init__(
        self,
        regions: list[str],
        policy: Policy,
        beta: float = 0.5,
        degradation: DegradationConfig | None = None,
        telemetry=None,
    ) -> None:
        self.regions = list(regions)
        self.policy = policy
        self.aggregator = RmttfAggregator(beta)
        self.degradation = DegradationTracker(
            self.regions, degradation, telemetry=telemetry
        )

    def observe(
        self, era: int, reports: Mapping[str, float]
    ) -> tuple[np.ndarray, str]:
        """Fold one era's received reports; returns ``(rmttf_vec, mode)``.

        A non-finite report (a corrupted predictor's NaN) counts as
        missing; a region never heard from with a finite report reads 0.0.
        """
        received = {r: v for r, v in reports.items() if np.isfinite(v)}
        self.aggregator.update_all(received)
        known = self.aggregator.snapshot()
        rmttf_vec = np.array([known.get(r, 0.0) for r in self.regions])
        return rmttf_vec, self.degradation.observe(era, received)

    def plan(
        self,
        prev: np.ndarray,
        rmttf_vec: np.ndarray,
        mode: str,
        lam: float,
        capacities: Callable[[], np.ndarray],
        alive: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """The era's new fractions; ``None`` if ``alive`` is all False.

        An idle era (``lam <= 0``) holds ``prev``; ``capacities`` is called
        only in ``fallback`` mode; ``alive``, when given, zeroes dead
        regions and renormalises over the live ones.
        """
        if lam <= 0:
            return prev
        planned = compute_fractions(
            self.policy,
            prev,
            rmttf_vec,
            lam,
            mode=mode,
            capacities=capacities() if mode == "fallback" else None,
        )
        return planned if alive is None else renormalize_live(planned, alive)
