"""Benchmark workloads: a shipped preset, a policy and a horizon each.

The benchmark seed becomes the scenario seed, so one seed always yields
the same fleet, workload and attack stream.  The presets' own seed is 7.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    policy: str
    intervals: int
    overrides: tuple[tuple[str, int], ...] = ()

    def scenario(self, seed: int):
        from oscmc.scenario import load_scenario

        sc = load_scenario(self.preset)
        return dataclasses.replace(
            sc,
            name=self.name,
            policy=self.policy,
            intervals=self.intervals,
            seed=seed,
            workers=1,
            **dict(self.overrides),
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Forecaster-bound: six networks trained every interval on a small
        # fleet whose live-link set stays small.
        Workload("xi200-oscmc", "xi200", "oscmc", 50),
        # Full pipeline.  Consolidation drains servers until none can be
        # emptied; from then on every underloaded interval tries, and
        # copies the placement for, every candidate server.  Depending on
        # the seed that regime starts between intervals 33 and 55, so the
        # horizon is long enough to reach it on every seed.
        Workload("xi1100-oscmc", "xi1100", "oscmc", 100),
        # Large static fleet without surveillance: quadratic authorised-link
        # log at set-up, then link generation, VLAM build and snapshot.
        Workload(
            "fleet2200-wosc",
            "xi1100",
            "wosc",
            50,
            overrides=(("vms", 2200), ("servers", 990)),
        ),
    )
}
