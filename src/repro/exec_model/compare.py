"""Measured-vs-predicted speedup comparison (falsifying Fig. 6b).

The planner's speedup estimates are Amdahl bounds with self-parallelism
as the region's parallelism; the parallel backend produces a *measured*
wall-clock speedup.  This module puts the two side by side, capping the
prediction at the executed worker count (an ideal bound at SP = 4608
is not falsifiable on a 4-lane pool) and restricting it to the sites
that actually ran in parallel.

The CI gate (scripts/check_parallel.py) asserts two directions:

* at least one SAFE_DOALL benchmark measures a real speedup (> 1), and
* measured never *exceeds* predicted by more than a tolerance — the
  prediction is an upper bound, so measured > predicted × (1 + tol)
  means the model (or the measurement) is broken.

Measured below predicted is expected and unbounded: interpreter-level
chunk dispatch pays serialization, shipping, and merge costs the ideal
model ignores (see docs/PARALLEL.md, "Methodology").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hcpa.aggregate import AggregatedProfile
from repro.parallel.executor import ExecutionOutcome
from repro.planner.speedup import combined_speedup, saved_work
from repro.report.tables import Table

#: measured may exceed predicted by at most this fraction before the CI
#: gate fails (timer jitter on sub-millisecond serial baselines)
DEFAULT_TOLERANCE = 0.25


@dataclass(frozen=True)
class SpeedupComparison:
    """Predicted vs measured whole-program speedup for one execution."""

    program_name: str
    workers: int
    predicted_speedup: float
    measured_speedup: float
    #: region names of the sites that executed in parallel
    executed_sites: tuple[str, ...]
    #: True when the parallel run completed and verified against serial
    executed: bool

    def within_tolerance(self, tolerance: float = DEFAULT_TOLERANCE) -> bool:
        """Measured does not beat the ideal bound by more than ``tolerance``."""
        return self.measured_speedup <= self.predicted_speedup * (
            1.0 + tolerance
        )

    def render(self) -> str:
        table = Table(headers=["Program", "Workers", "Predicted", "Measured", "Sites"])
        table.add_row(
            self.program_name,
            self.workers,
            f"{self.predicted_speedup:.2f}x",
            f"{self.measured_speedup:.2f}x" if self.executed else "serial",
            ", ".join(self.executed_sites) or "-",
        )
        return table.render()


def predicted_speedup(
    aggregated: AggregatedProfile,
    region_ids,
    workers: int,
) -> float:
    """Ideal whole-program speedup from parallelizing ``region_ids``
    with self-parallelism capped at the worker count."""
    sp_cap = float(max(1, workers))
    saved = 0.0
    for region_id in region_ids:
        profile = aggregated.profiles.get(region_id)
        if profile is None:
            continue
        saved += saved_work(profile, sp_cap=sp_cap)
    return combined_speedup(saved, aggregated.total_work)


def compare_measured_predicted(
    aggregated: AggregatedProfile,
    outcome: ExecutionOutcome,
    program_name: str = "<program>",
) -> SpeedupComparison:
    """Build the comparison for one :class:`ExecutionOutcome`.

    Prediction covers exactly the sites that dispatched at least one
    worker chunk; sites the vet refused (or that fell below the trip
    threshold) contribute nothing to either side.
    """
    executed_ids = [
        stats.spec.region_id
        for stats in outcome.site_stats
        if stats.dispatched_chunks > 0
    ]
    predicted = predicted_speedup(aggregated, executed_ids, outcome.workers)
    names = tuple(
        stats.spec.region_name
        for stats in outcome.site_stats
        if stats.dispatched_chunks > 0
    )
    return SpeedupComparison(
        program_name=program_name,
        workers=outcome.workers,
        predicted_speedup=predicted if outcome.executed else 1.0,
        measured_speedup=outcome.measured_speedup,
        executed_sites=names,
        executed=outcome.executed,
    )
