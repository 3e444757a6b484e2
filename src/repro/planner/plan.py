"""Plan data model: ranked region recommendations (the Figure 3 output)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hcpa.aggregate import RegionProfile
from repro.instrument.regions import StaticRegion


@dataclass
class PlanItem:
    """One recommended region."""

    profile: RegionProfile
    #: estimated ideal whole-program speedup from parallelizing this region
    #: alone (Amdahl with SP as the region's parallelism)
    est_program_speedup: float
    #: 'DOALL' or 'DOACROSS' for loops, 'TASK' for functions — the
    #: *dynamic* claim, from measured self-parallelism alone
    classification: str
    #: static DOALL-safety verdict tag stamped on the region
    #: (``"?"`` = unanalyzed); see :mod:`repro.analysis.verdict`
    static_verdict: str = "?"
    #: True when the static analyzer refutes a dynamic DOALL claim
    #: (verdict ``doacross``/``unsafe``): the loop measured as DOALL but a
    #: provable cross-iteration dependence means it must be pipelined.
    refuted: bool = False
    #: True when the parallel execution backend may run this region:
    #: a loop with a safe (doall/reduction) verdict that was not refuted.
    #: The backend's own vet can still refuse it at transform time.
    executable: bool = False
    #: rendered static self-parallelism interval from the cost model
    #: (``""`` = unavailable, e.g. a profile loaded from disk; a trailing
    #: ``~`` marks an imprecise interval)
    static_sp: str = ""
    #: how far the measured SP falls outside the static interval
    #: (0.0 = contained; None = no static bounds available)
    static_sp_delta: float | None = None

    @property
    def effective_classification(self) -> str:
        """The classification after static demotion: a refuted DOALL is
        only safe as DOACROSS."""
        if self.refuted and self.classification == "DOALL":
            return "DOACROSS"
        return self.classification

    @property
    def region(self) -> StaticRegion:
        return self.profile.region

    @property
    def static_id(self) -> int:
        return self.profile.static_id

    @property
    def self_parallelism(self) -> float:
        return self.profile.self_parallelism

    @property
    def coverage(self) -> float:
        return self.profile.coverage

    @property
    def location(self) -> str:
        return self.region.location

    def __repr__(self) -> str:
        return (
            f"<plan item #{self.static_id} {self.region.name} "
            f"SP={self.self_parallelism:.1f} cov={self.coverage:.1%} "
            f"est={self.est_program_speedup:.3f}x>"
        )


@dataclass
class ParallelismPlan:
    """An ordered parallelism plan.

    Items are sorted by decreasing estimated whole-program speedup, the
    order in which the programmer should attack them (§3). ``personality``
    names the planner personality that produced the plan.
    """

    items: list[PlanItem] = field(default_factory=list)
    personality: str = ""
    program_name: str = "<program>"
    #: regions the user excluded in a replanning round
    excluded: frozenset[int] = frozenset()

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index: int) -> PlanItem:
        return self.items[index]

    @property
    def region_ids(self) -> list[int]:
        return [item.static_id for item in self.items]

    @property
    def region_names(self) -> list[str]:
        return [item.region.name for item in self.items]

    def prefix(self, count: int) -> "ParallelismPlan":
        """The first ``count`` recommendations (for marginal-benefit sweeps)."""
        return ParallelismPlan(
            items=self.items[:count],
            personality=self.personality,
            program_name=self.program_name,
            excluded=self.excluded,
        )

    def sort(self) -> None:
        self.items.sort(key=lambda item: -item.est_program_speedup)
