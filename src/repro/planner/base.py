"""Planner personality base classes (§5).

A personality bundles the constraints of a parallelization system and target
machine into a handful of architecture-independent parameters — the paper
found three thresholds suffice for OpenMP (§5.1): a minimum
self-parallelism, and minimum ideal whole-program speedups for DOALL and
DOACROSS regions (DOACROSS costs more synchronization and programmer effort,
so it must promise more).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.verdict import tag_is_safe, tag_refutes_doall
from repro.hcpa.aggregate import AggregatedProfile, RegionProfile
from repro.instrument.regions import RegionKind
from repro.planner.plan import ParallelismPlan, PlanItem
from repro.planner.speedup import estimate_program_speedup


@dataclass(frozen=True)
class PlannerPersonality:
    """Threshold parameters for a planner."""

    name: str
    #: minimum self-parallelism for a region to be worth exploiting
    min_self_parallelism: float = 5.0
    #: minimum ideal whole-program speedup for a DOALL region, in percent
    min_doall_speedup_pct: float = 0.1
    #: minimum ideal whole-program speedup for a DOACROSS region, in percent
    min_doacross_speedup_pct: float = 3.0
    #: whether the system exploits nested parallel regions profitably
    allow_nested: bool = False
    #: restrict recommendations to loop regions (OpenMP's model)
    loops_only: bool = True
    #: optional cap on exploitable SP (e.g. core count); the paper found a
    #: cap degrades plan quality, so personalities default to None
    sp_cap: float | None = None
    #: minimum average work per dynamic region instance. Synchronization and
    #: data-movement costs bound the smallest parallel region that can attain
    #: speedup (§2.3); this is how the personality encodes "the amount of
    #: work in a region should be large enough to amortize these costs"
    #: (§5.1, the ammp/art reduction-loop observation).
    min_instance_work: float = 5000.0

    def with_overrides(self, **kwargs) -> "PlannerPersonality":
        return replace(self, **kwargs)


class Planner:
    """Base planner: candidate filtering + ranking shared by personalities."""

    def __init__(self, personality: PlannerPersonality):
        self.personality = personality

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def classify(self, profile: RegionProfile) -> str:
        if profile.region.kind is RegionKind.FUNCTION:
            return "TASK"
        return "DOALL" if profile.is_doall else "DOACROSS"

    def candidates(
        self, aggregated: AggregatedProfile, excluded: frozenset[int]
    ) -> list[RegionProfile]:
        """Plannable regions that survive the personality's filters."""
        out: list[RegionProfile] = []
        for profile in aggregated.plannable():
            if profile.static_id in excluded:
                continue
            if self.personality.loops_only and not profile.region.is_loop:
                continue
            if not self.eligible(profile, aggregated.total_work):
                continue
            out.append(profile)
        return out

    def eligible(self, profile: RegionProfile, total_work: int) -> bool:
        personality = self.personality
        sp = profile.self_parallelism
        if personality.sp_cap is not None:
            sp = min(sp, personality.sp_cap)
        if sp < personality.min_self_parallelism:
            return False
        if profile.average_work < personality.min_instance_work:
            return False
        speedup = estimate_program_speedup(
            profile, total_work, personality.sp_cap
        )
        gain_pct = (speedup - 1.0) * 100.0
        threshold = (
            personality.min_doall_speedup_pct
            if self.classify(profile) == "DOALL"
            else personality.min_doacross_speedup_pct
        )
        return gain_pct >= threshold

    def make_item(
        self, profile: RegionProfile, total_work: int
    ) -> PlanItem:
        classification = self.classify(profile)
        verdict = profile.region.verdict
        refuted = classification == "DOALL" and tag_refutes_doall(verdict)
        # The execution backend can act on a loop the analyzer proved
        # safe.
        executable = (
            profile.region.is_loop and tag_is_safe(verdict) and not refuted
        )
        cost = getattr(profile.region, "static_cost", None)
        static_sp = ""
        static_sp_delta = None
        if cost is not None:
            static_sp = cost.render_sp()
            measured = profile.self_parallelism
            if cost.sp.contains(measured):
                static_sp_delta = 0.0
            elif measured < cost.sp.lo:
                static_sp_delta = cost.sp.lo - measured
            else:
                static_sp_delta = measured - cost.sp.hi
        return PlanItem(
            profile=profile,
            est_program_speedup=estimate_program_speedup(
                profile, total_work, self.personality.sp_cap
            ),
            classification=classification,
            static_verdict=verdict,
            # Eligibility and ranking stay purely dynamic (the paper's
            # model); the static analyzer annotates, and demotes a DOALL
            # claim it can refute with a dependence witness.
            refuted=refuted,
            executable=executable,
            static_sp=static_sp,
            static_sp_delta=static_sp_delta,
        )

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------

    def plan(
        self,
        aggregated: AggregatedProfile,
        excluded: frozenset[int] | set[int] = frozenset(),
    ) -> ParallelismPlan:
        """Produce an ordered plan; subclasses implement selection."""
        raise NotImplementedError

    def replan_excluding(
        self,
        aggregated: AggregatedProfile,
        plan: ParallelismPlan,
        newly_excluded: set[int],
    ) -> ParallelismPlan:
        """The paper's exclusion-list workflow (§3): the user marks regions
        they cannot or will not parallelize and receives a fresh optimal
        plan without them."""
        excluded = frozenset(plan.excluded | set(newly_excluded))
        return self.plan(aggregated, excluded)
