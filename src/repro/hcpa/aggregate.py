"""Per-static-region aggregation over the compressed profile.

Operates directly on the dictionary — each character is processed once and
weighted by how many dynamic regions it stands for — which is the paper's
decompression-free planning-time traversal (§4.4: *processing each character
therefore corresponds to processing thousands of dynamic regions*).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hcpa.self_parallelism import self_work
from repro.hcpa.summaries import ParallelismProfile
from repro.instrument.regions import RegionKind, StaticRegion

#: A loop is classified DOALL when its self-parallelism is equivalent to its
#: iteration count (§5.1); "equivalent" uses this relative tolerance.
DOALL_RATIO = 0.7


@dataclass
class RegionProfile:
    """Aggregated dynamic behaviour of one static region."""

    region: StaticRegion
    #: dynamic instances observed
    instances: int = 0
    #: total work across instances (inclusive of children)
    work: int = 0
    #: total critical-path length across instances
    cp: int = 0
    #: Σ instances (Σ children cp + self-work): numerator of aggregate SP
    sp_numerator: float = 0.0
    #: total self-work across instances
    self_work: int = 0
    #: Σ loop iterations (loop regions only)
    iterations: int = 0
    #: fraction of whole-program work spent in this region
    coverage: float = 0.0

    @property
    def static_id(self) -> int:
        return self.region.id

    @property
    def kind(self) -> RegionKind:
        return self.region.kind

    @property
    def self_parallelism(self) -> float:
        """Instance-weighted aggregate SP (eq. 1 summed over instances)."""
        if self.cp <= 0:
            return 1.0
        return max(1.0, self.sp_numerator / self.cp)

    @property
    def total_parallelism(self) -> float:
        """Classic CPA parallelism, aggregated the same way."""
        if self.cp <= 0:
            return 1.0
        return max(1.0, self.work / self.cp)

    @property
    def average_iterations(self) -> float:
        if not self.region.is_loop or self.instances == 0:
            return 0.0
        return self.iterations / self.instances

    @property
    def is_doall(self) -> bool:
        """True when SP is equivalent to the iteration count (§5.1)."""
        if not self.region.is_loop:
            return False
        avg = self.average_iterations
        if avg <= 1.0:
            return False
        return self.self_parallelism >= DOALL_RATIO * avg

    @property
    def average_work(self) -> float:
        return self.work / self.instances if self.instances else 0.0

    def __repr__(self) -> str:
        return (
            f"<profile #{self.static_id} {self.region.name} "
            f"work={self.work} SP={self.self_parallelism:.1f} "
            f"cov={self.coverage:.1%}>"
        )


@dataclass
class AggregatedProfile:
    """All region profiles of a run plus the observed dynamic nesting."""

    profiles: dict[int, RegionProfile]
    #: the compressed profile this aggregation came from (planners traverse
    #: its dictionary directly)
    source_profile: "ParallelismProfile | None" = None
    #: observed dynamic parent -> children edges between *static* regions
    #: (includes nesting created by calls, unlike the lexical tree)
    children: dict[int, set[int]] = field(default_factory=dict)
    root_static_id: int = -1
    total_work: int = 0

    def profile(self, static_id: int) -> RegionProfile:
        return self.profiles[static_id]

    def children_of(self, static_id: int) -> set[int]:
        return self.children.get(static_id, set())

    def descendants_of(self, static_id: int) -> set[int]:
        """Transitive dynamic descendants (cycle-safe for recursion)."""
        out: set[int] = set()
        stack = list(self.children_of(static_id))
        while stack:
            current = stack.pop()
            if current in out:
                continue
            out.add(current)
            stack.extend(self.children_of(current))
        return out

    def executed_regions(self) -> list[RegionProfile]:
        """Profiles of regions that actually ran, root first, by id."""
        return [self.profiles[k] for k in sorted(self.profiles)]

    def plannable(self) -> list[RegionProfile]:
        """Executed loop and function profiles (no loop bodies)."""
        return [p for p in self.executed_regions() if not p.region.is_body]


def aggregate_profile(profile: ParallelismProfile) -> AggregatedProfile:
    """Aggregate a compressed profile into per-static-region statistics
    in one Python pass over the dictionary."""
    dictionary = profile.dictionary
    entries = dictionary.entries
    counts = profile.char_counts()
    regions = profile.regions

    accumulators: dict[int, RegionProfile] = {}
    children_edges: dict[int, set[int]] = {}

    for char, entry in enumerate(entries):
        count = counts[char]
        if count == 0:
            continue
        region = regions.region(entry.static_id)
        acc = accumulators.get(entry.static_id)
        if acc is None:
            acc = RegionProfile(region=region)
            accumulators[entry.static_id] = acc

        children_cp = 0
        children_work = 0
        body_instances = 0
        for child_char, child_count in entry.children:
            child_entry = entries[child_char]
            children_cp += child_count * child_entry.cp
            children_work += child_count * child_entry.work
            children_edges.setdefault(entry.static_id, set()).add(
                child_entry.static_id
            )
            if regions.region(child_entry.static_id).is_body:
                body_instances += child_count

        sw = self_work(entry.work, [children_work])
        acc.instances += count
        acc.work += count * entry.work
        acc.cp += count * entry.cp
        acc.self_work += count * sw
        acc.sp_numerator += count * (children_cp + sw)
        if region.is_loop:
            acc.iterations += count * body_instances

    root_entry = profile.root_entry
    total_work = root_entry.work if root_entry.work > 0 else 1
    for acc in accumulators.values():
        acc.coverage = acc.work / total_work

    return AggregatedProfile(
        profiles=accumulators,
        source_profile=profile,
        children=children_edges,
        root_static_id=root_entry.static_id,
        total_work=root_entry.work,
    )

