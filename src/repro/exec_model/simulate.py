"""Simulated execution of a parallelization plan over a compressed profile.

``simulate_plan`` walks the dictionary (memoized per character — the same
decompression-free traversal the planner uses) and computes the program's
execution time if the plan's regions were parallelized:

* a planned region executing outside any parallel context runs in
  ``fork + max(cp, work/P) + scheduling + (DOACROSS sync)`` cycles;
* everything dynamically nested inside a parallel region is serialized
  (OpenMP semantics on the paper's testbed), and *planned* regions in that
  position still pay a nested-entry penalty — the reason the paper's OpenMP
  planner forbids nested selections;
* unplanned regions contribute their children's times plus self-work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec_model.machine import CORE_SWEEP, DEFAULT_MACHINE, MachineModel
from repro.hcpa.aggregate import DOALL_RATIO
from repro.hcpa.summaries import ParallelismProfile
from repro.obs.trace import get_tracer


@dataclass
class SimulationResult:
    """Outcome of simulating one plan on one machine configuration."""

    time: float
    serial_time: float
    machine: MachineModel
    plan: frozenset[int] = frozenset()

    @property
    def speedup(self) -> float:
        if self.time <= 0:
            return float("inf")
        return self.serial_time / self.time

    @property
    def time_reduction(self) -> float:
        """Fraction of serial execution time eliminated."""
        if self.serial_time <= 0:
            return 0.0
        return max(0.0, 1.0 - self.time / self.serial_time)


def simulate_plan(
    profile: ParallelismProfile,
    plan_regions,
    machine: MachineModel = DEFAULT_MACHINE,
) -> SimulationResult:
    """Simulate executing ``profile``'s program with ``plan_regions``
    parallelized on ``machine``."""
    plan = frozenset(plan_regions)
    entries = profile.dictionary.entries
    regions = profile.regions
    cores = machine.cores

    # memo[(char, inside_parallel)] -> simulated time
    memo: dict[tuple[int, bool], float] = {}

    def region_time(char: int, inside: bool) -> float:
        key = (char, inside)
        cached = memo.get(key)
        if cached is not None:
            return cached
        entry = entries[char]
        children_work = 0
        for child_char, count in entry.children:
            children_work += count * entries[child_char].work
        self_time = max(0, entry.work - children_work)

        planned = entry.static_id in plan
        if planned and inside:
            # Nested parallel construct: serialized, but entering it is not
            # free. Children keep their serial (inside) times.
            time = float(machine.nested_penalty) + self_time
            for child_char, count in entry.children:
                time += count * region_time(child_char, True)
        elif planned and cores > 1:
            # The parallel region proper. Workers execute iterations /
            # subregions concurrently; everything *below* runs serially, so
            # the schedule is bounded by the longest child as well as by
            # perfect balance — and never beats the measured critical path.
            serial_inside = self_time
            longest_child = 0.0
            for child_char, count in entry.children:
                child_time = region_time(child_char, True)
                serial_inside += count * child_time
                if child_time > longest_child:
                    longest_child = child_time
            span = max(min(entry.cp, serial_inside), longest_child)
            time = max(span, serial_inside / cores)
            n_children = entry.num_children
            time += machine.fork_cost
            time += machine.chunk_cost * min(max(n_children, 1), cores)
            if _is_doacross(entry, entries, regions):
                time += machine.doacross_sync * n_children
            if n_children and serial_inside / cores < machine.migration_cost:
                # Fine-grained region: per-worker chunks too small to
                # amortize data movement across sockets.
                time += machine.migration_cost * min(n_children, cores)
        else:
            time = float(self_time)
            for child_char, count in entry.children:
                time += count * region_time(child_char, inside)
        memo[key] = time
        return time

    serial_time = float(profile.root_entry.work)
    time = region_time(profile.root_char, False)
    return SimulationResult(
        time=time, serial_time=serial_time, machine=machine, plan=plan
    )


def _is_doacross(entry, entries, regions) -> bool:
    """DOACROSS = a loop whose SP falls short of its iteration count."""
    region = regions.region(entry.static_id)
    if not region.is_loop:
        return False
    n = entry.num_children
    if n <= 1 or entry.cp <= 0:
        return False
    children_cp = 0
    children_work = 0
    for child_char, count in entry.children:
        child = entries[child_char]
        children_cp += count * child.cp
        children_work += count * child.work
    sw = max(0, entry.work - children_work)
    sp = (children_cp + sw) / entry.cp
    return sp < DOALL_RATIO * n


def best_configuration(
    profile: ParallelismProfile,
    plan_regions,
    machine: MachineModel = DEFAULT_MACHINE,
    core_sweep=CORE_SWEEP,
) -> SimulationResult:
    """Sweep core counts and return the best configuration (§6.1's
    methodology: 'we determined the configuration with the best performance
    and report that number')."""
    best: SimulationResult | None = None
    with get_tracer().span("simulate", configurations=len(core_sweep)) as span:
        for cores in core_sweep:
            result = simulate_plan(
                profile, plan_regions, machine.with_cores(cores)
            )
            if best is None or result.time < best.time:
                best = result
        assert best is not None
        span.args["best_cores"] = best.machine.cores
    return best
