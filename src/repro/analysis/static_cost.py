"""Static work / critical-path / self-parallelism bounds ("static Kremlin", part 2).

Every loop region gets a symbolic cost estimate computed without
running the program: a trip-count interval from the induction-variable
bounds, a per-entry work interval (instruction costs scaled by the trip
intervals of enclosing loops, plus bottom-up call-cost intervals from
the call graph), and from those a **static self-parallelism interval**
``[sp_lo, sp_hi]``:

* ``sp_hi = trip_hi`` — a loop's *body* self-parallelism never exceeds
  its iteration count (``Σ body cp ≤ N·cp``). The runtime's full SP also
  counts the loop's own header/latch bookkeeping as parallel self work,
  so it can exceed the trip count by a small overhead term; the fuzz
  oracle therefore checks the upper bound against the body-only value;
* ``sp_lo = DOALL_RATIO · trip_lo`` when the verdict is safe, the
  iterations are structurally identical, and the trip count is exact —
  exactly the regime where the dynamic verdict cross-check already
  proves ``SP ≥ DOALL_RATIO · iterations``; otherwise ``sp_lo = 1``
  and the interval is marked **imprecise**.

The fuzz oracle hard-checks containment of the dynamic HCPA value only
for *precise* intervals; imprecise ones are informational (they still
bound from above when the trip bound is finite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.dependence import (
    LoopDependenceInfo,
    iterations_structurally_identical,
)
from repro.analysis.dominators import DominatorTree, dominator_tree
from repro.analysis.loops import Loop
from repro.ir.instructions import Call, Ret
from repro.ir.module import Module

#: fraction of the iteration count a dynamically-DOALL loop's measured
#: self-parallelism must reach (mirrors repro.hcpa.aggregate.DOALL_RATIO)
DOALL_RATIO = 0.7


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]``; ``hi = inf`` means unbounded."""

    lo: float = 0.0
    hi: float = math.inf

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.hi)

    @property
    def exact(self) -> bool:
        return self.lo == self.hi and self.bounded

    def plus(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def times(self, other: "Interval") -> "Interval":
        # cost intervals are non-negative, so the ends multiply directly
        return Interval(self.lo * other.lo, self.hi * other.hi)

    def scaled(self, lo: float, hi: float) -> "Interval":
        return Interval(self.lo * lo, self.hi * hi)

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= value <= self.hi + slack

    def render(self) -> str:
        def fmt(x: float) -> str:
            if math.isinf(x):
                return "inf"
            if x == int(x):
                return str(int(x))
            return f"{x:.1f}"

        if math.isinf(self.hi):
            return f"[{fmt(self.lo)},inf)"
        return f"[{fmt(self.lo)},{fmt(self.hi)}]"


ZERO = Interval(0.0, 0.0)
UNKNOWN_TRIP = Interval(0.0, math.inf)


@dataclass
class RegionCost:
    """Static cost bounds for one LOOP region."""

    region_id: int
    name: str
    location: str
    trip: Interval
    work: Interval
    cp: Interval
    sp: Interval
    #: the sp interval is claimed tight (the fuzz oracle hard-checks
    #: that the dynamic HCPA self-parallelism falls inside it)
    precise: bool

    def render_sp(self) -> str:
        return self.sp.render() + ("" if self.precise else " ~")

    def to_json(self) -> dict:
        def end(x: float):
            return None if math.isinf(x) else x

        return {
            "region": self.region_id,
            "name": self.name,
            "location": self.location,
            "trip": [end(self.trip.lo), end(self.trip.hi)],
            "work": [end(self.work.lo), end(self.work.hi)],
            "cp": [end(self.cp.lo), end(self.cp.hi)],
            "sp": [end(self.sp.lo), end(self.sp.hi)],
            "precise": self.precise,
        }


# ----------------------------------------------------------------------
# Trip-count intervals
# ----------------------------------------------------------------------


def trip_interval(info: LoopDependenceInfo) -> Interval:
    """Per-entry iteration-count interval of a natural loop."""
    best: Interval | None = None
    for ind in info.inductions.values():
        if (
            ind.step in (None, 0)
            or ind.init is None
            or ind.lo is None
            or ind.hi is None
        ):
            continue
        if ind.hi < ind.lo:
            return ZERO  # empty value range: body never runs
        # the variable starts at one end of its range and walks to the
        # other; anything else means the bound belongs to another IV
        if ind.step > 0 and ind.init != ind.lo:
            continue
        if ind.step < 0 and ind.init != ind.hi:
            continue
        count = (ind.hi - ind.lo) // abs(ind.step) + 1
        candidate = Interval(float(count), float(count))
        if best is None or candidate.hi < best.hi:
            best = candidate
    if best is None:
        return UNKNOWN_TRIP
    if info.exit_count > 1:
        # a break can stop the loop anywhere before the counted bound
        return Interval(0.0, best.hi)
    return best


# ----------------------------------------------------------------------
# Work intervals
# ----------------------------------------------------------------------


class _LoopView:
    """Innermost-loop lookup over the *analyzed* Loop objects.

    Trip intervals are keyed by the Loop instances the dependence pass
    produced; rebuilding the forest here would mint fresh objects that
    miss those keys, so the view is derived from the infos instead.
    """

    def __init__(self, loops: list[Loop]):
        self.block_loop: dict = {}
        for loop in loops:
            for block in loop.blocks:
                current = self.block_loop.get(block)
                if current is None or loop.depth > current.depth:
                    self.block_loop[block] = loop

    def loop_of(self, block) -> Loop | None:
        return self.block_loop.get(block)


def _block_base_cost(block) -> float:
    cost = sum(instr.cost for instr in block.instructions)
    if block.terminator is not None:
        cost += block.terminator.cost
    return float(cost)


def _enclosing_factors(
    forest, block, trips: dict[Loop, Interval], stop: Loop | None
) -> tuple[float, float]:
    """``(lo, hi)`` execution-count factors for a block from the trip
    intervals of its enclosing loops, up to (exclusive) ``stop``.

    The +1 on the upper end covers the loop header, which runs once
    more than the body.
    """
    lo = 1.0
    hi = 1.0
    loop = forest.loop_of(block)
    while loop is not None and loop is not stop:
        trip = trips.get(loop, UNKNOWN_TRIP)
        lo *= max(1.0, trip.lo)
        hi *= trip.hi + 1.0
        loop = loop.parent
    return lo, hi


def _scoped_work(
    function,
    forest,
    trips: dict[Loop, Interval],
    call_work: dict[str, Interval],
    scope: Loop | None,
    dom=None,
) -> Interval:
    """Work interval of one execution of ``scope`` (one loop iteration,
    or the whole function body when ``scope`` is None)."""
    blocks = scope.blocks if scope is not None else function.blocks
    dom = dom or dominator_tree(function)
    rets = [b for b in function.blocks if isinstance(b.terminator, Ret)]
    lo = 0.0
    hi = 0.0
    for block in blocks:
        base = Interval(_block_base_cost(block), _block_base_cost(block))
        for instr in block.instructions:
            if isinstance(instr, Call) and not instr.is_builtin:
                base = base.plus(
                    call_work.get(instr.callee, Interval(0.0, math.inf))
                )
        f_lo, f_hi = _enclosing_factors(forest, block, trips, scope)
        hi += base.hi * f_hi
        # a block on every path to every return executes at least once
        # per entry of the scope (times the enclosing lower trip counts)
        if rets and all(dom.dominates(block, ret) for ret in rets):
            lo += base.lo * f_lo
    return Interval(lo, hi)


def function_work_intervals(
    module: Module,
    infos_by_function: dict[str, list[LoopDependenceInfo]],
    graph: CallGraph | None = None,
    doms: dict[str, DominatorTree] | None = None,
) -> dict[str, Interval]:
    """Bottom-up per-call work interval for every user function.

    ``doms`` maps function names to dominator trees the caller already
    built; missing ones are computed here.
    """
    graph = graph or build_call_graph(module)
    doms = doms or {}
    work: dict[str, Interval] = {}
    for component in graph.sccs():
        members = [n for n in component if n in module.functions]
        recursive = len(component) > 1 or any(
            n in graph.callees.get(n, set()) for n in members
        )
        for name in members:
            function = module.functions[name]
            if recursive:
                # one activation at minimum; depth is data-dependent
                entry = (
                    _block_base_cost(function.blocks[0])
                    if function.blocks
                    else 0.0
                )
                work[name] = Interval(entry, math.inf)
                continue
            infos = infos_by_function.get(name, [])
            forest = _LoopView([info.loop for info in infos])
            trips = {info.loop: trip_interval(info) for info in infos}
            work[name] = _scoped_work(
                function, forest, trips, work, None, doms.get(name)
            )
    return work


# ----------------------------------------------------------------------
# Per-region cost assembly
# ----------------------------------------------------------------------


def compute_static_costs(
    module: Module,
    infos_by_function: dict[str, list[LoopDependenceInfo]],
    regions=None,
    graph: CallGraph | None = None,
    doms: dict[str, DominatorTree] | None = None,
) -> dict[int, RegionCost]:
    """Static cost bounds for every resolvable LOOP region.

    ``doms`` maps function names to dominator trees the caller already
    built; missing ones are computed here.
    """
    from repro.analysis.driver import resolve_loop_region

    graph = graph or build_call_graph(module)
    doms = doms or {}
    call_work = function_work_intervals(
        module, infos_by_function, graph, doms
    )
    out: dict[int, RegionCost] = {}
    for name, infos in infos_by_function.items():
        function = module.functions.get(name)
        if function is None:
            continue
        forest = _LoopView([info.loop for info in infos])
        trips = {info.loop: trip_interval(info) for info in infos}
        dom = doms.get(name) or dominator_tree(function)
        for info in infos:
            region_id = resolve_loop_region(regions, info)
            if region_id is None:
                continue
            trip = trips[info.loop]
            iter_work = _scoped_work(
                function, forest, trips, call_work, info.loop, dom
            )
            work = Interval(
                trip.lo * iter_work.lo, (trip.hi + 1.0) * iter_work.hi
            )
            cp = Interval(min(1.0, work.hi), work.hi)
            precise = (
                info.verdict.is_safe
                and trip.exact
                and iterations_structurally_identical(info)
            )
            sp_hi = max(1.0, trip.hi)
            sp_lo = (
                max(1.0, DOALL_RATIO * trip.lo) if precise else 1.0
            )
            region = regions.region(region_id) if regions else None
            out[region_id] = RegionCost(
                region_id=region_id,
                name=region.name if region is not None else f"loop{region_id}",
                location=(
                    region.location if region is not None else "?"
                ),
                trip=trip,
                work=work,
                cp=cp,
                sp=Interval(min(sp_lo, sp_hi), sp_hi),
                precise=precise,
            )
    return out


def costs_to_json(costs: dict[int, RegionCost]) -> list[dict]:
    return [costs[region_id].to_json() for region_id in sorted(costs)]


def cost_from_json(data: dict) -> RegionCost:
    """Decode a :meth:`RegionCost.to_json` document (``null`` = inf)."""

    def interval(pair) -> Interval:
        lo, hi = pair
        return Interval(
            0.0 if lo is None else float(lo),
            math.inf if hi is None else float(hi),
        )

    return RegionCost(
        region_id=int(data["region"]),
        name=data["name"],
        location=data["location"],
        trip=interval(data["trip"]),
        work=interval(data["work"]),
        cp=interval(data["cp"]),
        sp=interval(data["sp"]),
        precise=bool(data["precise"]),
    )
