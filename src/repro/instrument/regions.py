"""Static region tree: the program structure Kremlin profiles against.

A *region* (paper §2.2) is a code range whose parallelism is measured from
entry to exit. Kremlin places regions around all functions and loops. We add
one implicit ``body`` region per loop, representing a single iteration: loop
iterations are exactly the "children" of a loop region in the paper's
Figure 5, and making them first-class regions is what lets self-parallelism
of a loop come out as its iteration count for DOALL loops (§5.1: *Kremlin
identifies DOALL loops by checking for equivalence between self-parallelism
and iteration count*).

Regions nest properly by construction: a function region contains its
loops, a loop contains its body region, and a body contains inner loops.
Dynamic nesting across calls is handled at run time by the region stack.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.frontend.source import SourceSpan


class RegionKind(enum.Enum):
    FUNCTION = "function"
    LOOP = "loop"
    BODY = "body"  # a single loop iteration

    def __str__(self) -> str:
        return self.value


@dataclass(eq=False)
class StaticRegion:
    """A node in the static region tree."""

    id: int
    kind: RegionKind
    name: str  # function name, or e.g. "solve#loop2" for loops
    span: SourceSpan
    parent_id: int | None = None
    children_ids: list[int] = field(default_factory=list)
    #: For LOOP regions: 1-based nesting depth within the enclosing function.
    loop_depth: int = 0
    #: The function this region lexically belongs to.
    function_name: str = ""
    #: Static DOALL-safety verdict tag for LOOP regions, stamped by
    #: :func:`repro.analysis.driver.analyze_module` (``"?"`` = unanalyzed).
    verdict: str = "?"
    #: Static cost bounds (a :class:`repro.analysis.static_cost.RegionCost`)
    #: stamped by the analysis driver; serialized with the profile so
    #: loaded profiles keep their Static SP annotations (None when the
    #: profile predates the cost model).
    static_cost: object | None = field(default=None, repr=False)

    @property
    def is_function(self) -> bool:
        return self.kind is RegionKind.FUNCTION

    @property
    def is_loop(self) -> bool:
        return self.kind is RegionKind.LOOP

    @property
    def is_body(self) -> bool:
        return self.kind is RegionKind.BODY

    @property
    def location(self) -> str:
        """Human-readable location, Figure 3 style: ``file.c (49-58)``."""
        return str(self.span)

    def __repr__(self) -> str:
        return f"<region #{self.id} {self.kind} {self.name} {self.location}>"


class StaticRegionTree:
    """All static regions of a module, indexed by id.

    There is one FUNCTION region per function. The *dynamic* region graph
    (who actually nests in whom at run time, across calls) is built during
    profiling; this tree only captures lexical structure.
    """

    def __init__(self) -> None:
        self._regions: list[StaticRegion] = []

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions)

    def region(self, region_id: int) -> StaticRegion:
        return self._regions[region_id]

    def add(
        self,
        kind: RegionKind,
        name: str,
        span: SourceSpan,
        parent_id: int | None,
        function_name: str,
        loop_depth: int = 0,
    ) -> StaticRegion:
        region = StaticRegion(
            id=len(self._regions),
            kind=kind,
            name=name,
            span=span,
            parent_id=parent_id,
            loop_depth=loop_depth,
            function_name=function_name,
        )
        self._regions.append(region)
        if parent_id is not None:
            self._regions[parent_id].children_ids.append(region.id)
        return region

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def functions(self) -> list[StaticRegion]:
        return [r for r in self._regions if r.is_function]

    def loops(self) -> list[StaticRegion]:
        return [r for r in self._regions if r.is_loop]

    def bodies(self) -> list[StaticRegion]:
        return [r for r in self._regions if r.is_body]

    def function_region(self, name: str) -> StaticRegion:
        for region in self._regions:
            if region.is_function and region.name == name:
                return region
        raise KeyError(f"no function region named {name!r}")

    def body_of(self, loop_id: int) -> StaticRegion:
        loop = self.region(loop_id)
        if not loop.is_loop:
            raise ValueError(f"region #{loop_id} is not a loop")
        for child_id in loop.children_ids:
            child = self.region(child_id)
            if child.is_body:
                return child
        raise ValueError(f"loop region #{loop_id} has no body region")

    def loop_of_body(self, body_id: int) -> StaticRegion:
        body = self.region(body_id)
        if not body.is_body or body.parent_id is None:
            raise ValueError(f"region #{body_id} is not a loop body")
        return self.region(body.parent_id)

    def ancestors(self, region_id: int) -> list[StaticRegion]:
        """Lexical ancestors, innermost first (excluding the region itself)."""
        out: list[StaticRegion] = []
        current = self.region(region_id)
        while current.parent_id is not None:
            current = self.region(current.parent_id)
            out.append(current)
        return out

    def descendants(self, region_id: int) -> list[StaticRegion]:
        """All lexical descendants, preorder (excluding the region itself)."""
        out: list[StaticRegion] = []
        stack = list(reversed(self.region(region_id).children_ids))
        while stack:
            region = self.region(stack.pop())
            out.append(region)
            stack.extend(reversed(region.children_ids))
        return out

    def format_tree(self) -> str:
        """Indented dump of the whole tree, for debugging and docs."""
        lines: list[str] = []

        def visit(region: StaticRegion, depth: int) -> None:
            lines.append("  " * depth + f"#{region.id} {region.kind} {region.name} {region.location}")
            for child_id in region.children_ids:
                visit(self.region(child_id), depth + 1)

        for region in self._regions:
            if region.parent_id is None:
                visit(region, 0)
        return "\n".join(lines)
