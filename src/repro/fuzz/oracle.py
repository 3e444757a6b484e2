"""Executable invariant oracle over parallelism profiles.

The paper's HCPA definitions are cheap algebraic laws; any profile the
runtime produces must satisfy them regardless of what program produced it.
TASKPROF validates its profiles against an executable performance model
the same way. The oracle checks, for every profile the differential
harness produces:

**Dictionary well-formedness** (§4.4)
  * leaf-first order: every child character precedes its parent;
  * child counts are positive; ``raw_records`` covers every entry;
  * ``0 ≤ cp ≤ work`` for every entry;
  * children's total work fits inside the parent's work (work is
    inclusive);
  * at unlimited depth, no child's critical path exceeds its parent's —
    a child executes entirely inside its parent, so the parent's critical
    path must span it (does **not** hold under a depth window, where
    untracked regions report ``cp = work``).

**Aggregate metrics** (§2)
  * ``SP(R) ≥ 1`` and ``SP(R) ≤ TP(R)`` — self-parallelism localizes
    parallelism, it cannot invent it;
  * coverage lies in ``[0, 1]`` and the root covers everything;
  * work/cp/instance counters are consistent.

**Serialization** — ``to_json → from_json → to_json`` is byte-stable.

**Merge** (§2.4) — merging runs is order-independent up to aggregation,
``merge([p]) ≡ p``, and merged totals are the sums of the parts.

**Planner determinism** — the same profile yields the same plan, whether
planned twice, re-planned from a round-tripped profile, or planned from a
self-merged profile (scale invariance), under both the OpenMP and Cilk++
personalities.

**Static consistency** — statically safe loops with structurally
identical iterations must measure dynamically DOALL, and the static cost
model's self-parallelism interval must contain (when precise) or
upper-bound (when imprecise but finite) the measured HCPA value.
"""

from __future__ import annotations

import itertools
import json

from repro.hcpa.aggregate import AggregatedProfile, aggregate_profile
from repro.hcpa.merge import merge_profiles
from repro.hcpa.serialize import profile_from_json, profile_to_json
from repro.hcpa.summaries import ParallelismProfile

_EPS = 1e-9


class OracleViolation(AssertionError):
    """A profile breaks an HCPA invariant."""

    def __init__(self, invariant: str, message: str):
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant
        self.message = message


# ----------------------------------------------------------------------
# Dictionary + aggregate invariants
# ----------------------------------------------------------------------


def check_dictionary(profile: ParallelismProfile, depth_limited: bool) -> int:
    """Structural invariants of the compression dictionary."""
    entries = profile.dictionary.entries
    if not entries:
        raise OracleViolation("dictionary", "profile has no entries")
    total_children = 0
    for char, entry in enumerate(entries):
        if not 0 <= entry.cp <= entry.work:
            raise OracleViolation(
                "cp-bounded-by-work",
                f"entry {char} (static {entry.static_id}): "
                f"cp={entry.cp} work={entry.work}",
            )
        children_work = 0
        for child_char, count in entry.children:
            if child_char >= char:
                raise OracleViolation(
                    "leaf-first-order",
                    f"entry {char} references child {child_char}",
                )
            if count <= 0:
                raise OracleViolation(
                    "child-count-positive",
                    f"entry {char} child {child_char} count {count}",
                )
            child = entries[child_char]
            children_work += count * child.work
            total_children += count
            if not depth_limited and child.cp > entry.cp:
                raise OracleViolation(
                    "child-cp-bounded-by-parent",
                    f"entry {char} (static {entry.static_id}) cp={entry.cp} "
                    f"< child {child_char} (static {child.static_id}) "
                    f"cp={child.cp}",
                )
        if children_work > entry.work:
            raise OracleViolation(
                "children-work-bounded",
                f"entry {char}: children work {children_work} "
                f"> own work {entry.work}",
            )
    root = profile.root_entry
    if root.work != profile.total_work:
        raise OracleViolation(
            "root-work-total",
            f"root work {root.work} != profile total_work {profile.total_work}",
        )
    if profile.dictionary.raw_records < len(entries):
        raise OracleViolation(
            "raw-records-cover-entries",
            f"{profile.dictionary.raw_records} raw records "
            f"< {len(entries)} entries",
        )
    return 1


def _self_nesting_ids(aggregated: AggregatedProfile) -> set:
    """Static regions observed dynamically nested inside themselves
    (recursion). Their aggregated work double-counts nested instances —
    work is inclusive — so their coverage may legitimately exceed 1."""
    recursive = set()
    for start in aggregated.profiles:
        stack = list(aggregated.children_of(start))
        seen = set()
        while stack:
            node = stack.pop()
            if node == start:
                recursive.add(start)
                break
            if node in seen:
                continue
            seen.add(node)
            stack.extend(aggregated.children_of(node))
    return recursive


def check_aggregate(aggregated: AggregatedProfile) -> int:
    """Metric invariants over the per-static-region aggregation."""
    recursive = _self_nesting_ids(aggregated)
    for static_id, region_profile in aggregated.profiles.items():
        name = f"region #{static_id} {region_profile.region.name}"
        if region_profile.instances <= 0:
            raise OracleViolation("instances-positive", name)
        if region_profile.cp > region_profile.work:
            raise OracleViolation(
                "cp-bounded-by-work",
                f"{name}: cp={region_profile.cp} work={region_profile.work}",
            )
        sp = region_profile.self_parallelism
        tp = region_profile.total_parallelism
        if sp < 1.0 - _EPS:
            raise OracleViolation("sp-at-least-one", f"{name}: SP={sp}")
        if sp > tp + _EPS * max(1.0, tp):
            raise OracleViolation(
                "sp-bounded-by-tp", f"{name}: SP={sp} > TP={tp}"
            )
        if region_profile.coverage < -_EPS:
            raise OracleViolation(
                "coverage-nonnegative",
                f"{name}: coverage={region_profile.coverage}",
            )
        if static_id not in recursive and region_profile.coverage > 1.0 + _EPS:
            raise OracleViolation(
                "coverage-in-unit-range",
                f"{name}: coverage={region_profile.coverage}",
            )
    root = aggregated.profiles.get(aggregated.root_static_id)
    if root is None:
        raise OracleViolation("root-aggregated", "root region not aggregated")
    if abs(root.coverage - 1.0) > 1e-6:
        raise OracleViolation(
            "root-coverage-one", f"root coverage {root.coverage}"
        )
    return 1


# ----------------------------------------------------------------------
# Serialization round-trip
# ----------------------------------------------------------------------


def check_roundtrip(profile: ParallelismProfile) -> int:
    """to_json → from_json → to_json must be byte-stable."""
    first = json.dumps(profile_to_json(profile), sort_keys=True)
    second = json.dumps(
        profile_to_json(profile_from_json(json.loads(first))), sort_keys=True
    )
    if first != second:
        raise OracleViolation(
            "serialize-roundtrip", "round-tripped profile re-serializes differently"
        )
    return 1


def _copy(profile: ParallelismProfile) -> ParallelismProfile:
    return profile_from_json(profile_to_json(profile))


def _aggregate_image(profile: ParallelismProfile) -> dict:
    """Order-insensitive image of a profile: per-static-region aggregates."""
    aggregated = aggregate_profile(profile)
    image = {}
    for static_id, rp in sorted(aggregated.profiles.items()):
        # The synthetic multi-run root differs per merge shape; exclude it.
        if rp.region.name == "<multi-run>":
            continue
        image[static_id] = (rp.instances, rp.work, rp.cp, round(rp.sp_numerator, 6))
    return image


# ----------------------------------------------------------------------
# Merge laws
# ----------------------------------------------------------------------


def check_merge(profiles: list[ParallelismProfile]) -> int:
    """Merge laws over ≥2 compatible profiles of one program."""
    base = profiles[0]

    # Identity: merging a single profile is that profile.
    if merge_profiles([base]) is not base:
        raise OracleViolation("merge-identity", "merge([p]) is not p")

    # Totals: merged root work/cp are the sums of the parts.
    merged = merge_profiles([_copy(p) for p in profiles])
    expect_work = sum(p.root_entry.work for p in profiles)
    expect_cp = sum(p.root_entry.cp for p in profiles)
    if merged.root_entry.work != expect_work:
        raise OracleViolation(
            "merge-work-additive",
            f"merged work {merged.root_entry.work} != {expect_work}",
        )
    if merged.root_entry.cp != expect_cp:
        raise OracleViolation(
            "merge-cp-additive",
            f"merged cp {merged.root_entry.cp} != {expect_cp}",
        )
    if merged.instructions_retired != sum(
        p.instructions_retired for p in profiles
    ):
        raise OracleViolation(
            "merge-instructions-additive", "instruction totals diverge"
        )

    # Order-independence: any permutation aggregates identically.
    reference = _aggregate_image(merged)
    for permutation in itertools.permutations(range(len(profiles))):
        if list(permutation) == list(range(len(profiles))):
            continue
        image = _aggregate_image(
            merge_profiles([_copy(profiles[i]) for i in permutation])
        )
        if image != reference:
            raise OracleViolation(
                "merge-order-independence",
                f"permutation {permutation} aggregates differently",
            )
    return 1


# ----------------------------------------------------------------------
# Planner determinism
# ----------------------------------------------------------------------


def _plan_image(profile: ParallelismProfile, personality: str) -> tuple:
    from repro.planner.registry import create_planner
    from repro.report import format_plan

    aggregated = aggregate_profile(profile)
    plan = create_planner(personality).plan(aggregated)
    names = {
        item.region.name for item in plan if item.region.name != "<multi-run>"
    }
    ids_in_order = [
        item.region.name for item in plan if item.region.name != "<multi-run>"
    ]
    plan.program_name = "<oracle>"
    return (tuple(ids_in_order), frozenset(names), format_plan(plan))


def check_planner_determinism(
    profile: ParallelismProfile,
    personalities: tuple[str, ...] = ("openmp", "cilk"),
) -> int:
    """Planning must be a pure function of the profile.

    Three sources must agree for every personality: the profile itself
    (planned twice), a serialization round-trip of it, and a self-merge of
    two copies (scale invariance: doubling every count preserves all the
    ratios the planner consumes).
    """
    for personality in personalities:
        first = _plan_image(profile, personality)
        again = _plan_image(profile, personality)
        if first != again:
            raise OracleViolation(
                "planner-deterministic",
                f"{personality}: two plans of one profile differ",
            )
        roundtrip = _plan_image(_copy(profile), personality)
        if first != roundtrip:
            raise OracleViolation(
                "planner-roundtrip-stable",
                f"{personality}: plan changed after serialize/deserialize",
            )
        doubled = merge_profiles([_copy(profile), _copy(profile)])
        merged_image = _plan_image(doubled, personality)
        if first[0] != merged_image[0]:
            raise OracleViolation(
                "planner-scale-invariant",
                f"{personality}: plan selection changed after self-merge: "
                f"{first[0]} vs {merged_image[0]}",
            )
    return 1


# ----------------------------------------------------------------------
# Static-vs-dynamic consistency
# ----------------------------------------------------------------------


def check_static_dynamic(profile: ParallelismProfile, program) -> int:
    """Statically safe loops with structurally identical iterations must
    measure as dynamically DOALL.

    The naive form — "statically ``SAFE_DOALL`` implies dynamically DOALL"
    — is unsound: a loop can be perfectly safe yet *imbalanced* (one heavy
    iteration behind an ``if``), which legitimately collapses measured
    self-parallelism. So the invariant is gated on
    :func:`~repro.analysis.dependence.iterations_structurally_identical`:
    straight-line bodies whose every induction/reduction update carries a
    ``dep_break`` mark the runtime honours (the analyzer puts the marks
    on, so they agree by construction). For those loops every
    iteration costs the same and shares nothing, so self-parallelism must
    reach the DOALL threshold once the loop actually iterates (average
    iteration count ≥ 2). In particular a statically-safe loop can never
    come out dynamically *worse* than DOACROSS. Returns the number of
    loops the gate admitted.
    """
    from repro.analysis.dependence import iterations_structurally_identical
    from repro.analysis.driver import resolve_loop_region

    analysis = getattr(program, "analysis", None)
    if analysis is None:
        return 0
    aggregated = aggregate_profile(profile)
    checked = 0
    for info in analysis.loop_infos():
        if not info.verdict.is_safe:
            continue
        if not iterations_structurally_identical(info):
            continue
        region_id = resolve_loop_region(program.regions, info)
        if region_id is None:
            continue
        region_profile = aggregated.profiles.get(region_id)
        if region_profile is None:
            continue  # the loop never executed in this run
        if region_profile.average_iterations < 2.0:
            continue  # one trip measures no parallelism
        checked += 1
        if not region_profile.is_doall:
            raise OracleViolation(
                "static-dynamic-doall",
                f"region #{region_id} {region_profile.region.name}: "
                f"statically {info.verdict.describe()} with structurally "
                f"identical iterations, but dynamically not DOALL "
                f"(SP={region_profile.self_parallelism:.2f}, "
                f"avg_iter={region_profile.average_iterations:.2f})",
            )
    return checked


def check_static_sp(profile: ParallelismProfile, program) -> int:
    """The static cost model's self-parallelism interval must bound the
    dynamic HCPA value.

    The two ends bound two different runtime quantities, because the SP
    numerator counts the loop's own header/latch bookkeeping (self work)
    as parallel work — which can push the *full* SP slightly above the
    iteration count even for a perfect DOALL loop:

    * **upper** (any finite interval): the body-only self-parallelism
      ``Σ body cp / loop cp`` can never exceed the trip bound — each
      body instance's cp is at most the loop's cp, so the sum is at
      most ``N·cp``;
    * **lower** (*precise* intervals only): a precise
      :class:`~repro.analysis.static_cost.RegionCost` claims a tight
      ``0.7·trip`` floor on the full SP — safe verdict, exact trip
      count, structurally identical iterations, the regime where the
      static-dynamic lane already pins the DOALL classification.

    An escape means the trip-count or bound computation is wrong.
    Returns the number of intervals checked.
    """
    analysis = getattr(program, "analysis", None)
    costs = getattr(analysis, "costs", None)
    if not costs:
        return 0
    aggregated = aggregate_profile(profile)
    checked = 0
    for region_id, cost in sorted(costs.items()):
        region_profile = aggregated.profiles.get(region_id)
        if region_profile is None:
            continue  # the loop never executed in this run
        sp = region_profile.self_parallelism
        body_sp = sp
        if region_profile.cp > 0:
            body_sp = (
                region_profile.sp_numerator - region_profile.self_work
            ) / region_profile.cp
        slack = 1e-6 * max(1.0, sp)
        if cost.precise:
            checked += 1
            if sp < cost.sp.lo - slack:
                raise OracleViolation(
                    "static-sp-containment",
                    f"region #{region_id} {region_profile.region.name}: "
                    f"dynamic SP={sp:.3f} below precise static floor "
                    f"{cost.sp.render()}",
                )
            if body_sp > cost.sp.hi + slack:
                raise OracleViolation(
                    "static-sp-containment",
                    f"region #{region_id} {region_profile.region.name}: "
                    f"dynamic body SP={body_sp:.3f} exceeds precise "
                    f"static interval {cost.sp.render()}",
                )
        elif cost.sp.bounded:
            checked += 1
            if body_sp > cost.sp.hi + slack:
                raise OracleViolation(
                    "static-sp-upper-bound",
                    f"region #{region_id} {region_profile.region.name}: "
                    f"dynamic body SP={body_sp:.3f} exceeds static upper "
                    f"bound {cost.sp.render()} (the bodies' summed cp "
                    f"cannot exceed trip count x loop cp)",
                )
    return checked


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_oracle(profiles: dict, program=None, counters: dict | None = None) -> int:
    """Run every oracle over the differential harness's profiles.

    ``profiles`` maps max_depth (None = unlimited) to the profile observed
    under that depth window. ``program`` is the :class:`CompiledProgram`
    the profiles came from (when available) — it carries the static
    analysis needed for the static-vs-dynamic consistency check. Returns
    the number of oracle groups checked; ``counters`` (when given)
    receives per-lane counts, currently ``{"static-sp": n}``.
    """
    checks = 0
    for max_depth, profile in profiles.items():
        depth_limited = max_depth is not None
        checks += check_dictionary(profile, depth_limited)
        checks += check_aggregate(aggregate_profile(profile))
        checks += check_roundtrip(profile)
    full = profiles.get(None)
    if full is not None:
        others = [p for d, p in profiles.items() if d is not None]
        if others:
            checks += check_merge([full] + others)
        checks += check_planner_determinism(full)
        if program is not None:
            checks += check_static_dynamic(full, program)
            static_sp = check_static_sp(full, program)
            checks += static_sp
            if counters is not None:
                counters["static-sp"] = (
                    counters.get("static-sp", 0) + static_sp
                )
    return checks
