"""Shadow state structures for the KremLib runtime.

Shadow entries are ``(times, tags)`` pairs: ``times[d]`` is the value's
availability time relative to the entry of the region active at depth ``d``
when the value was written, and ``tags[d]`` is that region's instance id.

Validity is **prefix-closed**: region instance ids are globally unique and a
region instance has a fixed chain of ancestors, so if ``tags[d]`` no longer
matches the current region stack, no deeper level can match either.
Resolution therefore reduces to a common-prefix length, with an identity
fast path (values written since the last region event share the *same* tags
tuple). Depths beyond the valid prefix read as time 0 — exactly the paper's
rule that data written by an exited sibling region instance "is discarded
... assuming time 0 instead" (§4.2).
"""

from __future__ import annotations


def make_cell_table(count: int) -> list:
    """Array-backed second-level shadow table for one array storage.

    One slot per element, ``None`` until first written. Array indices are
    validated before any shadow event fires, so accesses never need the
    bounds-tolerant dict protocol; scalar globals (storage id 0) keep a
    dict keyed by interned global name. Entries in both table kinds are
    the same ``(times, tags)`` pairs :func:`resolve_entry` consumes.
    """
    return [None] * count


class ShadowFrame:
    """Per-activation shadow state: register table + control-dep stack.

    ``registers[i]`` is a shadow entry or None (never written). The control
    stack holds ``[branch_block_id, join_block_id, times, tags]`` records;
    see :class:`~repro.kremlib.profiler.KremlinProfiler` for the push/pop
    discipline.
    """

    __slots__ = ("registers", "control")

    def __init__(self, num_registers: int):
        self.registers: list = [None] * num_registers
        self.control: list = []


def _compute_ts(inputs, cost: int, depth: int) -> list:
    """Reference merge: ts[d] = max over inputs of times[d] (0 beyond
    validity) + cost. The tree profiler's hooks use it, and it is bound
    as ``_cts`` for the compiled engine's call sites; the per-segment
    generated code expands the same math inline."""
    ts = [cost] * depth
    for times, valid in inputs:
        if valid > depth:
            valid = depth
        d = 0
        for t in times[:valid]:
            t += cost
            if t > ts[d]:
                ts[d] = t
            d += 1
    return ts


def resolve_entry(entry, current_tags):
    """Resolve a shadow entry against the current region stack.

    Returns ``(times, valid_depth)`` or None when nothing is valid.
    """
    if entry is None:
        return None
    times, tags = entry
    if tags is current_tags:
        return (times, len(times))
    limit = min(len(tags), len(current_tags), len(times))
    valid = 0
    while valid < limit and tags[valid] == current_tags[valid]:
        valid += 1
    if valid == 0:
        return None
    return (times, valid)
