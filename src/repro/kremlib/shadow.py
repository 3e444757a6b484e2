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

This module also hosts the **vectorized fold kernel** the compiled
engine's generated code calls when a straight-line segment carries
at least :func:`vector_threshold` full-depth timestamp vectors: the
region-stack cp fold becomes a single numpy reduction instead of N Python
loops. The kernel is value-exact — int64 max on Python ints, with
results converted back to Python ints — so serialized profiles stay
byte-identical to the scalar form (the differential suite enforces it).
Below the threshold the emitter keeps the scalar statements, which beat
numpy's per-call overhead on short segments.
"""

from __future__ import annotations

import os

try:  # numpy is a declared dependency, but stay importable without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via threshold gating
    _np = None

#: default event count at which a segment's folds switch to numpy
DEFAULT_VECTOR_THRESHOLD = 8

#: programmatic override: [None] = unset (env/default), [0] = disabled
_threshold_override: list = [None]


def vector_threshold() -> int:
    """Events per segment at which generated code uses the numpy folds.

    0 disables vectorization entirely (scalar statements only), which is
    also the behavior when numpy is unavailable. Overridable with
    ``KREMLIN_VECTOR_THRESHOLD`` or :func:`set_vector_threshold`; the
    codegen caches key on the resolved value, so changing it mid-process
    triggers clean recompiles rather than stale code.
    """
    override = _threshold_override[0]
    if override is not None:
        return override
    raw = os.environ.get("KREMLIN_VECTOR_THRESHOLD")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            return DEFAULT_VECTOR_THRESHOLD if _np is not None else 0
        return max(0, value)
    if _np is None:
        return 0
    return DEFAULT_VECTOR_THRESHOLD


def set_vector_threshold(value: int | None):
    """Override (or with None, reset) the threshold; returns the previous
    override so tests can restore it."""
    previous = _threshold_override[0]
    _threshold_override[0] = value if value is None else max(0, int(value))
    return previous


def fold_max_into(cps, vectors, dp) -> None:
    """Region fold: ``cps[d] = max(cps[d], *[v[d] for v in vectors])``.

    Bound as ``_vmax`` in the generated-source environments. Every
    vector is a full-depth (``dp``-length) event timestamp list; the
    scalar fallback covers numpy-less processes and int64 overflow
    (timestamps beyond 2**63 abstract cycles).
    """
    if dp and _np is not None:
        try:
            merged = _np.array(vectors, dtype=_np.int64).max(axis=0).tolist()
        except (OverflowError, ValueError):
            merged = None
        if merged is not None:
            cps[:dp] = [c if c > t else t for c, t in zip(cps, merged)]
            return
    for times in vectors:
        k = 0
        for t in times:
            if t > cps[k]:
                cps[k] = t
            k += 1


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
    validity) + cost. Bound as ``_cts`` for the compiled engine's call
    sites; the per-segment generated code expands the same math inline."""
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
