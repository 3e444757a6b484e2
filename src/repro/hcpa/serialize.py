"""Profile serialization: the parallelism-profile output file.

In the paper's workflow the instrumented binary "produces a parallelism
profile output file" which the planner consumes later (§3); the compressed
dictionary is the on-disk format (§4.4). This module provides that file:
a JSON document carrying the dictionary, the root character, and the static
region tree, so a program can be profiled once and re-planned many times —
including with different personalities or exclusion lists — without
re-running it.
"""

from __future__ import annotations

import json
import os
from typing import IO

from repro.frontend.source import SourceLocation, SourceSpan
from repro.hcpa.summaries import CompressionDictionary, DictEntry, ParallelismProfile
from repro.instrument.regions import RegionKind, StaticRegion, StaticRegionTree
from repro.obs.metrics import get_metrics, metrics_enabled

#: magic string identifying a Kremlin parallelism-profile file
FORMAT_NAME = "kremlin-parallelism-profile"
#: schema version written by this build
FORMAT_VERSION = 1
#: schema versions this build can read
SUPPORTED_VERSIONS = (1,)


class ProfileFormatError(Exception):
    """Raised when a profile file is malformed."""


class ProfileVersionError(ProfileFormatError):
    """Raised when a profile file's schema version is not supported.

    Distinct from :class:`ProfileFormatError` so callers can tell "this is
    a Kremlin profile, but from an incompatible version — re-profile" from
    "this is not a profile at all".
    """

    def __init__(self, found):
        supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
        super().__init__(
            f"unsupported profile schema version {found!r} "
            f"(this build reads version{'s' if len(SUPPORTED_VERSIONS) > 1 else ''} "
            f"{supported}); re-profile the program with this version of kremlin"
        )
        self.found = found


def _check_header(data: dict) -> None:
    """Validate the magic + schema-version header before any other key."""
    if not isinstance(data, dict):
        raise ProfileFormatError("profile file must contain a JSON object")
    magic = data.get("format")
    if magic != FORMAT_NAME:
        raise ProfileFormatError(
            "not a kremlin parallelism profile "
            f"(magic header {magic!r}, expected {FORMAT_NAME!r})"
        )
    version = data.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise ProfileVersionError(version)


def _typed(value, kind: type, what: str):
    """``value`` if its type is exactly ``kind`` (so ``True`` is no int)."""
    if type(value) is not kind:
        raise ProfileFormatError(
            f"{what}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _span_to_json(span: SourceSpan) -> dict:
    return {
        "file": span.filename,
        "start": [span.start.line, span.start.column],
        "end": [span.end.line, span.end.column],
    }


def _span_from_json(data: dict) -> SourceSpan:
    (sl, sc), (el, ec), filename = data["start"], data["end"], data["file"]
    if not (
        type(sl) is type(sc) is type(el) is type(ec) is int
        and type(filename) is str
    ):
        raise ValueError(f"malformed span {data!r}")
    return SourceSpan(SourceLocation(sl, sc), SourceLocation(el, ec), filename)


def profile_to_json(profile: ParallelismProfile) -> dict:
    """Encode a profile as a JSON-serializable dict."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "program": profile.program_name,
        "instructions_retired": profile.instructions_retired,
        "total_work": profile.total_work,
        "max_depth": profile.max_depth,
        "root_char": profile.root_char,
        "raw_records": profile.dictionary.raw_records,
        "dictionary": [
            {
                "static": entry.static_id,
                "work": entry.work,
                "cp": entry.cp,
                "children": [list(pair) for pair in entry.children],
            }
            for entry in profile.dictionary.entries
        ],
        "regions": [
            {
                "id": region.id,
                "kind": region.kind.value,
                "name": region.name,
                "parent": region.parent_id,
                "function": region.function_name,
                "loop_depth": region.loop_depth,
                "span": _span_to_json(region.span),
                "verdict": region.verdict,
                "static_cost": (
                    region.static_cost.to_json()
                    if region.static_cost is not None
                    else None
                ),
            }
            for region in profile.regions
        ],
    }


def profile_from_json(data: dict) -> ParallelismProfile:
    """Decode a profile produced by :func:`profile_to_json`.

    Raises :class:`ProfileVersionError` on a schema-version mismatch and
    :class:`ProfileFormatError` on any other structural defect — a
    missing section, a non-record entry, a wrongly typed field, or an
    out-of-range reference — never a bare builtin exception. The checks
    run inside the one decode pass.
    """
    _check_header(data)
    missing = [
        key
        for key in (
            "regions",
            "dictionary",
            "root_char",
            "raw_records",
            "instructions_retired",
            "total_work",
        )
        if key not in data
    ]
    if missing:
        raise ProfileFormatError(
            f"profile file is missing required field(s): {', '.join(missing)}"
        )

    regions = StaticRegionTree()
    for index, record in enumerate(_typed(data["regions"], list, "regions")):
        try:
            region_id, parent = record["id"], record["parent"]
            name, function = record["name"], record["function"]
            loop_depth = record["loop_depth"]
            kind = RegionKind(record["kind"])
            span = _span_from_json(record["span"])
            # Older profiles predate the static analyzer: default to "?".
            verdict = record.get("verdict", "?")
            static_cost = record.get("static_cost")
            if static_cost is not None:
                from repro.analysis.static_cost import cost_from_json

                static_cost = cost_from_json(static_cost)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProfileFormatError(
                f"region record {index} is malformed: {exc!r}"
            ) from None
        if type(region_id) is not int or region_id != index:
            raise ProfileFormatError("region ids must be dense and ordered")
        # A parent precedes its children, which also rules out cycles.
        if parent is not None and (
            type(parent) is not int or not 0 <= parent < index
        ):
            raise ProfileFormatError(
                f"region record {index} has invalid parent {parent!r}"
            )
        if not (
            type(name) is type(function) is type(verdict) is str
            and type(loop_depth) is int
        ):
            raise ProfileFormatError(
                f"region record {index}: name, function and verdict must "
                "be strings and loop_depth an integer"
            )
        region = regions.add(
            kind, name, span, parent, function, loop_depth=loop_depth
        )
        region.verdict = verdict
        region.static_cost = static_cost
    region_count = len(regions)

    dictionary = CompressionDictionary()
    records = _typed(data["dictionary"], list, "dictionary")
    for char, record in enumerate(records):
        try:
            static, work, cp = record["static"], record["work"], record["cp"]
            pairs = record["children"]
            children = tuple([(c, n) for c, n in pairs])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProfileFormatError(
                f"dictionary entry {char} is malformed: {exc!r}"
            ) from None
        if not (
            type(static) is type(work) is type(cp) is int
            and type(pairs) is list
            and 0 <= static < region_count
        ):
            raise ProfileFormatError(
                f"dictionary entry {char}: static, work and cp must be "
                "integers, static a known region and children a list"
            )
        for child_char, count in children:
            if not (
                type(child_char) is type(count) is int
                and 0 <= child_char < char
            ):
                raise ProfileFormatError(
                    f"dictionary entry {char} child {child_char!r}: children "
                    "must be integer pairs in leaf-first order"
                )
        entry = DictEntry(char, static, work, cp, children)
        dictionary.entries.append(entry)
        dictionary._index[(static, work, cp, children)] = char
    dictionary.raw_records = _typed(data["raw_records"], int, "raw_records")

    root_char = _typed(data["root_char"], int, "root_char")
    if not 0 <= root_char < len(dictionary.entries):
        raise ProfileFormatError("root character out of range")
    max_depth = data.get("max_depth")
    if max_depth is not None:
        _typed(max_depth, int, "max_depth")

    return ParallelismProfile(
        dictionary=dictionary,
        root_char=root_char,
        regions=regions,
        instructions_retired=_typed(
            data["instructions_retired"], int, "instructions_retired"
        ),
        total_work=_typed(data["total_work"], int, "total_work"),
        program_name=_typed(data.get("program", "<program>"), str, "program"),
        max_depth=max_depth,
    )


def save_profile(profile: ParallelismProfile, path_or_file: str | IO[str]) -> None:
    """Write a profile to a JSON file (path or open text file).

    Missing parent directories are created, so ``kremlin --save-profile
    results/run1/prog.json`` works on a fresh checkout."""
    text = json.dumps(profile_to_json(profile))
    if metrics_enabled():
        registry = get_metrics()
        registry.counter("serialize.profiles").inc()
        registry.counter("serialize.bytes").inc(len(text))
    if isinstance(path_or_file, str):
        parent = os.path.dirname(path_or_file)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path_or_file, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        path_or_file.write(text)


def load_profile(path_or_file: str | IO[str]) -> ParallelismProfile:
    """Read a profile written by :func:`save_profile`."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        data = json.load(path_or_file)
    return profile_from_json(data)
