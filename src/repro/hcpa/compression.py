"""Trace-size accounting for the dictionary compressor (paper §4.4).

The paper reports raw NPB-W parallelism profiles of 750 MB–54 GB shrinking
to 5–774 KB — a ~119,000× average reduction. We model record sizes the same
way: a raw trace stores one fixed-size summary per dynamic region, while the
compressed form stores one record per *character* (whose children list is
variable length) plus the root character.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hcpa.summaries import ParallelismProfile

#: Bytes per raw dynamic-region summary: static id (4), work (8), cp (8),
#: parent instance link (8), plus 4 bytes of framing.
RAW_RECORD_BYTES = 32

#: Fixed part of a dictionary record: char (4), static id (4), work (8),
#: cp (8), child-list length (4).
DICT_RECORD_FIXED_BYTES = 28

#: Bytes per (child char, count) pair in a dictionary record.
DICT_CHILD_PAIR_BYTES = 8


@dataclass(frozen=True)
class CompressionStats:
    """Raw vs compressed profile sizes for one run."""

    dynamic_regions: int
    dictionary_entries: int
    raw_bytes: int
    compressed_bytes: int

    @property
    def ratio(self) -> float:
        if self.compressed_bytes == 0:
            return float("inf")
        return self.raw_bytes / self.compressed_bytes

    def __str__(self) -> str:
        return (
            f"{self.dynamic_regions} dynamic regions "
            f"({_human(self.raw_bytes)}) -> {self.dictionary_entries} "
            f"dictionary entries ({_human(self.compressed_bytes)}), "
            f"{self.ratio:,.0f}x"
        )


def compression_stats(profile: ParallelismProfile) -> CompressionStats:
    dictionary = profile.dictionary
    entries = dictionary.entries
    child_pairs = sum(len(entry.children) for entry in entries)
    compressed = (
        4  # root character
        + DICT_RECORD_FIXED_BYTES * len(entries)
        + DICT_CHILD_PAIR_BYTES * child_pairs
    )
    return CompressionStats(
        dynamic_regions=dictionary.raw_records,
        dictionary_entries=len(dictionary.entries),
        raw_bytes=dictionary.raw_records * RAW_RECORD_BYTES,
        compressed_bytes=compressed,
    )


def record_compression_metrics(profile: ParallelismProfile) -> None:
    """Feed the compressor's effectiveness into the metrics registry.

    The dictionary hit ratio falls out of the interning bookkeeping:
    every dynamic region exit interns one raw record, and only misses
    grow the entry list, so ``hits = raw_records - entries``.
    """
    from repro.obs.metrics import get_metrics, metrics_enabled

    if not metrics_enabled():
        return
    dictionary = profile.dictionary
    registry = get_metrics()
    registry.counter("compress.raw_records").inc(dictionary.raw_records)
    registry.counter("compress.dictionary_entries").inc(
        len(dictionary.entries)
    )
    registry.counter("compress.hits").inc(
        dictionary.raw_records - len(dictionary.entries)
    )
    stats = compression_stats(profile)
    registry.gauge("compress.ratio").set(round(stats.ratio, 4))


def _human(size: int) -> str:
    value = float(size)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:,.1f} {unit}"
        value /= 1024
    return f"{value:,.1f} GB"
