"""Source files, locations, and spans for MiniC diagnostics.

Every AST node and (transitively) every IR region carries a
:class:`SourceSpan` so that planner output can point at concrete source lines,
matching the ``imageBlur.c (49-58)`` style of Kremlin's user interface
(Figure 3 of the paper).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SourceLocation:
    """A single point in a source file (1-based line and column)."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"

    def __lt__(self, other: "SourceLocation") -> bool:
        return (self.line, self.column) < (other.line, other.column)

    def __le__(self, other: "SourceLocation") -> bool:
        return (self.line, self.column) <= (other.line, other.column)


@dataclass(frozen=True)
class SourceSpan:
    """A contiguous range of source text, used to label code regions.

    Spans are closed on both ends: ``lines`` covers ``start.line`` through
    ``end.line`` inclusive, mirroring how Kremlin reports region extents.
    """

    start: SourceLocation
    end: SourceLocation
    filename: str = "<input>"

    @staticmethod
    def point(line: int, column: int, filename: str = "<input>") -> "SourceSpan":
        loc = SourceLocation(line, column)
        return SourceSpan(loc, loc, filename)

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        """Smallest span covering both ``self`` and ``other``."""
        start = self.start if self.start <= other.start else other.start
        end = self.end if other.end <= self.end else other.end
        return SourceSpan(start, end, self.filename)

    @property
    def line_range(self) -> tuple[int, int]:
        return (self.start.line, self.end.line)

    def __str__(self) -> str:
        if self.start.line == self.end.line:
            return f"{self.filename} ({self.start.line})"
        return f"{self.filename} ({self.start.line}-{self.end.line})"


@dataclass
class SourceFile:
    """Source text plus precomputed line offsets for location lookup."""

    name: str
    text: str
    _line_starts: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        starts = [0]
        for index, char in enumerate(self.text):
            if char == "\n":
                starts.append(index + 1)
        self._line_starts = starts

    @property
    def num_lines(self) -> int:
        return len(self._line_starts)

    def location_of(self, offset: int) -> SourceLocation:
        """Map a character offset to a 1-based line/column location."""
        if offset < 0 or offset > len(self.text):
            raise ValueError(f"offset {offset} out of range for {self.name}")
        line = bisect_right(self._line_starts, offset)
        return SourceLocation(
            line=line, column=offset - self._line_starts[line - 1] + 1
        )

    def line_text(self, line: int) -> str:
        """Return the text of a 1-based line, without its newline."""
        if line < 1 or line > self.num_lines:
            raise ValueError(f"line {line} out of range for {self.name}")
        start = self._line_starts[line - 1]
        end = self._line_starts[line] - 1 if line < self.num_lines else len(self.text)
        return self.text[start:end]

    def span(self, start_offset: int, end_offset: int) -> SourceSpan:
        return SourceSpan(
            self.location_of(start_offset),
            self.location_of(max(start_offset, end_offset - 1)) if end_offset > start_offset else self.location_of(start_offset),
            self.name,
        )
