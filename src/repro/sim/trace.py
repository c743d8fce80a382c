"""Timeline tracing for simulated runs.

Each simulated activity (model loading, transmission, encoding, head
processing) records a :class:`Span`.  The recorder can render an ASCII Gantt
chart per device — this regenerates the paper's Fig. 3 inference timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Span categories, matching the legend of the paper's Fig. 3.
CATEGORY_LOADING = "model_loading"
CATEGORY_TRANSMISSION = "transmission"
CATEGORY_COMPUTE = "compute"
CATEGORY_HEAD = "task_head"
CATEGORY_QUEUE = "queue_wait"


@dataclass(frozen=True)
class Span:
    """One traced activity on one device (or link)."""

    device: str
    category: str
    label: str
    start: float
    end: float
    request_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Span") -> bool:
        """True if the two spans overlap in time (open interval)."""
        return self.start < other.end and other.start < self.end


@dataclass
class TraceRecorder:
    """Collects spans during a simulated run."""

    spans: List[Span] = field(default_factory=list)
    enabled: bool = True

    def record(
        self,
        device: str,
        category: str,
        label: str,
        start: float,
        end: float,
        request_id: Optional[int] = None,
    ) -> None:
        """Append a span; no-op when disabled."""
        if not self.enabled:
            return
        if end < start:
            raise ValueError(f"span ends before it starts: {label} [{start}, {end}]")
        self.spans.append(Span(device, category, label, start, end, request_id))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def by_device(self) -> Dict[str, List[Span]]:
        """Spans grouped by device, each group sorted by start time."""
        grouped: Dict[str, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.device, []).append(span)
        # repro-lint: disable=R004 -- every group is sorted in place; visit order cannot change the result
        for spans in grouped.values():
            spans.sort(key=lambda s: (s.start, s.end))
        return grouped

    def by_category(self, category: str) -> List[Span]:
        """All spans with the given category, sorted by start."""
        return sorted(
            (span for span in self.spans if span.category == category),
            key=lambda s: (s.start, s.end),
        )

    def makespan(self) -> float:
        """End time of the last span (0.0 when empty)."""
        return max((span.end for span in self.spans), default=0.0)

    # ------------------------------------------------------------------
    # Rendering (Fig. 3)
    # ------------------------------------------------------------------
    def render_gantt(self, width: int = 72) -> str:
        """ASCII Gantt chart, one row per device, matching Fig. 3's layout."""
        grouped = self.by_device()
        if not grouped:
            return "(empty trace)"
        end = self.makespan()
        if end <= 0:
            return "(zero-length trace)"
        scale = width / end
        symbol = {
            CATEGORY_LOADING: "L",
            CATEGORY_TRANSMISSION: "t",
            CATEGORY_COMPUTE: "#",
            CATEGORY_HEAD: "H",
            CATEGORY_QUEUE: ".",
        }
        lines = [f"timeline 0.0s .. {end:.2f}s  (L=loading t=transmission #=encoding H=head .=queued)"]
        for device in sorted(grouped):
            row = [" "] * width
            for span in grouped[device]:
                lo = min(width - 1, int(span.start * scale))
                hi = min(width, max(lo + 1, int(span.end * scale)))
                mark = symbol.get(span.category, "?")
                for idx in range(lo, hi):
                    row[idx] = mark
            lines.append(f"{device:>12} |{''.join(row)}|")
        return "\n".join(lines)
