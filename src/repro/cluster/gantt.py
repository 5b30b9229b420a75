"""ASCII Gantt rendering of traces and schedules (Fig 12-style lanes).

Turns a :class:`~repro.cluster.trace.Trace` or a
:class:`~repro.cluster.schedule.Schedule` into a per-lane text timeline,
so examples and figures can *show* overlap instead of asserting it.
"""

from __future__ import annotations

from repro.cluster.schedule import Schedule
from repro.cluster.trace import CATEGORIES, Trace

__all__ = ["gantt_from_trace", "gantt_from_schedule"]

_GLYPHS = {"compute": "#", "mpi": "=", "pcie": "~", "retry": "!",
           "hedge": "+", "other": ".", "deadline": "x", "partition": "%"}

#: schedule categories finer than the trace's (``perfmodel/overlap``
#: accounts convolution and segment FFTs apart) draw as their family
_FAMILY = {"convolution": "compute", "local_fft": "compute"}


def _render(lanes: dict[str, list[tuple[float, float, str]]], span: float,
            width: int, title: str) -> str:
    if span <= 0:
        return title
    label_w = max(len(k) for k in lanes)
    lines = [title] if title else []
    for name, intervals in lanes.items():
        row = [" "] * width
        for t0, t1, cat in intervals:
            c0 = min(width - 1, int(round(t0 / span * width)))
            c1 = max(c0 + 1, int(round(t1 / span * width)))
            # unmapped categories stand out
            glyph = _GLYPHS.get(_FAMILY.get(cat, cat), "?")
            for c in range(c0, min(c1, width)):
                row[c] = glyph
        lines.append(f"{name.ljust(label_w)} |{''.join(row)}|")
    # legend is sourced from the canonical category list so a category
    # added to the trace cannot silently vanish from the key
    legend = "  ".join(f"{_GLYPHS.get(c, '?')}={c}" for c in CATEGORIES)
    lines.append(f"{' ' * label_w}  0{' ' * (width - len(f'{span:.3g}') - 1)}"
                 f"{span:.3g}")
    lines.append(f"({legend})")
    return "\n".join(lines)


def gantt_from_trace(trace: Trace, width: int = 64, title: str = "") -> str:
    """One lane per rank; glyphs by event category."""
    if not trace.events:
        return title
    t_min = min(e.t_start for e in trace.events)
    span = max(e.t_end for e in trace.events) - t_min
    ranks = sorted({e.rank for e in trace.events})
    lanes = {
        f"rank {r}": [(e.t_start - t_min, e.t_end - t_min, e.category)
                      for e in trace.events if e.rank == r]
        for r in ranks
    }
    return _render(lanes, span, width, title)


def gantt_from_schedule(schedule: Schedule, width: int = 64,
                        title: str = "") -> str:
    """One lane per resource; glyphs by task category."""
    result = schedule.run()
    if not result:
        return title
    span = schedule.makespan
    resources = sorted({s.task.resource for s in result.values()},
                       key=repr)
    lanes = {}
    for res in resources:
        name = "/".join(str(part) for part in res)
        lanes[name] = [(s.start, s.end, s.task.category)
                       for s in result.values() if s.task.resource == res]
    return _render(lanes, span, width, title)
