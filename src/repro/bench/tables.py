"""ASCII rendering of the paper's tables and figure series.

The figure table regenerates every table and figure of the paper as
text: numeric tables for the tables, labeled series/bars for the figures.
These helpers keep that output consistent across its rows.
"""

from __future__ import annotations

__all__ = ["render_table", "render_bars", "render_series", "fmt"]


def fmt(value, digits: int = 3) -> str:
    """Compact numeric formatting (ints verbatim, floats to *digits*)."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 10 ** 6 or abs(value) < 10 ** -3:
            return f"{value:.{digits}e}"
        return f"{value:.{digits}g}"
    return str(value)


def render_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Fixed-width table with a header rule."""
    cells = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_bars(items: list[tuple[str, float]], width: int = 40,
                title: str = "", unit: str = "") -> str:
    """Horizontal ASCII bar chart (for the paper's bar figures)."""
    if not items:
        return title
    peak = max(v for _, v in items)
    label_w = max(len(k) for k, _ in items)
    lines = [title] if title else []
    for k, v in items:
        n = 0 if peak <= 0 else int(round(width * v / peak))
        lines.append(f"{k.ljust(label_w)}  {'#' * n}{' ' * (width - n)} "
                     f"{fmt(v)}{unit}")
    return "\n".join(lines)


def render_series(x_label: str, x_values: list, series: dict[str, list],
                  title: str = "") -> str:
    """Multi-series table keyed by an x axis (for the paper's line plots)."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [s[i] for s in series.values()])
    return render_table(headers, rows, title=title)
