"""Formatted text output — the framework's "visualizer" stage.

The authors post-process ``runs.csv`` into seaborn charts; in a
terminal-only reproduction the equivalent deliverable is aligned text
tables, one per paper figure, which the examples print and
``EXPERIMENTS.md`` embeds.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["render_table", "render_breakdown", "format_value"]


def format_value(value, precision: int = 3) -> str:
    """Human-friendly cell formatting."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 10_000 or 0 < abs(value) < 1e-3:
            return f"{value:.2e}"
        return f"{value:.{precision}g}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    *,
    title: str | None = None,
    precision: int = 3,
) -> str:
    """Render an aligned, pipe-separated text table."""
    str_rows = [[format_value(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_breakdown(
    fractions: dict[str, float], *, width: int = 40, title: str | None = None
) -> str:
    """ASCII stacked-bar rendering of a task/function breakdown."""
    lines = []
    if title:
        lines.append(title)
    for name, fraction in sorted(fractions.items(), key=lambda kv: -kv[1]):
        bar = "#" * max(0, round(fraction * width))
        lines.append(f"  {name:<22s} {100 * fraction:5.1f}% {bar}")
    return "\n".join(lines)

