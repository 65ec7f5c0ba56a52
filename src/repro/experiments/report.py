"""Plain-text rendering of experiment results (the paper's rows/series)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

__all__ = ["render_table", "render_series", "render_bars",
           "render_grouped_bars"]


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence]) -> str:
    """A fixed-width table with a title line."""
    materialized: List[List[str]] = [
        [_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title]
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series(title: str, series: dict) -> str:
    """One line per named series: ``name: v1  v2  v3``."""
    lines = [title]
    width = max((len(name) for name in series), default=0)
    for name, values in series.items():
        cells = "  ".join(_fmt(v) for v in values)
        lines.append(f"{name.ljust(width)}  {cells}")
    return "\n".join(lines)


def render_bars(title: str, values: Dict[str, float], width: int = 40,
                unit: str = "") -> str:
    """Horizontal ASCII bars, longest = ``width`` characters.

    The paper's figures are bar charts; this renders the same data in a
    terminal. Zero/negative values print as empty bars.
    """
    lines = [title]
    if not values:
        return title
    peak = max(values.values())
    label_width = max(len(name) for name in values)
    for name, value in values.items():
        length = 0 if peak <= 0 or value <= 0 else round(
            width * value / peak)
        bar = "#" * length
        lines.append(f"{name.ljust(label_width)}  "
                     f"{bar:<{width}}  {_fmt(value)}{unit}")
    return "\n".join(lines)


def render_grouped_bars(title: str,
                        groups: Dict[str, Dict[str, float]],
                        width: int = 40, unit: str = "") -> str:
    """Bar chart with one block per group (the Figure 1/2 layout)."""
    blocks = [title]
    peak = max((value for group in groups.values()
                for value in group.values()), default=0.0)
    label_width = max((len(name) for group in groups.values()
                       for name in group), default=1)
    for group_name, values in groups.items():
        blocks.append(f"[{group_name}]")
        for name, value in values.items():
            length = 0 if peak <= 0 or value <= 0 else round(
                width * value / peak)
            blocks.append(f"  {name.ljust(label_width)}  "
                          f"{'#' * length:<{width}}  {_fmt(value)}{unit}")
    return "\n".join(blocks)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)
