"""Plain-text rendering of result tables.

The exhibits regenerate the paper's tables and figures as text;
this module owns the formatting so every exhibit prints consistently.
"""

from __future__ import annotations

from collections.abc import Sequence


def format_percent(fraction: float, digits: int = 1) -> str:
    """Format ``fraction`` (0..1) as a percentage string, e.g. ``'74.2%'``."""
    return f"{100.0 * fraction:.{digits}f}%"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table.

    Every cell is converted with ``str``; numeric alignment is right,
    text alignment is left, decided per column by inspecting the rows.
    """
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    numeric = [
        all(_looks_numeric(row[i]) for row in cells) if cells else False
        for i in range(len(headers))
    ]

    def fmt_row(row: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(row):
            parts.append(cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in cells)
    return "\n".join(lines)


def _looks_numeric(cell: str) -> bool:
    stripped = cell.rstrip("%MKG ").replace(",", "")
    if not stripped:
        return False
    try:
        float(stripped)
    except ValueError:
        return False
    return True
