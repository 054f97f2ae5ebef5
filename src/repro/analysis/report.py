"""Text rendering of reproduced tables and figures."""

from __future__ import annotations

from repro.analysis.figures import FigureData
from repro.utils.text import format_percent, render_table


def render_figure(data: FigureData, percent: bool = True) -> str:
    """Render a figure's series as a workloads-by-configs table.

    The AVG column the paper prints in every coverage figure is appended.
    """
    x_labels = data.workloads()
    headers = ["config"] + x_labels + ["AVG"]
    rows = []
    for series in data.series:
        cells = [series.label]
        for x in x_labels:
            value = series.values.get(x)
            if value is None:
                cells.append("-")
            elif percent:
                cells.append(format_percent(value))
            else:
                cells.append(f"{value:.3f}")
        cells.append(
            format_percent(series.average) if percent else f"{series.average:.3f}"
        )
        rows.append(cells)
    return render_table(headers, rows, title=f"{data.figure_id}: {data.title}")
