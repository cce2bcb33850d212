"""Formatting of benchmark measurements into tables and series.

The paper's evaluation is presented as tables (memory / runtime per engine
per query) and figures (memory / runtime as a function of document size).
The helpers here turn the flat :class:`~repro.bench.harness.Measurement`
rows into exactly those two shapes, as plain text that the benchmark scripts
print.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.harness import Measurement


def _format_bytes(value: float) -> str:
    if value >= 1 << 20:
        return f"{value / (1 << 20):.2f} MiB"
    if value >= 1 << 10:
        return f"{value / (1 << 10):.1f} KiB"
    return f"{int(value)} B"


def _format_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f} s"
    return f"{value * 1000:.1f} ms"


_METRIC_FORMATTERS: Dict[str, Callable[[float], str]] = {
    "peak_buffer_bytes": _format_bytes,
    "elapsed_seconds": _format_seconds,
    "output_bytes": _format_bytes,
    "document_bytes": _format_bytes,
}


def _metric_value(measurement: Measurement, metric: str) -> float:
    data = measurement.as_dict()
    if metric not in data:
        raise KeyError(f"unknown metric {metric!r}")
    return float(data[metric])  # type: ignore[arg-type]


def format_table(
    measurements: Sequence[Measurement],
    metric: str = "peak_buffer_bytes",
    row_key: str = "query",
    column_key: str = "engine",
    title: Optional[str] = None,
) -> str:
    """Render a rows × columns table of one metric.

    By default rows are queries and columns are engines — the shape of the
    paper's per-query memory/runtime tables.
    """
    formatter = _METRIC_FORMATTERS.get(metric, lambda value: f"{value:g}")
    rows: List[str] = []
    columns: List[str] = []
    cells: Dict[Tuple[str, str], float] = {}
    for measurement in measurements:
        data = measurement.as_dict()
        row = str(data[row_key])
        column = str(data[column_key])
        if row not in rows:
            rows.append(row)
        if column not in columns:
            columns.append(column)
        cells[(row, column)] = _metric_value(measurement, metric)

    header = [row_key] + columns
    body: List[List[str]] = []
    for row in rows:
        line = [row]
        for column in columns:
            value = cells.get((row, column))
            line.append(formatter(value) if value is not None else "-")
        body.append(line)

    widths = [
        max(len(header[index]), *(len(line[index]) for line in body)) if body else len(header[index])
        for index in range(len(header))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header[index].ljust(widths[index]) for index in range(len(header))))
    lines.append("  ".join("-" * widths[index] for index in range(len(header))))
    for line in body:
        lines.append("  ".join(line[index].ljust(widths[index]) for index in range(len(header))))
    return "\n".join(lines)


def series_by(
    measurements: Sequence[Measurement],
    x_key: str = "document_bytes",
    metric: str = "peak_buffer_bytes",
    series_key: str = "engine",
) -> Dict[str, List[Tuple[float, float]]]:
    """Group measurements into per-series (x, y) points, sorted by x.

    This is the data behind the scaling figures: one series per engine,
    x = document size, y = the metric.
    """
    series: Dict[str, List[Tuple[float, float]]] = {}
    for measurement in measurements:
        data = measurement.as_dict()
        name = str(data[series_key])
        x = float(data[x_key])  # type: ignore[arg-type]
        y = _metric_value(measurement, metric)
        series.setdefault(name, []).append((x, y))
    for points in series.values():
        points.sort(key=lambda point: point[0])
    return series


def format_series(
    measurements: Sequence[Measurement],
    x_key: str = "document_bytes",
    metric: str = "peak_buffer_bytes",
    series_key: str = "engine",
    title: Optional[str] = None,
) -> str:
    """Render scaling series as an aligned text table (one row per x value)."""
    series = series_by(measurements, x_key=x_key, metric=metric, series_key=series_key)
    formatter = _METRIC_FORMATTERS.get(metric, lambda value: f"{value:g}")
    x_formatter = _METRIC_FORMATTERS.get(x_key, lambda value: f"{value:g}")
    xs = sorted({x for points in series.values() for x, _ in points})
    names = list(series)
    header = [x_key] + names
    body: List[List[str]] = []
    for x in xs:
        line = [x_formatter(x)]
        for name in names:
            match = next((y for px, y in series[name] if px == x), None)
            line.append(formatter(match) if match is not None else "-")
        body.append(line)
    widths = [
        max(len(header[index]), *(len(line[index]) for line in body)) if body else len(header[index])
        for index in range(len(header))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header[index].ljust(widths[index]) for index in range(len(header))))
    lines.append("  ".join("-" * widths[index] for index in range(len(header))))
    for line in body:
        lines.append("  ".join(line[index].ljust(widths[index]) for index in range(len(header))))
    return "\n".join(lines)
