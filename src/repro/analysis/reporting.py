"""Plain-text table rendering for benchmark and example output.

The paper is a theory paper and reports no numeric tables, so the benchmark
harness regenerates its *figures and theorems* as plain-text tables: the
hierarchy of Figure 1, the map of Figure 4, FTT / overhead / memory sweeps.
This module keeps that formatting in one place.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a list of rows as an aligned plain-text table."""
    rows = [[str(cell) for cell in row] for row in rows]
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            if index >= len(widths):
                widths.append(len(cell))
            else:
                widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        padded = [cell.ljust(widths[index]) for index, cell in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"

    separator = "|-" + "-|-".join("-" * width for width in widths) + "-|"
    lines = [render_row(headers), separator]
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)


def format_grid(
    corner: str,
    row_keys: Sequence[object],
    col_keys: Sequence[object],
    cell: Callable[[object, object], object],
) -> str:
    """Render a 2-D grid of values as a table.

    ``corner`` labels the row-key column, ``cell(row_key, col_key)`` produces
    each body cell.  This is the shared renderer behind the Figure 4 map and
    the campaign verdict grids (:mod:`repro.campaign.report`).
    """
    headers = [corner] + [str(key) for key in col_keys]
    rows = [[str(row)] + [cell(row, col) for col in col_keys] for row in row_keys]
    return format_table(headers, rows)
