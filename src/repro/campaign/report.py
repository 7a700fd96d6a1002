"""Campaign reports: fold the result store into Figure-4-style grids.

A report is a **pure function of the plan and the store records** — no
timestamps, hostnames or execution order leak in — which is what makes
the acceptance property hold: an interrupted-and-resumed campaign, whose
store holds the same records in a different append order, renders a
report byte-identical to an uninterrupted run's.

With pooled execution the pin is stated as **fold-equivalence**:
``render_report(plan, records)`` consumes the record *set* — the
``records`` mapping is keyed by content-addressed cell id and every
lookup walks the plan's own cell order, so on-disk append order (which
is completion order under ``--cell-jobs > 1``) cannot reach the output.
One report per record set, whatever executor, pool width, interrupt
point or engine backend produced it; ``tests/test_campaign_executor.py``
pins this against injected completion-order permutations.

Layout: a header (campaign identity + completion summary), one verdict
grid per combination of the non-grid axes (rows/cols chosen by the
campaign's ``report`` section, rendered through the same
:func:`~repro.analysis.reporting.format_grid` that prints the paper's
Figure 4 map), and a per-cell detail table with convergence statistics.

Verdict labels::

    YES (4/4)   every run converged          NO (0/4)   none did
    p=0.50 (2/4) some did                    n/a        structurally infeasible
    ERR         the cell failed to run       ...        not yet run (pending)
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.reporting import format_grid, format_table
from repro.campaign.planner import CampaignPlan, PlannedCell
from repro.campaign.runner import status_of_records
from repro.engine.experiment import ExperimentResult

PENDING_LABEL = "..."
NA_LABEL = "n/a"
ERROR_LABEL = "ERR"


def _verdict(record: Optional[Dict[str, Any]]) -> str:
    if record is None:
        return PENDING_LABEL
    status = record.get("status")
    if status == "na":
        return NA_LABEL
    if status == "error":
        return ERROR_LABEL
    result = record["result"]
    runs, successes = result["runs"], result["successes"]
    if successes == runs:
        return f"YES ({successes}/{runs})"
    if successes == 0:
        return f"NO (0/{runs})"
    return f"p={successes / runs:.2f} ({successes}/{runs})"


def _steps_columns(record: Optional[Dict[str, Any]]) -> Tuple[str, str, str]:
    """(mean, median, max) interactions-to-stabilise, or dashes."""
    if record is None or record.get("status") != "ok":
        return "-", "-", "-"
    result = ExperimentResult.from_dict(record["result"])
    mean = result.mean_convergence_steps
    median = result.median_convergence_steps
    largest = result.max_convergence_steps
    return (
        f"{mean:.0f}" if mean is not None else "-",
        f"{median:.0f}" if median is not None else "-",
        str(largest) if largest is not None else "-",
    )


def render_report(plan: CampaignPlan,
                  records: Dict[str, Dict[str, Any]]) -> str:
    """Render the full campaign report as plain text."""
    campaign = plan.campaign
    lines: List[str] = []
    lines.append(f"campaign: {campaign.name} (grid hash {plan.campaign_hash})")
    if campaign.description:
        lines.append(campaign.description)

    status = status_of_records(plan, records)
    summary = f"cells: {status.done}/{plan.total} done"
    if status.na:
        summary += f", {status.na} n/a"
    if status.errors:
        summary += f", {status.errors} failed"
    if status.pending:
        summary += f", {status.pending} pending"
    lines.append(summary)

    lines.extend(_verdict_grids(plan, records))
    lines.append("")
    lines.append("per-cell details:")
    lines.append(_detail_table(plan, records))
    lines.append("")
    lines.append("YES/NO = all/none of the cell's runs converged, p=x.xx = the")
    lines.append("observed success fraction, n/a = structurally infeasible cell")
    lines.append("(see its reason column), ERR = failed to run, ... = pending.")
    return "\n".join(lines) + "\n"


def _verdict_grids(plan: CampaignPlan,
                   records: Dict[str, Dict[str, Any]]) -> List[str]:
    """One Figure-4-style grid per combination of the non-grid axes."""
    campaign = plan.campaign
    rows_axis, cols_axis = campaign.report_axes()
    axis_points = dict(campaign.axes)
    row_labels = [point.label for point in axis_points[rows_axis]]
    col_labels = [point.label for point in axis_points[cols_axis]]
    # A single-axis campaign (or report rows == cols) degrades to one
    # verdict column instead of fabricating an n x n cross product.
    one_dimensional = rows_axis == cols_axis
    other_axes = [name for name in campaign.axis_names
                  if name not in (rows_axis, cols_axis)]

    by_coordinates: Dict[Tuple[Tuple[str, str], ...], PlannedCell] = {
        cell.coordinates: cell for cell in plan.cells}

    def grid_for(fixed: Dict[str, str]) -> str:
        def verdict_at(coordinates: Dict[str, str]) -> str:
            key = tuple((axis, coordinates[axis]) for axis in campaign.axis_names)
            cell = by_coordinates.get(key)
            if cell is None:
                return PENDING_LABEL
            return _verdict(records.get(cell.cell_id))

        if one_dimensional:
            def cell_text(row_label: object, _col: object) -> str:
                return verdict_at({**fixed, rows_axis: str(row_label)})

            return format_grid(rows_axis, row_labels, ["verdict"], cell_text)

        def cell_text(row_label: object, col_label: object) -> str:
            return verdict_at({**fixed, rows_axis: str(row_label),
                               cols_axis: str(col_label)})

        return format_grid(f"{rows_axis} \\ {cols_axis}", row_labels, col_labels,
                           cell_text)

    lines: List[str] = []
    if not other_axes:
        lines.append("")
        lines.append(grid_for({}))
        return lines
    other_labels = [[point.label for point in axis_points[axis]]
                    for axis in other_axes]
    for combo in itertools.product(*other_labels):
        fixed = dict(zip(other_axes, combo))
        lines.append("")
        # Join over the (axis, label) pairs, not fixed.items(): header
        # bytes must depend on the spec's axis order alone (RPL006).
        lines.append("== " + " ".join(
            f"{axis}={label}" for axis, label in zip(other_axes, combo)) + " ==")
        lines.append(grid_for(fixed))
    return lines


def _detail_table(plan: CampaignPlan,
                  records: Dict[str, Dict[str, Any]]) -> str:
    campaign = plan.campaign
    headers = (["#", "cell"] + campaign.axis_names
               + ["verdict", "mean", "median", "max", "note"])
    rows = []
    for cell in plan.cells:
        record = records.get(cell.cell_id)
        mean, median, largest = _steps_columns(record)
        if record is None:
            note = "pending"
        elif record.get("status") == "na":
            note = record.get("reason", "")
        elif record.get("status") == "error":
            note = record.get("error", "")
        else:
            note = ""
        rows.append([cell.index, cell.cell_id[:8]]
                    + [label for _, label in cell.coordinates]
                    + [_verdict(record), mean, median, largest, note])
    return format_table(headers, rows)
