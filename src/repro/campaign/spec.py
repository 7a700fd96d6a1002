"""Campaign specifications: a declarative grid over experiment parameters.

A campaign spec is pure data — a dict (typically loaded from a JSON file)
with no third-party dependencies — declaring a *grid* of experiments:

``base``
    :class:`~repro.protocols.registry.ExperimentSpec` fields shared by
    every cell (e.g. ``protocol``, ``population``, ``predicate``).
``axes``
    An ordered mapping ``axis name -> list of points``.  The campaign is
    the full cross product of the axes.  A point is either a **scalar**
    (assigned to the spec field named like the axis: ``"omissions": [0, 1,
    2]`` sweeps the omission budget) or a **dict of field overrides**
    (several fields moving together as one logical point — e.g. an
    "assumption" axis whose points set ``simulator`` *and* ``model`` and
    carry a ``"label"`` used in reports).
``runs`` / ``base_seed`` / ``max_steps`` / ``stability_window``
    The per-cell seed block: every cell repeats its experiment with seeds
    ``base_seed .. base_seed + runs - 1`` under the same budget.  Being
    part of each cell's identity hash, changing any of these re-runs the
    grid rather than silently reusing stale results.
``report``
    Optional ``{"rows": <axis>, "cols": <axis>}`` choosing which two axes
    span the report's verdict grids (default: the first two).

Example (the shipped Figure-4 omission sweep slice, abridged)::

    {
      "name": "figure4-omission-slice",
      "base": {"protocol": "pairing", "population": 6},
      "axes": {
        "assumption": [
          {"label": "knowledge-of-omissions", "simulator": "skno",
           "model": "I3", "omission_bound": 2},
          {"label": "knowledge-of-n", "simulator": "known-n", "model": "IO"}
        ],
        "topology": [
          {"label": "complete", "scheduler": "random"},
          {"label": "ring", "scheduler": "ring-graph"}
        ],
        "omissions": [0, 1, 2]
      },
      "runs": 4, "base_seed": 1, "max_steps": 150000,
      "stability_window": 200,
      "report": {"rows": "topology", "cols": "omissions"}
    }
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.protocols.registry import ExperimentSpec

#: ExperimentSpec field names a campaign may set (``base`` or axis points).
SPEC_FIELDS: Tuple[str, ...] = tuple(
    spec_field.name for spec_field in dataclasses.fields(ExperimentSpec))

#: Top-level campaign keys beyond ``base``/``axes``.
_TOP_LEVEL_KEYS = frozenset(
    {"name", "description", "base", "axes", "runs", "base_seed", "max_steps",
     "stability_window", "report"})


class CampaignError(Exception):
    """A campaign spec (or its store) is malformed or inconsistent."""


@dataclass(frozen=True)
class AxisPoint:
    """One point on one axis: a report label plus the spec fields it sets."""

    label: str
    overrides: Tuple[Tuple[str, Any], ...]

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.overrides)


@dataclass
class CampaignSpec:
    """A validated campaign: base fields, ordered axes, and the seed block."""

    name: str
    base: Dict[str, Any]
    axes: List[Tuple[str, List[AxisPoint]]]
    runs: int = 5
    base_seed: int = 0
    max_steps: int = 100_000
    stability_window: int = 0
    description: str = ""
    report_rows: Optional[str] = None
    report_cols: Optional[str] = None
    #: The dict this spec was parsed from (kept for provenance; not hashed).
    source: Dict[str, Any] = field(default_factory=dict, repr=False)

    @property
    def axis_names(self) -> List[str]:
        return [name for name, _ in self.axes]

    def report_axes(self) -> Tuple[str, str]:
        """The (rows, cols) axes spanning each report grid.

        An unset side defaults to the first axis the other side does not
        already use, so a partially specified ``report`` section never
        collapses a two-axis campaign into a one-dimensional grid; rows ==
        cols only happens for single-axis campaigns or when both are set
        explicitly equal.
        """
        names = self.axis_names

        def first_other_than(taken: Optional[str]) -> str:
            for name in names:
                if name != taken:
                    return name
            return names[0]

        rows = self.report_rows if self.report_rows is not None \
            else first_other_than(self.report_cols)
        cols = self.report_cols if self.report_cols is not None \
            else first_other_than(rows)
        return rows, cols


def _parse_point(axis: str, raw: Any) -> AxisPoint:
    """Normalise one axis point (scalar or dict of overrides) to an AxisPoint."""
    if isinstance(raw, dict):
        overrides = {key: value for key, value in raw.items() if key != "label"}
        if not overrides:
            raise CampaignError(
                f"axis {axis!r}: a dict point must override at least one spec field")
        label = raw.get("label")
        if label is None:
            label = ",".join(f"{key}={value}" for key, value in sorted(overrides.items()))
        _check_fields(overrides, context=f"axis {axis!r} point {label!r}")
        return AxisPoint(label=str(label), overrides=tuple(sorted(overrides.items())))
    if isinstance(raw, (list, tuple)):
        raise CampaignError(
            f"axis {axis!r}: points must be scalars or dicts, got {type(raw).__name__}")
    _check_fields({axis: raw}, context=f"axis {axis!r}")
    return AxisPoint(label=str(raw), overrides=((axis, raw),))


def _check_fields(overrides: Dict[str, Any], context: str) -> None:
    unknown = sorted(set(overrides) - set(SPEC_FIELDS))
    if unknown:
        known = ", ".join(SPEC_FIELDS)
        raise CampaignError(
            f"{context}: unknown experiment field(s) {', '.join(map(repr, unknown))}; "
            f"ExperimentSpec fields are: {known}")


def campaign_from_dict(data: Dict[str, Any]) -> CampaignSpec:
    """Parse and validate a campaign spec from its dict form."""
    if not isinstance(data, dict):
        raise CampaignError(f"a campaign spec must be a dict, got {type(data).__name__}")
    unknown = sorted(set(data) - _TOP_LEVEL_KEYS)
    if unknown:
        raise CampaignError(
            f"unknown campaign key(s) {', '.join(map(repr, unknown))}; "
            f"expected a subset of: {', '.join(sorted(_TOP_LEVEL_KEYS))}")
    name = data.get("name")
    if not name or not isinstance(name, str):
        raise CampaignError("a campaign needs a non-empty string 'name'")
    base = data.get("base", {})
    if not isinstance(base, dict):
        raise CampaignError("'base' must be a dict of ExperimentSpec fields")
    _check_fields(base, context="'base'")

    raw_axes = data.get("axes", {})
    if not isinstance(raw_axes, dict) or not raw_axes:
        raise CampaignError("'axes' must be a non-empty dict of axis-name -> points")
    axes: List[Tuple[str, List[AxisPoint]]] = []
    for axis, points in raw_axes.items():
        if not isinstance(points, list) or not points:
            raise CampaignError(f"axis {axis!r} must list at least one point")
        parsed = [_parse_point(axis, point) for point in points]
        labels = [point.label for point in parsed]
        if len(set(labels)) != len(labels):
            raise CampaignError(f"axis {axis!r} has duplicate point labels: {labels}")
        axes.append((axis, parsed))

    runs = data.get("runs", 5)
    if not isinstance(runs, int) or runs < 1:
        raise CampaignError("'runs' must be a positive integer")
    max_steps = data.get("max_steps", 100_000)
    if not isinstance(max_steps, int) or max_steps < 1:
        raise CampaignError("'max_steps' must be a positive integer")
    stability_window = data.get("stability_window", 0)
    if not isinstance(stability_window, int) or stability_window < 0:
        raise CampaignError("'stability_window' must be a non-negative integer")
    base_seed = data.get("base_seed", 0)
    if not isinstance(base_seed, int):
        raise CampaignError("'base_seed' must be an integer")

    report = data.get("report", {})
    if not isinstance(report, dict):
        raise CampaignError("'report' must be a dict with optional 'rows'/'cols'")
    axis_names = [axis for axis, _ in axes]
    for key in ("rows", "cols"):
        value = report.get(key)
        if value is not None and value not in axis_names:
            raise CampaignError(
                f"report {key}={value!r} is not an axis; axes are: {axis_names}")

    return CampaignSpec(
        name=name,
        base=dict(base),
        axes=axes,
        runs=runs,
        base_seed=base_seed,
        max_steps=max_steps,
        stability_window=stability_window,
        description=str(data.get("description", "")),
        report_rows=report.get("rows"),
        report_cols=report.get("cols"),
        source=data,
    )


def campaign_from_file(path: str) -> CampaignSpec:
    """Load a campaign spec from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise CampaignError(f"cannot read campaign spec {path!r}: {error}") from None
    except json.JSONDecodeError as error:
        raise CampaignError(f"campaign spec {path!r} is not valid JSON: {error}") from None
    return campaign_from_dict(data)
