"""Campaign planning: expand a grid into content-addressed cells.

The planner takes a validated :class:`~repro.campaign.spec.CampaignSpec`
and expands the cross product of its axes into an ordered list of
:class:`PlannedCell` values.  Each cell carries

* the resolved :class:`~repro.protocols.registry.ExperimentSpec` field
  dict (``base`` overlaid with every axis point's overrides, later axes
  winning),
* a **content-addressed id**: a SHA-256 over the canonical JSON of the
  resolved fields plus the seed block (``runs``/``base_seed``/
  ``max_steps``/``stability_window``).  The id depends only on *what the
  cell computes*, never on grid position or labels — re-ordering axes or
  renaming labels keeps finished results valid, while touching any field
  that could change outcomes changes the id and re-runs the cell,
* an optional ``skip_reason`` for cells that are structurally infeasible
  (``n/a`` in reports): omission budgets on non-omissive models, and the
  knowledge-of-``n`` simulator on sparse interaction graphs, where the
  ``Nn`` naming phase deadlocks (documented in
  ``benchmarks/bench_figure_4_results_map.py``),
* an optional ``backend_reason`` explaining why a cell that asked for the
  ``auto`` backend fell back to ``python``.

``backend="auto"`` cells are resolved **here, before cell hashing**
(:func:`repro.protocols.registry.resolve_backend`): the content address
covers the *concrete* backend the cell will run on, so a store produced
under ``auto`` is byte-identical to one produced under the equivalent
explicit backend, and resumes stay fold-equivalent across fan-out modes.
Resolution is deterministic in the resolved fields — it never consults
timings — and a probe failure downgrades the cell to ``python`` with the
compile error recorded as ``backend_reason``, never killing the plan.

The plan's ``campaign_hash`` fingerprints the whole grid; the result
store records it so a store can only ever be resumed against the campaign
that produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.spec import AxisPoint, CampaignError, CampaignSpec
from repro.engine.backends import BackendError
from repro.interaction.models import MODELS_BY_NAME
from repro.protocols.registry import (
    ADVERSARIES,
    PREDICATES,
    PROTOCOLS,
    SCHEDULERS,
    SIMULATORS,
    ExperimentSpec,
    resolve_backend,
)

#: Registry-key spec fields checked at plan time (``field -> registry``).
#: Key resolution otherwise only happens inside ``ExperimentSpec.build()``
#: mid-sweep; checking here fails the whole campaign before a single cell
#: runs.  The registries are module-level and identical in process-pool
#: workers, so a key valid here is valid everywhere.
_KEY_REGISTRIES = {
    "protocol": PROTOCOLS,
    "simulator": SIMULATORS,
    "predicate": PREDICATES,
    "scheduler": SCHEDULERS,
    "adversary": ADVERSARIES,
}

#: Graph schedulers too sparse for the knowledge-of-``n`` naming phase:
#: ``Nn`` assigns ids through same-id collisions, which assumes any two
#: agents can eventually meet; on these topologies it can deadlock.
SPARSE_GRAPH_SCHEDULERS: Tuple[str, ...] = ("ring-graph", "star-graph")

#: Every ExperimentSpec field with its default (``None`` for the required
#: fields) — the base layer cell identities resolve against, so explicitly
#: writing a default into a campaign spec is a hashing no-op.
_SPEC_FIELD_DEFAULTS: Dict[str, Any] = {
    spec_field.name: (None if spec_field.default is dataclasses.MISSING
                      else spec_field.default)
    for spec_field in dataclasses.fields(ExperimentSpec)
}

_KWARGS_FIELDS = ("protocol_kwargs", "scheduler_kwargs", "adversary_kwargs")


def _resolved_cell_fields(overlay: Dict[str, Any]) -> Dict[str, Any]:
    """The full ExperimentSpec field dict a cell computes with.

    Defaults are filled in and the kwargs mappings normalised to sorted
    pairs (mirroring the spec constructor), so the hash input depends only
    on the *resolved* experiment — never on which fields the campaign spec
    happened to spell out explicitly.
    """
    resolved = dict(_SPEC_FIELD_DEFAULTS)
    resolved.update(overlay)
    for name in _KWARGS_FIELDS:
        resolved[name] = sorted(
            [key, value] for key, value in dict(resolved[name] or {}).items())
    return resolved


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace — the hashing form."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def infeasible_reason(fields: Dict[str, Any]) -> Optional[str]:
    """Why a resolved cell is structurally infeasible (``None`` if it is not).

    These are the *known* ``n/a`` verdicts — cells the paper's constructions
    exclude by design, reported as such rather than run to certain failure.
    """
    simulator = fields.get("simulator", "none")
    scheduler = fields.get("scheduler", "random")
    if simulator == "known-n" and scheduler in SPARSE_GRAPH_SCHEDULERS:
        return (f"knowledge-of-n naming (Nn) deadlocks on sparse interaction "
                f"graphs ({scheduler}); complete graph only")
    omissions = fields.get("omissions", 0)
    model_name = str(fields.get("model", "TW")).upper()
    model = MODELS_BY_NAME.get(model_name)
    if omissions and model is not None and not model.allows_omissions:
        return f"model {model_name} does not admit omissions"
    return None


@dataclass(frozen=True)
class PlannedCell:
    """One cell of the expanded grid."""

    index: int
    cell_id: str
    #: ``axis name -> point label``, in axis order (report coordinates).
    coordinates: Tuple[Tuple[str, str], ...]
    #: Resolved ExperimentSpec fields (plain data).  ``backend`` is always
    #: concrete here: ``auto`` is resolved at plan time, before hashing.
    fields: Tuple[Tuple[str, Any], ...]
    skip_reason: Optional[str] = None
    #: Why an ``auto`` cell fell back to the python backend (``None`` when
    #: it resolved to ``array`` or never asked for ``auto``); surfaced by
    #: the CLI so slow-path cells are visible, not silent.
    backend_reason: Optional[str] = None

    @property
    def labels(self) -> Dict[str, str]:
        return dict(self.coordinates)

    def field_dict(self) -> Dict[str, Any]:
        return dict(self.fields)

    def build_spec(self) -> ExperimentSpec:
        """The picklable experiment spec this cell runs."""
        return ExperimentSpec(**self.field_dict())


@dataclass
class CampaignPlan:
    """The fully expanded campaign: ordered cells plus the grid fingerprint."""

    campaign: CampaignSpec
    cells: List[PlannedCell]
    campaign_hash: str

    @property
    def total(self) -> int:
        return len(self.cells)

    def cell_ids(self) -> List[str]:
        """Every cell's content-addressed id, sorted — the canonical form
        shared-store campaign registrations persist."""
        return sorted(cell.cell_id for cell in self.cells)


def _cell_identity(fields: Dict[str, Any], campaign: CampaignSpec) -> str:
    """The content-addressed cell id: resolved spec + seed block, hashed."""
    payload = {
        "fields": _resolved_cell_fields(fields),
        "runs": campaign.runs,
        "base_seed": campaign.base_seed,
        "max_steps": campaign.max_steps,
        "stability_window": campaign.stability_window,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


def _resolve_auto_backend(
    fields: Dict[str, Any], coordinates: Tuple[Tuple[str, str], ...]
) -> Optional[str]:
    """Pin a feasible ``backend="auto"`` cell to a concrete backend, in place.

    Returns the fallback reason (``None`` when the cell resolved to the
    array backend).  Resolution failures never abort planning: the cell is
    downgraded to the python backend — which supports everything — with the
    failure recorded as its reason.  Runs against the campaign runner's
    trace policy (``counts-only``), so what is probed is what will run.
    """
    spec = ExperimentSpec(**fields)
    try:
        resolution = resolve_backend(spec, trace_policy="counts-only")
    except (BackendError, KeyError, TypeError, ValueError) as error:
        # The probe builds the experiment, which can fail in ways planning
        # does not check (kwargs contents, protocol defaults); the python
        # backend will report the same failure as a per-cell error verdict.
        fields["backend"] = "python"
        return f"auto resolution failed for cell {dict(coordinates)}: {error}"
    fields["backend"] = resolution.backend
    return resolution.reason


def plan_campaign(campaign: CampaignSpec) -> CampaignPlan:
    """Expand the campaign grid into its ordered, content-addressed cells.

    Feasible cells are validated eagerly by constructing their
    :class:`ExperimentSpec` (bad populations, chunk sizes or backends fail
    at plan time, before anything runs); infeasible cells skip construction
    — their spec may be structurally invalid (e.g. an omission budget on a
    non-omissive model), which is exactly why they are ``n/a``.

    ``backend="auto"`` cells are pinned to a concrete backend here, before
    the cell id is computed, so content addresses depend only on what the
    cell will actually run (infeasible ``auto`` cells pin to ``python``
    without probing — they never execute, but their ids must still be
    machine-independent).
    """
    axis_names = campaign.axis_names
    point_lists: List[List[AxisPoint]] = [points for _, points in campaign.axes]
    cells: List[PlannedCell] = []
    seen: Dict[str, Tuple[str, ...]] = {}
    for index, combo in enumerate(itertools.product(*point_lists)):
        fields = dict(campaign.base)
        for point in combo:
            fields.update(point.as_dict())
        coordinates = tuple(zip(axis_names, (point.label for point in combo)))
        skip_reason = infeasible_reason(fields)
        backend_reason: Optional[str] = None
        if skip_reason is None:
            try:
                ExperimentSpec(**fields)
            except (TypeError, ValueError) as error:
                raise CampaignError(
                    f"cell {dict(coordinates)} has an invalid experiment spec: "
                    f"{error}") from None
            for field_name, registry in _KEY_REGISTRIES.items():
                key = fields.get(field_name)
                if key is not None and key not in registry:
                    known = ", ".join(sorted(registry))
                    raise CampaignError(
                        f"cell {dict(coordinates)}: unknown {field_name} "
                        f"{key!r}; known keys: {known}")
            model_name = str(fields.get(
                "model", _SPEC_FIELD_DEFAULTS["model"])).upper()
            if model_name not in MODELS_BY_NAME:
                known = ", ".join(sorted(MODELS_BY_NAME))
                raise CampaignError(
                    f"cell {dict(coordinates)}: unknown model "
                    f"{fields.get('model')!r}; known models: {known}")
            if fields.get("backend") == "auto":
                backend_reason = _resolve_auto_backend(fields, coordinates)
        elif fields.get("backend") == "auto":
            fields["backend"] = "python"
        cell_id = _cell_identity(fields, campaign)
        labels = tuple(label for _, label in coordinates)
        if cell_id in seen:
            raise CampaignError(
                f"cells {seen[cell_id]} and {labels} resolve to the same "
                "experiment; axes must distinguish every cell")
        seen[cell_id] = labels
        cells.append(PlannedCell(
            index=index,
            cell_id=cell_id,
            coordinates=coordinates,
            fields=tuple(sorted(fields.items())),
            skip_reason=skip_reason,
            backend_reason=backend_reason,
        ))

    # The *sorted* cell-id set: axis order determines walk order, never
    # content, so reordering axes keeps an existing store resumable.
    grid_payload = {
        "name": campaign.name,
        "cells": sorted(cell.cell_id for cell in cells),
    }
    campaign_hash = hashlib.sha256(
        canonical_json(grid_payload).encode("utf-8")).hexdigest()[:16]
    return CampaignPlan(campaign=campaign, cells=cells, campaign_hash=campaign_hash)
