"""Declarative, resumable parameter-sweep experiment campaigns.

The paper's headline artifact is a *map of results*: a grid of verdicts
over (interaction model × assumption × adversary budget).  This package is
the layer that produces such maps at scale — it orchestrates the
primitives built by the lower layers (the registry's picklable
:class:`~repro.protocols.registry.ExperimentSpec`, the process
fan-out of :func:`~repro.engine.experiment.repeat_experiment`, the
pluggable execution backends) across whole parameter grids, persists every
finished cell, and renders Figure-4-style reports.

Pipeline (one module each)::

    spec      CampaignSpec          declarative grid (pure dict / JSON file)
    planner   CampaignPlan          grid expanded into content-addressed cells
    store     ResultStore           append-only JSONL, atomic per-cell writes
              SharedResultStore     one cell pool shared by many campaigns
              compact_store         canonical rewrite, atomic via rename
    runner    run_campaign          one campaign's run: validate, then drain
              build_cell_record     one cell through repeat_experiment
    executor  drain                 one plan's pending cells into one store,
                                    inline at width 1, pooled (``--cell-jobs``)
    report    render_report         fold the store into verdict grids + tables

Resumability is the design center: every planned cell has a stable
content-addressed id (a hash of the resolved experiment spec plus its
seed block), the store streams finished cells with atomic appends, and
cells are deterministic functions of their spec — so ``repro campaign
resume`` skips completed cells and an interrupted campaign finishes to a
report byte-identical to an uninterrupted run.  Under parallel execution
records append in completion order, so the pin is *fold-equivalence*:
every fold (status, report) consumes the record set keyed by cell id and
is identical across executors, pool widths and interrupt points.

See ``docs/campaigns.md`` for the spec schema, the store format and the
resume semantics, and ``examples/figure4_omission_sweep.json`` for a
shipped campaign reproducing a Figure-4 omission-budget sweep slice.
"""

from repro.campaign.planner import CampaignPlan, PlannedCell, plan_campaign
from repro.campaign.report import render_report
from repro.campaign.runner import CampaignRunStatus, campaign_status, run_campaign
from repro.campaign.spec import CampaignError, CampaignSpec
from repro.campaign.store import (
    CompactionStats,
    ResultStore,
    SharedResultStore,
    StoreError,
    compact_store,
    store_kind,
)

__all__ = [
    "CampaignError",
    "CampaignPlan",
    "CampaignRunStatus",
    "CampaignSpec",
    "CompactionStats",
    "PlannedCell",
    "ResultStore",
    "SharedResultStore",
    "StoreError",
    "campaign_status",
    "compact_store",
    "plan_campaign",
    "render_report",
    "run_campaign",
    "store_kind",
]
