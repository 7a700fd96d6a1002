"""The map of results of Figure 4.

Figure 4 of the paper summarises, for every interaction model and every
additional assumption, whether every two-way protocol can be simulated:

* **Infinite memory** (no other assumption) — impossible in every omissive
  model (Theorem 3.1) and in the omissive weak models even under NO1
  (Theorem 3.2); the non-omissive one-way models are also impossible with
  constant memory and no extra knowledge (from reference [4], combined with
  the paper's results), while ``TW`` is trivially possible.
* **Knowledge of an upper bound on omissions** — possible in ``I3``/``I4``
  (Theorem 4.1) and hence in ``IT`` (Corollary 1, ``o = 0``); impossible in
  ``T1``/``I1``/``I2`` (Theorem 3.2); the status of ``T2`` is the open
  question the paper leaves (marked ``?`` in Figure 4).
* **Unique IDs** — possible in ``IO`` (Theorem 4.5) and every model at least
  as strong.
* **Knowledge of n** — possible in ``IO`` (Theorem 4.6) and every model at
  least as strong.

This module encodes the map as data, records which theorem backs each cell,
marks the cells that the benchmark suite validates *empirically* (by
running the corresponding simulator and verifying the simulation, or by
running the corresponding attack construction and exhibiting the
violation), and renders the map as a table for ``repro map``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple

from repro.analysis.reporting import format_grid
from repro.interaction.models import ALL_MODELS


class Feasibility(Enum):
    """Feasibility of simulating every TW protocol in a model under an assumption."""

    POSSIBLE = "possible"
    IMPOSSIBLE = "impossible"
    OPEN = "open"
    TRIVIAL = "trivial"  # the TW column: no simulation needed.


#: Assumption column labels, in the order of Figure 4.
INFINITE_MEMORY = "infinite-memory"
KNOWLEDGE_OF_OMISSIONS = "knowledge-of-omissions"
UNIQUE_IDS = "unique-ids"
KNOWLEDGE_OF_N = "knowledge-of-n"

ASSUMPTIONS: Tuple[str, ...] = (
    INFINITE_MEMORY,
    KNOWLEDGE_OF_OMISSIONS,
    UNIQUE_IDS,
    KNOWLEDGE_OF_N,
)


@dataclass(frozen=True)
class ResultCell:
    """One cell of Figure 4."""

    model: str
    assumption: str
    feasibility: Feasibility
    source: str
    empirically_checked: bool = False

    def label(self) -> str:
        mark = {"possible": "YES", "impossible": "NO", "open": "?", "trivial": "TW"}[
            self.feasibility.value
        ]
        suffix = "*" if self.empirically_checked else ""
        return f"{mark}{suffix}"


def _cell(model, assumption, feasibility, source, checked=False) -> ResultCell:
    return ResultCell(model, assumption, feasibility, source, checked)


#: The full Figure 4 map.  Cells marked ``empirically_checked`` are the ones
#: regenerated by ``benchmarks/bench_figure_4_results_map.py``.
RESULTS_MAP: List[ResultCell] = [
    # -- Infinite memory, no extra knowledge ----------------------------------------------------------
    _cell("TW", INFINITE_MEMORY, Feasibility.TRIVIAL, "definition of TW"),
    _cell("T1", INFINITE_MEMORY, Feasibility.IMPOSSIBLE, "Theorem 3.1 / 3.2", True),
    _cell("T2", INFINITE_MEMORY, Feasibility.IMPOSSIBLE, "Theorem 3.1"),
    _cell("T3", INFINITE_MEMORY, Feasibility.IMPOSSIBLE, "Theorem 3.1", True),
    _cell("IT", INFINITE_MEMORY, Feasibility.POSSIBLE, "Corollary 1 (o = 0)", True),
    _cell("IO", INFINITE_MEMORY, Feasibility.IMPOSSIBLE, "reference [4] + Section 1.3"),
    _cell("I1", INFINITE_MEMORY, Feasibility.IMPOSSIBLE, "Theorem 3.2", True),
    _cell("I2", INFINITE_MEMORY, Feasibility.IMPOSSIBLE, "Theorem 3.2", True),
    _cell("I3", INFINITE_MEMORY, Feasibility.IMPOSSIBLE, "Theorem 3.1", True),
    _cell("I4", INFINITE_MEMORY, Feasibility.IMPOSSIBLE, "Theorem 3.1"),
    # -- Knowledge of an upper bound on the number of omissions --------------------------------------------
    _cell("TW", KNOWLEDGE_OF_OMISSIONS, Feasibility.TRIVIAL, "definition of TW"),
    _cell("T1", KNOWLEDGE_OF_OMISSIONS, Feasibility.IMPOSSIBLE, "Theorem 3.2", True),
    _cell("T2", KNOWLEDGE_OF_OMISSIONS, Feasibility.OPEN, "open problem (Section 5)"),
    _cell("T3", KNOWLEDGE_OF_OMISSIONS, Feasibility.POSSIBLE, "Theorem 4.1 (via I3)", True),
    _cell("IT", KNOWLEDGE_OF_OMISSIONS, Feasibility.POSSIBLE, "Corollary 1", True),
    _cell("IO", KNOWLEDGE_OF_OMISSIONS, Feasibility.IMPOSSIBLE, "reference [4] + Section 1.3"),
    _cell("I1", KNOWLEDGE_OF_OMISSIONS, Feasibility.IMPOSSIBLE, "Theorem 3.2", True),
    _cell("I2", KNOWLEDGE_OF_OMISSIONS, Feasibility.IMPOSSIBLE, "Theorem 3.2", True),
    _cell("I3", KNOWLEDGE_OF_OMISSIONS, Feasibility.POSSIBLE, "Theorem 4.1", True),
    _cell("I4", KNOWLEDGE_OF_OMISSIONS, Feasibility.POSSIBLE, "Theorem 4.1", True),
    # -- Unique IDs --------------------------------------------------------------------------------------------
    _cell("TW", UNIQUE_IDS, Feasibility.TRIVIAL, "definition of TW"),
    _cell("T1", UNIQUE_IDS, Feasibility.IMPOSSIBLE, "Theorem 3.1 applies regardless of IDs"),
    _cell("T2", UNIQUE_IDS, Feasibility.IMPOSSIBLE, "Theorem 3.1 applies regardless of IDs"),
    _cell("T3", UNIQUE_IDS, Feasibility.IMPOSSIBLE, "Theorem 3.1 applies regardless of IDs"),
    _cell("IT", UNIQUE_IDS, Feasibility.POSSIBLE, "Theorem 4.5 (IO <= IT)", True),
    _cell("IO", UNIQUE_IDS, Feasibility.POSSIBLE, "Theorem 4.5", True),
    _cell("I1", UNIQUE_IDS, Feasibility.IMPOSSIBLE, "Theorem 3.1 applies regardless of IDs"),
    _cell("I2", UNIQUE_IDS, Feasibility.IMPOSSIBLE, "Theorem 3.1 applies regardless of IDs"),
    _cell("I3", UNIQUE_IDS, Feasibility.IMPOSSIBLE, "Theorem 3.1 applies regardless of IDs"),
    _cell("I4", UNIQUE_IDS, Feasibility.IMPOSSIBLE, "Theorem 3.1 applies regardless of IDs"),
    # -- Knowledge of n -----------------------------------------------------------------------------------------
    _cell("TW", KNOWLEDGE_OF_N, Feasibility.TRIVIAL, "definition of TW"),
    _cell("T1", KNOWLEDGE_OF_N, Feasibility.IMPOSSIBLE, "Theorem 3.1 applies regardless of n"),
    _cell("T2", KNOWLEDGE_OF_N, Feasibility.IMPOSSIBLE, "Theorem 3.1 applies regardless of n"),
    _cell("T3", KNOWLEDGE_OF_N, Feasibility.IMPOSSIBLE, "Theorem 3.1 applies regardless of n"),
    _cell("IT", KNOWLEDGE_OF_N, Feasibility.POSSIBLE, "Theorem 4.6 (IO <= IT)", True),
    _cell("IO", KNOWLEDGE_OF_N, Feasibility.POSSIBLE, "Theorem 4.6", True),
    _cell("I1", KNOWLEDGE_OF_N, Feasibility.IMPOSSIBLE, "Theorem 3.1 applies regardless of n"),
    _cell("I2", KNOWLEDGE_OF_N, Feasibility.IMPOSSIBLE, "Theorem 3.1 applies regardless of n"),
    _cell("I3", KNOWLEDGE_OF_N, Feasibility.IMPOSSIBLE, "Theorem 3.1 applies regardless of n"),
    _cell("I4", KNOWLEDGE_OF_N, Feasibility.IMPOSSIBLE, "Theorem 3.1 applies regardless of n"),
]


def results_map() -> Dict[Tuple[str, str], ResultCell]:
    """The Figure 4 map indexed by ``(model, assumption)``."""
    return {(cell.model, cell.assumption): cell for cell in RESULTS_MAP}


def feasibility(model: str, assumption: str) -> Feasibility:
    """Look up the feasibility of simulation for a ``(model, assumption)`` pair."""
    try:
        return results_map()[(model.upper(), assumption)].feasibility
    except KeyError:
        raise KeyError(
            f"no Figure 4 cell for model {model!r} under assumption {assumption!r}"
        ) from None


def assumptions() -> Tuple[str, ...]:
    """The assumption columns of Figure 4, in order."""
    return ASSUMPTIONS


def format_results_map(overrides: Dict[Tuple[str, str], str] = None) -> str:
    """Render the Figure 4 map as a table.

    ``overrides`` optionally replaces the label of specific cells — the
    Figure 4 benchmark uses it to mark cells whose empirical check passed or
    failed.
    """
    overrides = overrides or {}
    cells = results_map()

    def cell_label(model_name: str, assumption: str) -> str:
        key = (model_name, assumption)
        return overrides.get(key, cells[key].label())

    return format_grid(
        "model", [model.name for model in ALL_MODELS], ASSUMPTIONS, cell_label)
