"""Scheduling substrate: interactions, runs and schedulers.

The PP model abstracts the passive mobility of the agents into an infinite
sequence of pairwise interactions (a *run*).  This subpackage provides the
datatypes for interactions and runs and several schedulers that generate
them (uniform random — globally fair with probability 1 —, scripted,
weighted, round-robin and interaction-graph).
"""

from repro.scheduling.runs import Interaction, Run
from repro.scheduling.scheduler import (
    Scheduler,
    RandomScheduler,
    ScriptedScheduler,
    WeightedPairScheduler,
    RoundRobinScheduler,
    SchedulerExhausted,
)
from repro.scheduling.graph_scheduler import (
    GraphScheduler,
    InteractionGraphError,
    complete_graph_scheduler,
    ring_scheduler,
    star_scheduler,
    random_graph_scheduler,
    validate_interaction_graph,
)

__all__ = [
    "Interaction",
    "Run",
    "Scheduler",
    "RandomScheduler",
    "ScriptedScheduler",
    "WeightedPairScheduler",
    "RoundRobinScheduler",
    "SchedulerExhausted",
    "GraphScheduler",
    "InteractionGraphError",
    "complete_graph_scheduler",
    "ring_scheduler",
    "star_scheduler",
    "random_graph_scheduler",
    "validate_interaction_graph",
]
