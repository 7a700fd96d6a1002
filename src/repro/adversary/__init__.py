"""Omission adversaries and the attack constructions of Section 3.

This subpackage contains:

* the online omission adversaries corresponding to the paper's Definitions 1
  and 2: the malignant :class:`UOAdversary` (may insert omissions forever),
  the benign :class:`NOAdversary` (eventually stops), the extremely limited
  :class:`NO1Adversary` (at most one omission) and a generic
  :class:`BoundedOmissionAdversary` (at most ``o`` omissions — the assumption
  under which the ``SKnO`` simulator of Theorem 4.1 operates);
* the Fastest Transition Time (FTT, Definition 7) breadth-first search;
* the scripted attack-run constructions used by the impossibility proofs:
  :class:`Lemma1Construction` (Lemma 1 / Theorems 3.1 and 3.3) and the
  Theorem 3.2 demonstration for the weak models ``T1``/``I1``/``I2``.
"""

from repro.adversary.omission import (
    ColumnSchedule,
    OmissionAdversary,
    NoOmissionAdversary,
    UOAdversary,
    NOAdversary,
    NO1Adversary,
    BoundedOmissionAdversary,
    plan_columns_per_step,
)
from repro.adversary.ftt import FTTResult, fastest_transition_time, transition_time
from repro.adversary.constructions import (
    Lemma1Construction,
    Lemma1Result,
    no1_liveness_attack,
    NO1AttackResult,
)

__all__ = [
    "ColumnSchedule",
    "OmissionAdversary",
    "plan_columns_per_step",
    "NoOmissionAdversary",
    "UOAdversary",
    "NOAdversary",
    "NO1Adversary",
    "BoundedOmissionAdversary",
    "FTTResult",
    "fastest_transition_time",
    "transition_time",
    "Lemma1Construction",
    "Lemma1Result",
    "no1_liveness_attack",
    "NO1AttackResult",
]
