"""Omission adversaries (Definitions 1 and 2 of the paper).

This package re-exports the online omission adversaries of
:mod:`repro.adversary.omission`: the malignant :class:`UOAdversary` (may
insert omissions forever), the benign :class:`NOAdversary` (eventually
stops), the extremely limited :class:`NO1Adversary` (at most one omission)
and a generic :class:`BoundedOmissionAdversary` (at most ``o`` omissions —
the assumption under which the ``SKnO`` simulator of Theorem 4.1 operates).

The search and the attacks built on these adversaries are imported by
module path, never through this package (the attacks drive the engine,
which sits above it):

* :mod:`repro.adversary.ftt` — the Fastest Transition Time (FTT,
  Definition 7) breadth-first search;
* :mod:`repro.adversary.constructions` — the scripted attack runs of the
  impossibility proofs: :class:`~repro.adversary.constructions.Lemma1Construction`
  (Lemma 1 / Theorems 3.1 and 3.3) and the Theorem 3.2 demonstration for
  the weak models ``T1``/``I1``/``I2``.
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

__all__ = [
    "ColumnSchedule",
    "OmissionAdversary",
    "plan_columns_per_step",
    "NoOmissionAdversary",
    "UOAdversary",
    "NOAdversary",
    "NO1Adversary",
    "BoundedOmissionAdversary",
]
