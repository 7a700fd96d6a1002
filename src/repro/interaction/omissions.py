"""Omission specifications for single interactions (Section 2.3).

An omission is a fault affecting a single interaction: an agent does not
receive any information about the state of its counterpart.  In two-way
models the omission can hit the starter side, the reactor side, or both.
In one-way models information only flows from starter to reactor, so the
only meaningful omission is the loss of the starter's state on its way to
the reactor; we still record it as ``reactor_lost`` for uniformity.

Whether an omission is *detected* by an agent is a property of the
interaction model (the functions ``o`` and ``h`` of the paper), not of the
omission itself; the :class:`Omission` value only says what information was
lost.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Omission:
    """What information was lost during one interaction.

    Attributes
    ----------
    starter_lost:
        The starter did not receive the reactor's state (meaningful only in
        two-way models, where information flows both ways).
    reactor_lost:
        The reactor did not receive the starter's state.
    """

    starter_lost: bool = False
    reactor_lost: bool = False

    @property
    def is_omissive(self) -> bool:
        """Whether any information was lost in this interaction."""
        return self.starter_lost or self.reactor_lost

    def __str__(self) -> str:
        if not self.is_omissive:
            return "no-omission"
        sides = []
        if self.starter_lost:
            sides.append("starter")
        if self.reactor_lost:
            sides.append("reactor")
        return "omission[" + "+".join(sides) + "]"


#: The non-omissive interaction.
NO_OMISSION = Omission(False, False)

#: Omission on the starter side only (starter misses the reactor's state).
STARTER_OMISSION = Omission(starter_lost=True, reactor_lost=False)

#: Omission on the reactor side only (reactor misses the starter's state).
REACTOR_OMISSION = Omission(starter_lost=False, reactor_lost=True)

#: Omission on both sides.
FULL_OMISSION = Omission(starter_lost=True, reactor_lost=True)

#: The single meaningful omission in one-way models.
ONE_WAY_OMISSION = REACTOR_OMISSION
