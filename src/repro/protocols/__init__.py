"""Population-protocol substrate.

This subpackage contains the abstract definition of a population protocol
(Section 2.1 of the paper), concrete configuration machinery, and a catalog
of well-known two-way protocols used as simulation workloads throughout the
library (the Pairing protocol of Definition 5, leader election, majority,
threshold / flock-of-birds counting, modulo counting and boolean predicates).
"""

from repro.protocols.state import Configuration, MutableConfiguration
from repro.protocols.protocol import (
    PopulationProtocol,
    RuleBasedProtocol,
    OneWayProtocol,
    RuleBasedOneWayProtocol,
    ProtocolError,
)
from repro.protocols.catalog import (
    PairingProtocol,
    LeaderElectionProtocol,
    ApproximateMajorityProtocol,
    ExactMajorityProtocol,
    ThresholdProtocol,
    ModuloCountingProtocol,
    OrProtocol,
    AndProtocol,
    ParityProtocol,
    AveragingProtocol,
    EpidemicProtocol,
    CATALOG,
    get_protocol,
)

__all__ = [
    "Configuration",
    "MutableConfiguration",
    "PopulationProtocol",
    "RuleBasedProtocol",
    "OneWayProtocol",
    "RuleBasedOneWayProtocol",
    "ProtocolError",
    "PairingProtocol",
    "LeaderElectionProtocol",
    "ApproximateMajorityProtocol",
    "ExactMajorityProtocol",
    "ThresholdProtocol",
    "ModuloCountingProtocol",
    "OrProtocol",
    "AndProtocol",
    "ParityProtocol",
    "AveragingProtocol",
    "EpidemicProtocol",
    "CATALOG",
    "get_protocol",
]
