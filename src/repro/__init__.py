"""repro — fault-tolerant simulation of population protocols.

A full reproduction of "On the Power of Weaker Pairwise Interaction:
Fault-Tolerant Simulation of Population Protocols" (Di Luna, Flocchini,
Izumi, Izumi, Santoro, Viglietta — ICDCS 2017), built as a reusable Python
library:

* :mod:`repro.protocols` — two-way/one-way population protocols and a
  catalog of standard workloads (pairing, leader election, majority,
  threshold counting, ...);
* :mod:`repro.interaction` — the ten interaction models of Figure 1 and
  their hierarchy;
* :mod:`repro.scheduling` — interactions, runs and schedulers;
* :mod:`repro.adversary` — the UO/NO/NO1 omission adversaries;
* :mod:`repro.engine` — the discrete-event execution engine;
* :mod:`repro.core` — the simulators (``SKnO``, ``SID``, ``Nn + SID``), the
  event/matching/derived-run machinery of Definitions 3-4, verification and
  memory accounting;
* :mod:`repro.problems` — machine-checkable problem specifications
  (the Pairing problem of Definition 5, and friends).

This package re-exports only what a run needs.  The FTT search and the
attack constructions (:mod:`repro.adversary.ftt`,
:mod:`repro.adversary.constructions`) and the Figure 4 results map,
reachability checks and reporting (:mod:`repro.analysis`) are imported by
module path.

Quickstart::

    from repro import (
        ExactMajorityProtocol, SKnOSimulator, SimulationEngine,
        RandomScheduler, get_model, verify_simulation,
    )

    protocol = ExactMajorityProtocol()
    simulator = SKnOSimulator(protocol, omission_bound=1)
    config = simulator.initial_configuration(protocol.initial_configuration(6, 4))
    engine = SimulationEngine(simulator, get_model("I3"), RandomScheduler(10, seed=1))
    trace = engine.run(config, max_steps=20_000)
    print(verify_simulation(simulator, trace).summary())
"""

from repro.protocols import (
    Configuration,
    PopulationProtocol,
    RuleBasedProtocol,
    OneWayProtocol,
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
    get_protocol,
)
from repro.interaction import (
    Omission,
    NO_OMISSION,
    TW,
    T1,
    T2,
    T3,
    IT,
    IO,
    I1,
    I2,
    I3,
    I4,
    ALL_MODELS,
    get_model,
    hierarchy_graph,
    is_at_most_as_powerful,
)
from repro.interaction.adapters import one_way_as_two_way, two_way_as_one_way_naive
from repro.scheduling import (
    Interaction,
    Run,
    RandomScheduler,
    ScriptedScheduler,
    RoundRobinScheduler,
)
from repro.adversary import (
    UOAdversary,
    NOAdversary,
    NO1Adversary,
    BoundedOmissionAdversary,
)
from repro.engine import (
    SimulationEngine,
    Trace,
    run_until_stable,
    stable_output_condition,
)
from repro.engine.experiment import repeat_experiment
from repro.core import (
    SKnOSimulator,
    SIDSimulator,
    KnownSizeSimulator,
    TrivialTwoWaySimulator,
    verify_simulation,
    SimulationReport,
)
from repro.problems import (
    PairingProblem,
    LeaderElectionProblem,
    MajorityProblem,
    ThresholdProblem,
)

__version__ = "1.0.0"

__all__ = [
    # protocols
    "Configuration",
    "PopulationProtocol",
    "RuleBasedProtocol",
    "OneWayProtocol",
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
    "get_protocol",
    # interaction models
    "Omission",
    "NO_OMISSION",
    "TW",
    "T1",
    "T2",
    "T3",
    "IT",
    "IO",
    "I1",
    "I2",
    "I3",
    "I4",
    "ALL_MODELS",
    "get_model",
    "hierarchy_graph",
    "is_at_most_as_powerful",
    "one_way_as_two_way",
    "two_way_as_one_way_naive",
    # scheduling
    "Interaction",
    "Run",
    "RandomScheduler",
    "ScriptedScheduler",
    "RoundRobinScheduler",
    # adversaries
    "UOAdversary",
    "NOAdversary",
    "NO1Adversary",
    "BoundedOmissionAdversary",
    # engine
    "SimulationEngine",
    "Trace",
    "run_until_stable",
    "stable_output_condition",
    "repeat_experiment",
    # simulators
    "SKnOSimulator",
    "SIDSimulator",
    "KnownSizeSimulator",
    "TrivialTwoWaySimulator",
    "verify_simulation",
    "SimulationReport",
    # problems
    "PairingProblem",
    "LeaderElectionProblem",
    "MajorityProblem",
    "ThresholdProblem",
    "__version__",
]
