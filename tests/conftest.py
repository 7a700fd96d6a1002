"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.protocols import (
    ApproximateMajorityProtocol,
    AveragingProtocol,
    ExactMajorityProtocol,
    LeaderElectionProtocol,
    ModuloCountingProtocol,
    OrProtocol,
    PairingProtocol,
    ParityProtocol,
    ThresholdProtocol,
)


@pytest.fixture
def pairing():
    return PairingProtocol()


@pytest.fixture
def leader_election():
    return LeaderElectionProtocol()


@pytest.fixture
def exact_majority():
    return ExactMajorityProtocol()


@pytest.fixture
def approximate_majority():
    return ApproximateMajorityProtocol()


@pytest.fixture
def threshold_protocol():
    return ThresholdProtocol(threshold=3)


@pytest.fixture
def or_protocol():
    return OrProtocol()


@pytest.fixture
def parity_protocol():
    return ParityProtocol()


@pytest.fixture
def averaging_protocol():
    return AveragingProtocol(max_value=8)


@pytest.fixture
def modulo_protocol():
    return ModuloCountingProtocol(modulus=3, target=0)


#: Catalog of (protocol factory, small initial configuration factory, expected
#: stable predicate) triples reused by the simulator integration tests.
def small_workloads():
    """Small, fast-converging workloads shared by integration tests."""
    majority = ExactMajorityProtocol()
    leader = LeaderElectionProtocol()
    or_protocol = OrProtocol()
    return [
        (
            majority,
            majority.initial_configuration(4, 2),
            lambda config, p=majority: all(p.output(s) == "A" for s in config),
        ),
        (
            leader,
            leader.initial_configuration(6),
            lambda config: config.count("L") == 1,
        ),
        (
            or_protocol,
            or_protocol.initial_configuration(1, 5),
            lambda config: all(s == 1 for s in config),
        ),
    ]


@pytest.fixture(params=range(3), ids=["exact-majority", "leader-election", "or"])
def workload(request):
    return small_workloads()[request.param]


@pytest.fixture(params=("step", "wave"))
def array_executor(request, monkeypatch):
    """Run a test under each of the array backend's chunk executors.

    The backend picks its executor by population size, and the array suites
    mostly use small populations, so without this fixture they would only
    ever exercise the step executor.  Needs numpy: use it from modules that
    ``importorskip`` it.
    """
    from repro.engine.backends import array_backend

    limit = 2 ** 62 if request.param == "step" else 0
    monkeypatch.setattr(array_backend, "STEP_EXECUTOR_MAX_POPULATION", limit)
    return request.param
