import numpy as np
import pytest

from dynwalk.engine import CongestEngine, SimConfig
from dynwalk.graphs import GraphSnapshot, PeriodicSchedule, parse_schedule_spec

AMPLE = 1 << 24  # bandwidth that never congests at desk scale


def make_engine(schedule, seed, phi=None, bandwidth=AMPLE):
    return CongestEngine(schedule, SimConfig(seed=seed, bandwidth_bits=bandwidth, phi=phi))


def empirical_tv(destinations, target):
    counts = np.bincount(np.asarray(destinations), minlength=len(target)) / len(destinations)
    return 0.5 * float(np.abs(counts - np.asarray(target)).sum())


@pytest.fixture(scope="session")
def k4():
    return parse_schedule_spec("static:K4", seed=1)


@pytest.fixture(scope="session")
def c5():
    return parse_schedule_spec("static:C5", seed=1)


@pytest.fixture(scope="session")
def c9():
    return parse_schedule_spec("static:C9", seed=1)


@pytest.fixture(scope="session")
def petersen():
    return parse_schedule_spec("static:petersen", seed=1)


@pytest.fixture(scope="session")
def rr16():
    return parse_schedule_spec("srr:n=16,d=3", seed=99)


@pytest.fixture(scope="session")
def triangles():
    """Two disjoint triangles: regular, but every snapshot is disconnected."""
    return PeriodicSchedule([GraphSnapshot(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])])
