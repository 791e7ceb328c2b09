import json

import numpy as np
import pytest

from dynwalk.engine import CongestEngine, SimConfig
from dynwalk.graphs import GraphSnapshot, PeriodicSchedule, parse_schedule_spec

AMPLE = 1 << 24  # bandwidth that never congests at desk scale


def make_engine(schedule, seed, phi=None, bandwidth=AMPLE):
    return CongestEngine(schedule, SimConfig(seed=seed, bandwidth_bits=bandwidth, phi=phi))


def as_dict(informed):
    """A flood's informed-round array as {node: round} over the nodes it informs."""
    return {v: t for v, t in enumerate(informed.tolist()) if t >= 0}


def memo_traces(schedule):
    """How many of the schedule's flood memo entries hold a trace."""
    return sum(trace is not None for _, trace in schedule._memo.values())


def log_totals(log):
    """A RoundLog's four run totals, as a dict."""
    return {key: getattr(log, key) for key in ("rounds", "total_msgs", "max_edge_bits", "congestion_events")}


def prism5():
    """The 5-prism: 3-regular on 10 nodes like Petersen, but not isomorphic to it."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    return GraphSnapshot(10, outer + [(5 + u, 5 + v) for u, v in outer] + [(i, 5 + i) for i in range(5)])


def write_snapshots(path, graphs):
    """Write `graphs` as a schedule file, snapshot i at round i + 1."""
    rows = [{"n": graphs[0].n, "T": len(graphs)}]
    rows += [{"t": t, "edges": sorted(map(list, g.edges))} for t, g in enumerate(graphs, 1)]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


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
