import json

import numpy as np
import pytest

from dynwalk.engine import CongestEngine, SimConfig
from dynwalk.graphs import GraphSnapshot, PeriodicSchedule, parse_schedule_spec
from dynwalk.harness import _SUITE_DS, _SUITE_NS

AMPLE = 1 << 24  # bandwidth that never congests at desk scale
SUITE_SHAPES = [(n, 4 if n * d % 2 else d) for n in _SUITE_NS for d in _SUITE_DS]  # the lemma suite's (n, d)


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


def reference_flood(schedule, sources, start, budget):
    """Per-node model of `budget` flood rounds from round `start`: u is
    informed in round t iff one of its G_t neighbors was informed before t,
    and round t sends one message per edge end of every node informed
    before t.  Returns (node -> round informed, messages per round)."""
    informed = dict.fromkeys(sources, start - 1)
    msgs = []
    for t in range(start, start + budget):
        adj = schedule.snapshot_at(t).nbr.tolist()
        before = set(informed)
        msgs.append(sum(len(adj[v]) for v in before))
        for u in range(schedule.n):
            if u not in before and any(v in before for v in adj[u]):
                informed[u] = t
    return informed, msgs


def reference_trace(schedule, sources, start):
    """(sent, informed, stall text) of the flood from `sources` by
    `reference_flood`, one round more at a time until it is complete or a
    round informs nobody."""
    for budget in range(schedule.n + 1):
        informed, msgs = reference_flood(schedule, sources, start, budget)
        news = {u: t for u, t in informed.items() if u not in sources}
        if budget and start + budget - 1 not in news.values():
            return msgs[:-1], informed, f"flood stalled at round {start + budget - 1}: snapshot disconnected"
        if len(informed) == schedule.n:
            return msgs, informed, None


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
