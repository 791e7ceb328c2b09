import os
import random
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import AMPLE, as_dict, log_totals, make_engine, memo_traces
from dynwalk.engine import (
    CongestEngine,
    CongestionError,
    FloodIncompleteError,
    ProtocolError,
    RoundLimitError,
    SimConfig,
    default_bandwidth,
)
from dynwalk import graphs
from dynwalk.graphs import (
    DynwalkError,
    GraphSnapshot,
    PeriodicSchedule,
    PermutedSchedule,
    RandomRegularSchedule,
    ScheduleError,
    StaticSchedule,
    dynamic_diameter,
    flood_failure,
    flooding_time,
    named_graph,
    parse_schedule_spec,
    random_regular_graph,
)
from dynwalk.gossip import k_gossip_rw, k_gossip_trivial, resolve_gossip_params
from dynwalk.mixing import estimate_mixing_time
from dynwalk.walks import (
    WalkParams,
    concurrent_naive_walks,
    many_random_walks,
    naive_walk,
    single_random_walk,
)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


class TestExchange:
    @pytest.mark.parametrize("slot", [-1, 10, 10**9, -(10**9)])
    def test_slot_off_the_table_rejected(self, c5, slot):
        eng = make_engine(c5, seed=0)
        with pytest.raises(ProtocolError, match=f"round 1: slot {slot} is outside the 5x2 port table of G_1"):
            eng.exchange([0, slot], 4)  # C5: 5 nodes of 2 ports
        with pytest.raises(ProtocolError, match=f"round 1: slot {slot} is outside"):
            eng.exchange([slot], 4)  # a lone message skips the congestion count
        assert eng.round == 0

    def test_strict_overflow_names_round_and_edge(self, k4):
        eng = make_engine(k4, seed=0, bandwidth=10)
        with pytest.raises(CongestionError) as err:
            eng.exchange([0, 0], 6)  # node 0, port 0: the edge (0,1)
        assert "round 1" in str(err.value) and "(0,1)" in str(err.value)

    def test_delivery_matches_schedule(self):
        # A message rides edge e at round t iff e is in E_t.
        sched = RandomRegularSchedule(10, 3, seed=3)
        rng = np.random.default_rng(5)
        eng = CongestEngine(sched, SimConfig(seed=1, bandwidth_bits=AMPLE, record_rounds=True))
        for t in range(1, 30):
            g = sched.snapshot_at(t)
            u, j = int(rng.integers(10)), int(rng.integers(3))
            with pytest.raises(ProtocolError, match=f"round {t}: slot 30 "):
                eng.exchange([u * 3 + j, 30], 4)
            assert eng.exchange([u * 3 + j], 4).tolist() == [g.nbr[u, j]]
            rec = eng.log.records[-1]
            assert (rec.t, rec.msgs, rec.max_edge_bits) == (t, 1, 4)

    def test_max_rounds(self, k4):
        eng = CongestEngine(k4, SimConfig(max_rounds=2, bandwidth_bits=AMPLE))
        eng.idle(2)
        with pytest.raises(RoundLimitError):
            eng.idle(1)

    def test_determinism(self, rr16):
        def one_run(seed):
            eng = CongestEngine(rr16, SimConfig(seed=seed, bandwidth_bits=AMPLE, record_rounds=True))
            rng = eng.stream(7)
            receivers = [int(eng.exchange([int(rng.integers(3))], 5)[0]) for _ in range(10)]
            return log_totals(eng.log), eng.log.records, receivers

        assert one_run(42) == one_run(42)
        assert one_run(42)[2] != one_run(43)[2]

    def test_roundlog_totals_match_records(self, k4):
        eng = CongestEngine(k4, SimConfig(bandwidth_bits=AMPLE, record_rounds=True))
        assert eng.exchange([0, 4], 4).tolist() == [1, 2]
        eng.idle(1)
        assert eng.exchange([8], 4).tolist() == [3]
        assert eng.log.rounds == len(eng.log.records) == 3
        assert eng.log.total_msgs == sum(r.msgs for r in eng.log.records) == 3
        assert eng.log.max_edge_bits == max(r.max_edge_bits for r in eng.log.records)
        assert len(eng.log.jsonl_records()) == 3


# The protocols whose rounds the log charges, each run on one engine: stitched
# walks with and without CouponsExhausted fallbacks (48 coupons of length 1
# cannot serve tau = 60), naive walks, shared-phase walks, both routes of a
# gossip race and a mixing-time estimate.  Each returns what its walks output
# (the fallback count for "fallbacks", which must be positive).  A log that
# keeps no records charges each call in O(1), so these runs guard every such
# shortcut against the per-round records.
def gossip_race_routes(eng):
    holders = {1: [0], 2: [5]}
    k_gossip_rw(eng, holders, resolve_gossip_params(eng.n, 2, 8, eng.config.phi), 8, eng.config.phi)
    k_gossip_trivial(eng, holders)
    return []


LOG_RUNS = {
    "stitched": lambda eng: [single_random_walk(eng, 0, WalkParams(tau=24, lambda_walk=6)).destination],
    "fallbacks": lambda eng: [single_random_walk(eng, 0, WalkParams(tau=60, lambda_walk=1)).fallbacks],
    "naive": lambda eng: [
        naive_walk(eng, 3, 20).destination, *concurrent_naive_walks(eng, [0, 1, 1, 5], 9).destinations.tolist()
    ],
    "many": lambda eng: many_random_walks(eng, [0, 3, 3, 7], WalkParams(40, 4)).destinations.tolist(),
    "gossip": gossip_race_routes,
    "mixing": lambda eng: [estimate_mixing_time(eng, 0, eng.config.phi).tau_tilde],
}
LOG_SCHEDULES = {"srr": "srr:n=16,d=3", "rr": "rr:n=16,d=3", "perm": "perm:base=petersen"}


@pytest.mark.parametrize("run", LOG_RUNS, ids=LOG_RUNS)
@pytest.mark.parametrize("spec", LOG_SCHEDULES.values(), ids=LOG_SCHEDULES)
def test_log_totals_do_not_depend_on_records(spec, run):
    schedule = parse_schedule_spec(spec, seed=3)
    engines, outputs = [], []
    for keep in (False, True):
        # phi = n - 1 completes every flood on a connected-per-round schedule
        eng = CongestEngine(schedule, SimConfig(seed=5, bandwidth_bits=AMPLE, phi=schedule.n - 1, record_rounds=keep))
        outputs.append(LOG_RUNS[run](eng))
        engines.append(eng)
    off, on = (eng.log for eng in engines)
    assert log_totals(off) == log_totals(on) and off.records == [] and outputs[0] == outputs[1]
    assert [r.t for r in on.records] == list(range(1, engines[1].round + 1)) and on.rounds == engines[1].round
    assert len(on.records) == on.rounds
    assert on.total_msgs == sum(r.msgs for r in on.records)
    assert on.max_edge_bits == max(r.max_edge_bits for r in on.records)
    assert all(r.max_edge_bits == 0 for r in on.records if r.msgs == 0)
    if run == "fallbacks":
        assert outputs[0][0] > 0


def reference_exchange(g, B, t, slots, bits):
    """Per-message model of one round: (error type, text) or (msgs, max edge
    bits, destinations).

    Slot u*d + j is node u's port j; ports are read message by message from
    the table's rows as lists, not gathered as `exchange` gathers them.  Loads are summed per
    (u, v), so the busiest edge is named as before ports."""
    n, d, adj = g.n, g.d, g.nbr.tolist()
    for s in slots:
        if not 0 <= s < n * d:
            return ProtocolError, f"round {t}: slot {s} is outside the {n}x{d} port table of G_{t}"
    sends = [divmod(s, d) for s in slots]
    load = {}
    for u, j in sends:
        e = (u, adj[u][j])
        load[e] = load.get(e, 0) + bits
    top = max(load.values(), default=0)
    if top > B:
        u, v = min(e for e, x in load.items() if x == top)
        return CongestionError, f"round {t}: edge ({u},{v}) would carry {top} bits > B={B}"
    return len(slots), top, [adj[u][j] for u, j in sends]


def off_table_slots(n, d):
    # Just outside [0, n*d) and far beyond it (which must not size any
    # per-edge array).
    return st.one_of(st.sampled_from([-1, n * d, -(10**9), 10**9]), st.integers(-n * d, n * d + n))


@st.composite
def exchange_rounds(draw):
    n, d = draw(st.sampled_from([(6, 3), (8, 3), (8, 4), (10, 4)]))
    sched = RandomRegularSchedule(n, d, seed=draw(st.integers(0, 2**16)))
    B = draw(st.integers(4, 40))
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        # Node u's port j, or now and then a slot that may be off the table.
        sends = [
            draw(st.integers(0, n - 1)) * d + draw(st.integers(0, d - 1))
            if draw(st.integers(0, 9)) > 0 else draw(off_table_slots(n, d))
            for _ in range(draw(st.integers(0, 12)))
        ]
        rounds.append((sends, draw(st.integers(1, 12))))
    return sched, B, rounds


def assert_matches_reference(sched, B, rounds):
    eng = CongestEngine(sched, SimConfig(bandwidth_bits=B, record_rounds=True))
    for slots, bits in rounds:
        t = eng.round + 1
        expected = reference_exchange(sched.snapshot_at(t), B, t, slots, bits)
        if isinstance(expected[0], type):
            with pytest.raises(expected[0]) as err:
                eng.exchange(np.array(slots, dtype=np.int64), bits)
            assert str(err.value) == expected[1]
            assert eng.round == t - 1
        else:
            dst = eng.exchange(np.array(slots, dtype=np.int64), bits)
            assert dst.tolist() == expected[2]
            rec = eng.log.records[-1]
            assert (rec.t, rec.msgs, rec.max_edge_bits) == (t, *expected[:2])
            assert rec.max_edge_bits <= B
    assert eng.log.rounds == len(eng.log.records) == eng.round


class TestExchangeProperty:
    @settings(max_examples=200, deadline=None)
    @given(exchange_rounds())
    @example((parse_schedule_spec("rr:n=6,d=3", seed=1), 40, [([0, s], 4) for s in (-1, 18, 10**9, -(10**9))]))
    def test_matches_per_message_reference(self, case):
        assert_matches_reference(*case)


class TestFlood:
    def test_k4_budget_one(self, k4):
        eng = make_engine(k4, seed=0)
        informed = eng.flood(8, [0], budget=1)
        assert set(as_dict(informed)) == set(range(4)) and eng.round == 1

    def test_c5_budget_two(self, c5):
        eng = make_engine(c5, seed=0)
        informed = eng.flood(8, [2], budget=2)
        assert set(as_dict(informed)) == set(range(5)) and eng.round == 2

    def test_budget_consumed_exactly(self, k4):
        eng = make_engine(k4, seed=0)
        eng.flood(8, [0], budget=5)
        assert eng.round == 5

    @pytest.mark.parametrize("keep", [True, False], ids=["records", "totals"])
    def test_rounds_after_coverage_charged_as_before(self, keep):
        # Two 60-round floods after 3 idle rounds: each informs everyone in
        # 3 rounds, and its other 57 rounds send n*d = 48 messages each.
        sched = RandomRegularSchedule(16, 3, seed=8)
        eng = CongestEngine(sched, SimConfig(bandwidth_bits=AMPLE, record_rounds=keep))
        eng.idle(3)
        eng.flood(8, [0, 5], 60)
        eng.flood(12, [3], 60, require_complete=False)
        assert log_totals(eng.log) == {"rounds": 123, "total_msgs": 5592, "max_edge_bits": 12, "congestion_events": 0}
        expected = [(t, 0, 0) for t in (1, 2, 3)]
        for start, sent, bits in ((4, [6, 18, 45], 8), (64, [3, 12, 36], 12)):
            msgs = sent + [48] * 57
            expected += [(t, m, bits) for t, m in enumerate(msgs, start)]
        assert [(r.t, r.msgs, r.max_edge_bits) for r in eng.log.records] == (expected if keep else [])

    def test_rounds_after_coverage_are_a_count(self, k4):
        # A budget past max_rounds charges its 10^7 rounds without a list of them.
        eng = make_engine(k4, seed=0)
        with pytest.raises(RoundLimitError, match="exceeded max_rounds=10000000"):
            eng.flood(8, [0], 10**12)
        assert eng.round == eng.log.rounds == 10**7
        assert eng.log.total_msgs == 3 + (10**7 - 1) * 12

    def test_insufficient_budget(self, c9):
        eng = make_engine(c9, seed=0)
        with pytest.raises(FloodIncompleteError):
            eng.flood(8, [0], budget=2)

    def test_perm_adversary_with_oracle_phi(self):
        base = RandomRegularSchedule(8, 3, seed=12).snapshot_at(1)
        sched = PermutedSchedule(base, seed=12)
        phi = dynamic_diameter(sched, 8)
        eng = make_engine(sched, seed=1)
        informed = eng.flood(8, [0], budget=phi)
        assert len(as_dict(informed)) == 8

    def test_flood_until_complete_rounds(self, c5):
        eng = make_engine(c5, seed=0)
        used, informed = eng.flood_until_complete(8, [0])
        assert used == 2 and len(as_dict(informed)) == 5

    def test_payload_exceeding_bandwidth(self, k4):
        eng = make_engine(k4, seed=0, bandwidth=4)
        with pytest.raises(CongestionError):
            eng.flood(8, [0], budget=1)

    def test_negative_budget_rejected(self, c9):
        eng = make_engine(c9, seed=0)
        with pytest.raises(ValueError, match="flood budget -1 is negative"):
            eng.flood(4, [0], -1, require_complete=False)
        assert eng.round == 0 and eng.log.rounds == 0

    @pytest.mark.parametrize(
        "run, bad",
        [
            (lambda eng: eng.flood_until_complete(4, [-1, 0]), -1),
            (lambda eng: eng.flood_until_complete(4, [0, 9]), 9),
            (lambda eng: eng.flood(4, [-1], 4), -1),
            (lambda eng: eng.flood(4, [9], 4), 9),
        ],
        ids=["until_complete-1", "until_complete-n", "flood-1", "flood-n"],
    )
    def test_source_out_of_range(self, c9, run, bad):
        eng = make_engine(c9, seed=0)
        with pytest.raises(ValueError, match=rf"flood source {bad} is outside \[0, 9\)"):
            run(eng)
        assert eng.round == 0 and eng.log.rounds == 0


class TestDisconnectedSnapshot:
    # The engine idles round 1, so each flood starts on round 2: node 0's
    # triangle is informed in round 2 and round 3 informs nobody.
    @pytest.mark.parametrize(
        "run",
        [
            lambda eng: eng.flood(8, [0], 3, require_complete=False),
            lambda eng: eng.flood_until_complete(8, [0]),
            lambda eng: flooding_time(eng.schedule, 0, start_round=2),
        ],
        ids=["flood", "flood_until_complete", "flooding_time"],
    )
    def test_stall_names_round(self, triangles, run):
        eng = make_engine(triangles, seed=0)
        eng.idle(1)
        with pytest.raises(ScheduleError, match="flood stalled at round 3: snapshot disconnected"):
            run(eng)
        assert eng.log.rounds == eng.round  # the rounds before the stall stay charged

    def test_budget_ending_before_the_stall_returns(self):
        # The first flood stalls in round 3 and leaves that in the memo; the
        # later ones, whose budgets end first, hit it and must not raise.
        sched = PeriodicSchedule([two_cycles(10)])
        with pytest.raises(ScheduleError, match="flood stalled at round 3"):
            make_engine(sched, seed=0).flood(8, [0], 3, require_complete=False)
        assert as_dict(make_engine(sched, seed=0).flood(8, [0], 1, require_complete=False)) == {0: 0, 1: 1, 4: 1}
        eng = make_engine(sched, seed=0)
        assert as_dict(eng.flood(8, [0], 2, require_complete=False)) == {0: 0, 1: 1, 4: 1, 2: 2, 3: 2}
        assert eng.round == eng.log.rounds == 2 and eng.log.total_msgs == 2 + 6

    def test_stall_detected_under_optimize(self):
        # The stall check is no `assert`: `python -O` must not turn a
        # disconnected snapshot into a silently partial flood.
        code = (
            "from dynwalk.engine import CongestEngine\n"
            "from dynwalk.graphs import GraphSnapshot, PeriodicSchedule, ScheduleError\n"
            "g = GraphSnapshot(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])\n"
            "eng = CongestEngine(PeriodicSchedule([g]))\n"
            "try:\n"
            "    print(eng.flood(8, [0], 3, require_complete=False))\n"
            "except ScheduleError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "flood stalled at round 2: snapshot disconnected"


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


def two_cycles(n):
    """A disconnected snapshot: cycles on [0, n//2) and [n//2, n), n >= 6."""
    h = n // 2
    first = [(i, (i + 1) % h) for i in range(h)]
    second = [(h + i, h + (i + 1) % (n - h)) for i in range(n - h)]
    return GraphSnapshot(n, first + second)


def split_regular(n, d, rng):
    """A disconnected d-regular snapshot: two cycles for d = 2, else K_{d+1}
    beside a random d-regular graph on the other n - d - 1 nodes."""
    if d == 2:
        return two_cycles(n)
    rest = random_regular_graph(n - d - 1, d, rng)
    clique = [(u, v) for u in range(d + 1) for v in range(u + 1, d + 1)]
    return GraphSnapshot(n, clique + [(u + d + 1, v + d + 1) for u, v in rest.edges])


@st.composite
def flood_cases(draw, disconnected=False):
    n, d = draw(st.sampled_from([(5, 4), (6, 3), (7, 2), (7, 4), (8, 3), (9, 2), (9, 4), (10, 3)]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    # Snapshots of one degree that differ round to round: random d-regular
    # graphs (relabelled odd cycles for d = 2) and, where the shape has one,
    # a disconnected d-regular graph, such as two K4 at n = 8.
    build = {"rr": lambda: random_regular_graph(n, d, rng)}
    if disconnected and (d == 2 or n - d - 1 > d):
        build["split"] = lambda: split_regular(n, d, rng)
    kinds = draw(st.lists(st.sampled_from(sorted(build)), min_size=1, max_size=3))
    sched = PeriodicSchedule([build[kind]() for kind in kinds])
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    start = draw(st.integers(1, 6))
    # Up to twice n: budgets past the flooding time cover the rounds in
    # which every node is already informed.
    budget = draw(st.integers(0, 2 * n))
    return sched, sources, start, budget


class TestFloodProperty:
    @settings(max_examples=200, deadline=None)
    @given(flood_cases(), st.booleans())
    def test_flood_matches_per_node_reference(self, case, require_complete):
        sched, sources, start, budget = case
        expected, msgs = reference_flood(sched, sources, start, budget)
        summaries = []
        for keep in (True, False):
            eng = CongestEngine(sched, SimConfig(bandwidth_bits=AMPLE, record_rounds=keep))
            eng.idle(start - 1)
            if require_complete and len(expected) < sched.n:
                with pytest.raises(FloodIncompleteError):
                    eng.flood(8, sources, budget, require_complete)
            else:
                assert as_dict(eng.flood(8, sources, budget, require_complete)) == expected
            assert eng.round == start - 1 + budget
            summaries.append(log_totals(eng.log))
            if keep:
                flood_records = [(r.t, r.msgs, r.max_edge_bits) for r in eng.log.records[start - 1:]]
                rounds = range(start, start + budget)
                assert flood_records == [(t, m, 8 if m else 0) for t, m in zip(rounds, msgs)]
        assert summaries[0] == summaries[1] == {
            "rounds": start - 1 + budget,
            "total_msgs": sum(msgs),
            "max_edge_bits": 8 if any(msgs) else 0,
            "congestion_events": 0,
        }

    @settings(max_examples=100, deadline=None)
    @given(flood_cases(), st.data())
    def test_round_limit_inside_flood(self, case, data):
        # A limit anywhere before the flood's last round, inside the BFS
        # rounds or inside the rounds after coverage, stops the flood where
        # round-by-round execution would.
        sched, sources, start, budget = case
        budget += 1  # at least one flood round, so some limit falls inside it
        limit = data.draw(st.integers(start - 1, start + budget - 2), label="max_rounds")
        _, msgs = reference_flood(sched, sources, start, limit - (start - 1))
        for keep in (True, False):
            eng = CongestEngine(
                sched, SimConfig(bandwidth_bits=AMPLE, max_rounds=limit, record_rounds=keep)
            )
            eng.idle(start - 1)
            with pytest.raises(RoundLimitError, match=f"exceeded max_rounds={limit}"):
                eng.flood(8, sources, budget, require_complete=False)
            assert eng.round == eng.log.rounds == limit
            assert eng.log.total_msgs == sum(msgs)
            assert len(eng.log.records) == (limit if keep else 0)

    @settings(max_examples=100, deadline=None)
    @given(flood_cases())
    def test_until_complete_matches_reference_and_flooding_time(self, case):
        sched, sources, start, _ = case
        expected, _ = reference_flood(sched, sources, start, sched.n - 1)
        eng = CongestEngine(sched, SimConfig(bandwidth_bits=AMPLE))
        eng.idle(start - 1)
        used, informed = eng.flood_until_complete(8, sources)
        assert as_dict(informed) == expected and len(as_dict(informed)) == sched.n
        assert used == max(expected.values()) - (start - 1) == eng.round - (start - 1)
        eng = CongestEngine(sched, SimConfig(bandwidth_bits=AMPLE))
        eng.idle(start - 1)
        assert eng.flood_until_complete(8, sources[:1])[0] == flooding_time(sched, sources[0], start)

    def test_rounds_after_coverage_build_no_snapshot(self):
        # A declared-regular schedule charges n*d messages per round once
        # every node is informed, without asking for those rounds' snapshots.
        covered = flooding_time(RandomRegularSchedule(16, 3, seed=8), 0)
        sched = RandomRegularSchedule(16, 3, seed=8)
        asked = []
        snapshot_at = sched.snapshot_at
        sched.snapshot_at = lambda t: asked.append(t) or snapshot_at(t)
        eng = CongestEngine(sched, SimConfig(bandwidth_bits=AMPLE))
        informed = eng.flood(8, [0], 40)
        assert len(as_dict(informed)) == 16 and eng.round == 40
        assert asked == list(range(1, covered + 1))
        _, msgs = reference_flood(RandomRegularSchedule(16, 3, seed=8), [0], 1, 40)
        assert msgs[covered:] == [16 * 3] * (40 - covered)
        assert eng.log.total_msgs == sum(msgs)


def reference_outcome(sched, sources, start, budget, limit, require_complete):
    """What `flood` does by `reference_flood`: (return value, or the type and
    text of the error it raises; messages of the rounds it charges)."""
    informed, msgs = reference_flood(sched, sources, start, budget)
    for i, t in enumerate(range(start, start + budget)):
        if t > limit:
            return (RoundLimitError, f"exceeded max_rounds={limit}"), msgs[:i]
        if sum(r < t for r in informed.values()) < sched.n and t not in informed.values():
            return (ScheduleError, f"flood stalled at round {t}: snapshot disconnected"), msgs[:i]
    if require_complete and len(informed) < sched.n:
        text = f"flood informed {len(informed)}/{sched.n} nodes in {budget} rounds"
        return (FloodIncompleteError, text), msgs
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


class CycleUntil(graphs.GraphSchedule):
    """C8 up to round `last`; building any later snapshot raises ScheduleError."""

    def __init__(self, last):
        super().__init__(8, 2, 0, "C8-until")
        self.last = last

    def _build(self, t):
        if t > self.last:
            raise ScheduleError(f"round {t}: no snapshot")
        return named_graph("C8")


class TestFloodMemo:
    @settings(max_examples=200, deadline=None)
    @given(flood_cases(disconnected=True), st.booleans())
    # Each member's row stalls in its own cycle; together they cover both.
    @example((PeriodicSchedule([two_cycles(8)]), [0, 4], 1, 0), True)
    # Each member's row needs 4 rounds, the union 2.
    @example((StaticSchedule(named_graph("C8")), [4, 0], 3, 0), False)
    # Node 0's row informs nobody in round 2, but 2 and 3 in round 3, which
    # the union needs from it.
    @example((PeriodicSchedule([
        GraphSnapshot(8, [(0, 1), (4, 5), (2, 3), (6, 7)]),
        GraphSnapshot(8, [(0, 1), (4, 6), (5, 7), (2, 3)]),
        GraphSnapshot(8, [(1, 2), (0, 3), (4, 5), (6, 7)]),
    ]), [0, 4], 1, 0), True)
    def test_set_trace_matches_per_node_reference(self, case, members_first):
        # A set flood is read from the minimum of its members' rows, whether
        # one BFS computed them together or each flood alone did before.
        sched, sources, start, _ = case
        for flood in ([[s] for s in sources] if members_first else []) + [sources]:
            sent, informed, complete = sched.flood_trace(flood, start)
            expected_sent, expected_informed, stall = reference_trace(sched, flood, start)
            assert sent == tuple(expected_sent) and as_dict(informed) == expected_informed
            assert complete == (stall is None)
            if not complete:
                assert str(flood_failure(sched, start + len(sent))) == stall

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["periodic", "rr", "perm", "build-error"]), st.data())
    def test_set_row_is_the_minimum_of_its_member_rows(self, kind, data):
        # One BFS from a whole set informs each node in the round the first
        # of its members' floods does, through stalls (periodic schedules
        # with a disconnected snapshot) and failed builds alike.
        if kind == "periodic":
            sched, sources, start, _ = data.draw(flood_cases(disconnected=True))
        else:
            n, d = data.draw(st.sampled_from([(5, 4), (7, 2), (8, 3), (10, 3), (9, 4)]))
            seed = data.draw(st.integers(0, 2**32 - 1))
            sched = {
                "rr": lambda: RandomRegularSchedule(n, d, seed),
                "perm": lambda: PermutedSchedule(random_regular_graph(n, d, random.Random(seed)), seed),
                "build-error": lambda: CycleUntil(seed % 6),
            }[kind]()
            sources = data.draw(st.lists(st.integers(0, sched.n - 1), min_size=1, max_size=sched.n))
            start = data.draw(st.integers(1, 6))
        (row,) = graphs.informed_rounds(sched, [sources], start)
        assert row.tolist() == graphs.informed_rounds(sched, sources, start).min(axis=0).tolist()

    def test_set_over_the_memo_budget_floods_as_one_row(self):
        # 256 members' rows at n = 4096 are 8 times FLOOD_MEMO_CELLS: the
        # set gets one row of its own, in memory of a few rows of n, where a
        # row per member took 4 MB and its gather 12 MB.
        g = random_regular_graph(4096, 3, random.Random(1))
        sources = list(range(0, 4096, 16))
        sched = StaticSchedule(g)
        assert len(sources) * 2 * g.n > sched.FLOOD_MEMO_CELLS
        tracemalloc.start()
        try:
            trace = sched.flood_trace(sources, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20 and not sched._memo
        per_member = StaticSchedule(g)
        per_member.FLOOD_MEMO_CELLS = len(sources) * 2 * g.n  # room for every member's row
        expected = per_member.flood_trace(sources, 1)
        assert len(per_member._memo) == len(sources)
        assert trace.sent == expected.sent and trace.complete and expected.complete
        assert trace.informed.tolist() == expected.informed.tolist()

    def test_build_error_after_the_union_completes_does_not_surface(self):
        sched = CycleUntil(2)
        with pytest.raises(ScheduleError, match="round 3: no snapshot"):
            flooding_time(sched, 0)  # a flood from 0 alone needs 4 rounds
        with pytest.raises(ScheduleError, match="round 3: no snapshot"):
            dynamic_diameter(sched, 1)
        trace = sched.flood_trace([0, 4], 1)  # informs everyone in 2 rounds
        assert trace.complete and trace.sent == (4, 12)
        assert as_dict(trace.informed) == {0: 0, 4: 0, 1: 1, 3: 1, 5: 1, 7: 1, 2: 2, 6: 2}
        eng = make_engine(sched, seed=0)
        assert len(as_dict(eng.flood(8, [4, 0], 6))) == 8 and eng.round == 6
        # A flood that reaches round 3 incomplete raises its build error.
        eng = make_engine(sched, seed=0)
        with pytest.raises(ScheduleError, match="round 3: no snapshot"):
            eng.flood(8, [0, 1], 6)
        assert eng.round == eng.log.rounds == 2

    @pytest.mark.parametrize("sched, text", [
        (PeriodicSchedule([two_cycles(8)]), "flood stalled at round 4: snapshot disconnected"),
        (CycleUntil(3), "round 4: no snapshot"),
    ], ids=["stall", "build-error"])
    def test_each_failure_is_raised_fresh(self, sched, text):
        # The memo keeps no exception: every failing flood raises a new one,
        # whose traceback is as long as the last one's.
        raised = []
        for _ in range(3):
            with pytest.raises(ScheduleError, match=text) as info:
                flooding_time(sched, 0, 2)
            raised.append((info.value, len(traceback.extract_tb(info.value.__traceback__))))
        assert len({id(exc) for exc, _ in raised}) == 3
        assert len({depth for _, depth in raised}) == 1
        assert not any(isinstance(field, BaseException) for field in sched.flood_trace([0], 2))

    def test_build_error_keeps_its_cause(self, monkeypatch):
        def no_graph(n, d, rng):
            raise ScheduleError("no graph")

        sched = parse_schedule_spec("rr:n=8,d=3", seed=0)
        monkeypatch.setattr(graphs, "random_regular_graph", no_graph)
        with pytest.raises(ScheduleError, match="^round 1: no graph$") as info:
            make_engine(sched, seed=0).flood(8, [0], 3)
        assert str(info.value.__cause__) == "no graph"
        assert flood_failure(sched, 1) is not flood_failure(sched, 1)

    def test_rows_memo_never_grows_past_its_cap(self):
        sched = parse_schedule_spec("rr:n=8,d=3", seed=5)
        sched.FLOOD_MEMO_CELLS = 5 * 2 * 8  # five entries of two rows of n cells
        rng = random.Random(3)
        for start in range(1, 30):
            sources = rng.sample(range(8), rng.randint(1, 4))
            sent, informed, _ = sched.flood_trace(sources, start)
            assert len(sched._memo) * 2 * 8 <= sched.FLOOD_MEMO_CELLS
            assert all(row.dtype == np.int32 for row, _ in sched._memo.values())
            expected_sent, expected_informed, _ = reference_trace(sched, sources, start)
            assert sent == tuple(expected_sent) and as_dict(informed) == expected_informed
        # A batch of all 8 rows is larger than the cap: it is used, not kept.
        assert dynamic_diameter(sched, 3) == max(flooding_time(sched, s, t) for s in range(8) for t in (1, 2, 3))
        assert len(sched._memo) * 2 * 8 <= sched.FLOOD_MEMO_CELLS

    def test_cap_counts_two_rows_per_entry(self):
        # Room for four rows of n cells is room for two entries: a row each,
        # and its trace's informed array.
        sched = parse_schedule_spec("static:C8")
        sched.FLOOD_MEMO_CELLS = 4 * 8
        for source in (0, 1):
            sched.flood_trace([source], 1)
        assert sorted(sched._memo) == [(1, 0), (1, 1)] and memo_traces(sched) == 2
        sched.flood_trace([2], 1)  # a third entry clears the memo first
        assert sorted(sched._memo) == [(1, 2)] and memo_traces(sched) == 1

    def test_set_flood_stores_no_trace(self):
        sched = parse_schedule_spec("static:C8")
        trace = sched.flood_trace([0, 4], 3)
        assert sorted(sched._memo) == [(3, 0), (3, 4)] and memo_traces(sched) == 0
        with mock.patch.object(graphs, "informed_rounds", wraps=graphs.informed_rounds) as bfs:
            again = sched.flood_trace([4, 0], 3)
        assert bfs.call_count == 0  # read again from the members' rows
        assert again is not trace and again.sent == trace.sent == (4, 12)
        assert again.informed.tolist() == trace.informed.tolist() == [2, 3, 4, 3, 2, 3, 4, 3]
        assert sched.flood_trace([0], 3) is sched.flood_trace([0], 3)
        assert memo_traces(sched) == 1

    @settings(max_examples=200, deadline=None)
    @given(flood_cases(disconnected=True), st.booleans(), st.data())
    def test_cold_and_warm_memo_agree(self, case, require_complete, data):
        # The same flood on two fresh engines over one schedule: the first
        # runs the BFS and fills the memo, the second charges the memo's
        # rows, and a one-source flood its trace.  Both do what the per-node
        # reference does.
        sched, sources, start, budget = case
        limit = data.draw(
            st.one_of(st.just(SimConfig.max_rounds), st.integers(start - 1, start + 2 * sched.n)),
            label="max_rounds",
        )
        expected, msgs = reference_outcome(sched, sources, start, budget, limit, require_complete)
        traced = len(set(sources)) < sched.n and budget > 0
        runs = []
        for bfs_calls in (int(traced), 0):
            eng = CongestEngine(
                sched, SimConfig(bandwidth_bits=AMPLE, max_rounds=limit, record_rounds=True)
            )
            eng.idle(start - 1)
            with mock.patch.object(graphs, "informed_rounds", wraps=graphs.informed_rounds) as bfs:
                try:
                    informed = eng.flood(8, sources, budget, require_complete)
                    assert not informed.flags.writeable  # must not reach the memo
                    got = as_dict(informed)
                except DynwalkError as exc:
                    got = (type(exc), str(exc))
            assert bfs.call_count == bfs_calls
            assert len(sched._memo) == (len(set(sources)) if traced else 0)
            assert memo_traces(sched) == int(traced and len(set(sources)) == 1)
            records = [(r.t, r.msgs, r.max_edge_bits) for r in eng.log.records]
            runs.append((got, eng.round, log_totals(eng.log), records))
            assert got == expected
            assert records[start - 1:] == [(t, m, 8 if m else 0) for t, m in enumerate(msgs, start)]
            assert eng.round == eng.log.rounds == start - 1 + len(msgs)
        assert runs[0][1:] == runs[1][1:]

    def test_repeated_flood_returns_the_same_read_only_array(self):
        c5 = parse_schedule_spec("static:C5")
        first = make_engine(c5, seed=0).flood(8, [0], 2)
        with pytest.raises(ValueError):
            first[0] = 99
        again = make_engine(c5, seed=0).flood(8, [0], 2)
        assert again is first
        assert as_dict(again) == {0: 0, 1: 1, 4: 1, 2: 2, 3: 2}

    def test_budget_cut_reads_minus_one_past_the_cut(self):
        c9 = parse_schedule_spec("static:C9")
        eng = make_engine(c9, seed=0)
        eng.idle(3)
        informed = eng.flood(8, [0], 2, require_complete=False)
        assert informed.tolist() == [3, 4, 5, -1, -1, -1, -1, 5, 4]
        assert not informed.flags.writeable
        # The memo keeps the whole flood; the cut array is a copy.
        assert c9.flood_trace([0], 4).informed.tolist() == [3, 4, 5, 6, 7, 7, 6, 5, 4]
        with pytest.raises(FloodIncompleteError, match="flood informed 5/9 nodes in 2 rounds"):
            make_engine(c9, seed=0).flood(8, [0], 2)


class TestEncodings:
    def test_default_bandwidth(self):
        assert default_bandwidth(16) == 4 * 4 * 4
        assert default_bandwidth(64) == 4 * 6 * 6

    def test_bit_table(self, rr16):
        eng = make_engine(rr16, seed=0)
        assert eng.enc.id_bits == 4
        assert eng.enc.coupon_bits(4, 3) == 2 * 4 + 3 + 2  # ids + len(2*lam=8) + serial
        assert eng.enc.token_bits(20) == 4 + 5  # id + counter(21)
        assert eng.enc.token_bits(20, k=8) == 4 + 3 + 5
        assert eng.enc.request_bits(3) == 4 + 2
        assert eng.enc.gossip_bits(8) == 3
