import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AMPLE, make_engine
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
    dynamic_diameter,
    flooding_time,
    named_graph,
    parse_schedule_spec,
    random_regular_graph,
)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


class TestExchange:
    def test_non_edge_rejected(self, c5):
        eng = make_engine(c5, seed=0)
        with pytest.raises(ProtocolError):
            eng.exchange([0], [2], 4)  # C5: 0-2 not an edge

    def test_strict_overflow_names_round_and_edge(self, k4):
        eng = make_engine(k4, seed=0, bandwidth=10)
        with pytest.raises(CongestionError) as err:
            eng.exchange([0, 0], [1, 1], 6)
        assert "round 1" in str(err.value) and "(0,1)" in str(err.value)

    def test_delivery_matches_schedule(self):
        # A message rides edge e at round t iff e is in E_t.
        sched = RandomRegularSchedule(10, 3, seed=3)
        rng = np.random.default_rng(5)
        eng = CongestEngine(sched, SimConfig(seed=1, bandwidth_bits=AMPLE, record_rounds=True))
        for t in range(1, 30):
            g = sched.snapshot_at(t)
            u = int(rng.integers(10))
            v = g.adj[u][int(rng.integers(3))]
            off = next(w for w in range(10) if w != u and not g.has_edge(u, w))
            with pytest.raises(ProtocolError, match=f"round {t}: \\({u},{off}\\)"):
                eng.exchange([u], [off], 4)
            eng.exchange([u], [v], 4)
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
            receivers = []
            for t in range(1, 11):
                g = eng.next_snapshot()
                rng = eng.stream(7)
                v = g.adj[0][int(rng.integers(len(g.adj[0])))]
                eng.exchange([0], [v], 5)
                receivers.append(v)
            return eng.log.summary(), eng.log.records, receivers

        assert one_run(42) == one_run(42)
        assert one_run(42)[2] != one_run(43)[2]

    def test_roundlog_totals_match_records(self, k4):
        eng = CongestEngine(k4, SimConfig(bandwidth_bits=AMPLE, record_rounds=True))
        eng.exchange([0, 1], [1, 2], 4)
        eng.idle(1)
        eng.exchange([2], [3], 4)
        assert eng.log.rounds == len(eng.log.records) == 3
        assert eng.log.total_msgs == sum(r.msgs for r in eng.log.records) == 3
        assert eng.log.max_edge_bits == max(r.max_edge_bits for r in eng.log.records)
        assert len(eng.log.jsonl_records()) == 3


def reference_exchange(g, B, t, sends, bits):
    """Per-message dict model of one round: (error type, text) or (msgs, max edge bits).

    Edges are looked up in `g.edges`, not through `has_edge`, which reads the
    same edge mask as `exchange`."""
    for u, v in sends:
        if (min(u, v), max(u, v)) not in g.edges:
            return ProtocolError, f"round {t}: ({u},{v}) is not an edge of G_{t}"
    load = {}
    for u, v in sends:
        load[(u, v)] = load.get((u, v), 0) + bits
    top = max(load.values(), default=0)
    if top > B:
        u, v = min(e for e, x in load.items() if x == top)
        return CongestionError, f"round {t}: edge ({u},{v}) would carry {top} bits > B={B}"
    return len(sends), top


@st.composite
def exchange_rounds(draw):
    n, d = draw(st.sampled_from([(6, 3), (8, 3), (8, 4), (10, 4)]))
    sched = RandomRegularSchedule(n, d, seed=draw(st.integers(0, 2**16)))
    B = draw(st.integers(4, 40))
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        t = len(rounds) + 1  # after a round that raises, the engine lags: sends go stale
        g = sched.snapshot_at(t)
        # Off-range ids: just outside [0, n) (-1 is also the neighbor table's
        # padding) and far beyond it (which must not size any per-edge array).
        off_ids = st.one_of(st.integers(-1, n), st.sampled_from([-n, -(10**9), 10**9]))
        sends = []
        for _ in range(draw(st.integers(0, 12))):
            u = draw(st.integers(-1, n) if draw(st.integers(0, 19)) > 0 else off_ids)
            if 0 <= u < n and draw(st.integers(0, 9)) > 0:
                v = g.adj[u][draw(st.integers(0, d - 1))]
            else:
                v = draw(off_ids)
            sends.append((u, v))
        rounds.append((sends, draw(st.integers(1, 12))))
    return sched, B, rounds


@st.composite
def nonregular_exchange_rounds(draw):
    # A periodic schedule mixing star<n-1> with C_n and K_n: d is None, star
    # rows are padded with -1, and leaf-to-leaf pairs are off-edge.
    n = draw(st.integers(4, 8))
    names = [f"star{n - 1}"] + draw(st.lists(st.sampled_from([f"star{n - 1}", f"C{n}", f"K{n}"]), max_size=2))
    sched = PeriodicSchedule([named_graph(name) for name in draw(st.permutations(names))])
    B = draw(st.integers(4, 40))
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        g = sched.snapshot_at(len(rounds) + 1)
        sends = []
        for _ in range(draw(st.integers(0, 12))):
            u = draw(st.integers(-1, n))
            if 0 <= u < n and draw(st.integers(0, 3)) > 0:
                v = g.adj[u][draw(st.integers(0, g.degree(u) - 1))]
            else:
                v = draw(st.one_of(st.integers(-1, n), st.sampled_from([-(10**9), 10**9])))
            sends.append((u, v))
        rounds.append((sends, draw(st.integers(1, 12))))
    return sched, B, rounds


def assert_matches_reference(sched, B, rounds):
    eng = CongestEngine(sched, SimConfig(bandwidth_bits=B, record_rounds=True))
    for sends, bits in rounds:
        t = eng.round + 1
        expected = reference_exchange(sched.snapshot_at(t), B, t, sends, bits)
        src = np.array([u for u, _ in sends], dtype=np.int64)
        dst = np.array([v for _, v in sends], dtype=np.int64)
        if isinstance(expected[0], type):
            with pytest.raises(expected[0]) as err:
                eng.exchange(src, dst, bits)
            assert str(err.value) == expected[1]
            assert eng.round == t - 1
        else:
            eng.exchange(src, dst, bits)
            rec = eng.log.records[-1]
            assert (rec.t, rec.msgs, rec.max_edge_bits) == (t, *expected)
            assert rec.max_edge_bits <= B
    assert eng.log.rounds == len(eng.log.records) == eng.round


class TestExchangeProperty:
    @settings(max_examples=200, deadline=None)
    @given(exchange_rounds())
    def test_matches_per_message_reference(self, case):
        assert_matches_reference(*case)

    @settings(max_examples=200, deadline=None)
    @given(nonregular_exchange_rounds())
    def test_matches_per_message_reference_non_regular(self, case):
        assert case[0].d is None
        assert_matches_reference(*case)


class TestFlood:
    def test_k4_budget_one(self, k4):
        eng = make_engine(k4, seed=0)
        informed = eng.flood(8, [0], budget=1)
        assert set(informed) == set(range(4)) and eng.round == 1

    def test_c5_budget_two(self, c5):
        eng = make_engine(c5, seed=0)
        informed = eng.flood(8, [2], budget=2)
        assert set(informed) == set(range(5)) and eng.round == 2

    def test_budget_consumed_exactly(self, k4):
        eng = make_engine(k4, seed=0)
        eng.flood(8, [0], budget=5)
        assert eng.round == 5

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
        assert len(informed) == 8

    def test_flood_until_complete_rounds(self, c5):
        eng = make_engine(c5, seed=0)
        used, informed = eng.flood_until_complete(8, [0])
        assert used == 2 and len(informed) == 5

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
        assert make_engine(sched, seed=0).flood(8, [0], 1, require_complete=False) == {0: 0, 1: 1, 4: 1}
        eng = make_engine(sched, seed=0)
        assert eng.flood(8, [0], 2, require_complete=False) == {0: 0, 1: 1, 4: 1, 2: 2, 3: 2}
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
        g = schedule.snapshot_at(t)
        before = set(informed)
        msgs.append(sum(g.degree(v) for v in before))
        for u in range(schedule.n):
            if u not in before and any(v in before for v in g.adj[u]):
                informed[u] = t
    return informed, msgs


def two_cycles(n):
    """A disconnected snapshot: cycles on [0, n//2) and [n//2, n), n >= 6."""
    h = n // 2
    first = [(i, (i + 1) % h) for i in range(h)]
    second = [(h + i, h + (i + 1) % (n - h)) for i in range(n - h)]
    return GraphSnapshot(n, first + second)


@st.composite
def flood_cases(draw, disconnected=False):
    n, d = draw(st.sampled_from([(5, 4), (6, 3), (7, 4), (8, 3), (9, 4), (10, 3)]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    # Mixing cycles and cliques with random d-regular graphs gives schedules
    # with no declared degree (d is None), such as C5 then K5.
    build = {
        "rr": lambda: random_regular_graph(n, d, rng),
        "C": lambda: named_graph(f"C{n}"),
        "K": lambda: named_graph(f"K{n}"),
    }
    if disconnected and n >= 6:
        build["split"] = lambda: two_cycles(n)
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
                assert eng.flood(8, sources, budget, require_complete) == expected
            assert eng.round == start - 1 + budget
            summaries.append(eng.log.summary())
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
        assert informed == expected and len(informed) == sched.n
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
        assert len(informed) == 16 and eng.round == 40
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


class TestFloodMemo:
    @settings(max_examples=200, deadline=None)
    @given(flood_cases(disconnected=True), st.booleans(), st.data())
    def test_cold_and_warm_memo_agree(self, case, require_complete, data):
        # The same flood on two fresh engines over one schedule: the first
        # runs the BFS and fills the memo, the second charges the memo's
        # trace.  Both do what the per-node reference does.
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
            with mock.patch.object(graphs, "flood_rounds", wraps=graphs.flood_rounds) as bfs:
                try:
                    got = eng.flood(8, sources, budget, require_complete)
                except DynwalkError as exc:
                    got = (type(exc), str(exc))
            assert bfs.call_count == bfs_calls
            assert len(sched._floods) == int(traced)
            records = [(r.t, r.msgs, r.max_edge_bits) for r in eng.log.records]
            runs.append((got, eng.round, eng.log.summary(), records))
            assert got == expected
            assert records[start - 1:] == [(t, m, 8 if m else 0) for t, m in enumerate(msgs, start)]
            assert eng.round == eng.log.rounds == start - 1 + len(msgs)
            if isinstance(got, dict):
                got.clear()  # must not reach the memo
        assert runs[0][1:] == runs[1][1:]

    def test_returned_dicts_are_fresh(self):
        c5 = parse_schedule_spec("static:C5")
        first = make_engine(c5, seed=0).flood(8, [0], 2)
        first[0] = 99
        first.pop(1)
        assert make_engine(c5, seed=0).flood(8, [0], 2) == {0: 0, 1: 1, 4: 1, 2: 2, 3: 2}


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
