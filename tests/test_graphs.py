import json
import random
import re
import tempfile
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_dict, memo_traces
from dynwalk.harness import ExperimentConfig, resolve_phi
from dynwalk.graphs import (
    GraphSnapshot,
    PeriodicSchedule,
    PermutedSchedule,
    RandomRegularSchedule,
    ScheduleError,
    StaticSchedule,
    dynamic_diameter,
    flooding_time,
    named_graph,
    parse_schedule_spec,
    random_regular_graph,
    read_schedule_file,
    validate_snapshot,
    write_schedule_file,
)


def bfs_diameter(g):
    best = 0
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        dq = deque([s])
        while dq:
            v = dq.popleft()
            for u in g.adj[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    dq.append(u)
        best = max(best, max(dist))
    return best


def temporal_bfs_rounds(schedule, source, start):
    # Independent flooding oracle: plain frontier expansion per snapshot.
    informed = {source}
    r = 0
    while len(informed) < schedule.n:
        g = schedule.snapshot_at(start + r)
        informed |= {u for v in informed for u in g.adj[v]}
        r += 1
    return r


def valid(g, d):
    """Connected, not bipartite and d-regular: what every schedule promises."""
    report = validate_snapshot(g)
    return report.connected and not report.bipartite and report.regular_degree == d


class TestValidation:
    def test_c5_report(self):
        report = validate_snapshot(named_graph("C5"))
        assert report.connected and report.regular_degree == 2 and not report.bipartite

    def test_c4_bipartite(self):
        assert validate_snapshot(named_graph("C4")).bipartite

    def test_disjoint_triangles_disconnected(self):
        g = GraphSnapshot(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        report = validate_snapshot(g)
        assert not report.connected
        assert report.regular_degree == 2

    def test_star_degrees(self):
        g = named_graph("star4")
        assert g.degree(0) == 4 and all(g.degree(i) == 1 for i in range(1, 5))
        assert validate_snapshot(g).regular_degree is None

    def test_petersen(self):
        g = named_graph("petersen")
        assert valid(g, 3)
        assert bfs_diameter(g) == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            GraphSnapshot(3, [(0, 0)])


class TestNeighborTable:
    def test_rows_padded_to_max_degree(self):
        g = named_graph("star4")
        assert g.nbr.shape == (5, 4)
        assert sorted(g.nbr[0].tolist()) == [1, 2, 3, 4]
        for leaf in range(1, 5):
            assert g.nbr[leaf].tolist() == [0, -1, -1, -1]

    def test_built_once_and_shared_with_round_clones(self):
        # Every round of a periodic schedule returns its period's snapshot
        # itself, so the table is built once for all of them.
        g = named_graph("C5")
        sched = PeriodicSchedule([g, named_graph("K5")])
        nbr = sched.snapshot_at(9).nbr
        assert sched.snapshot_at(9) is g and g.nbr is nbr and sched.snapshot_at(3).nbr is nbr
        for v in range(5):
            assert g.nbr[v].tolist() == list(g.adj[v])


def port_pairs(g):
    return {(u, v) for u, row in enumerate(g.nbr.tolist()) for v in row if v >= 0}


def edge_pairs(g):
    return set(g.edges) | {(v, u) for u, v in g.edges}


def assert_ports_match_edges(g):
    degrees = [len(a) for a in g.adj]
    assert g.nbr.shape == (g.n, max(degrees)) and g.nbr.dtype == np.int64
    for v, a in enumerate(g.adj):  # sorted rows, in adj's order, then padding
        assert g.nbr[v].tolist() == sorted(a) + [-1] * (g.nbr.shape[1] - len(a))
    assert port_pairs(g) == edge_pairs(g)
    assert g.padded == (len(set(degrees)) > 1)


class TestPorts:
    @pytest.mark.parametrize("name", ["star4", "C5", "K5", "petersen"])
    def test_matches_edges(self, name):
        assert_ports_match_edges(named_graph(name))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 6), st.integers(8, 24), st.integers(0, 2**32 - 1))
    def test_matches_edges_of_random_regular(self, d, n, seed):
        g = random_regular_graph(n + n * d % 2, d, random.Random(seed))
        assert_ports_match_edges(g)
        assert not g.padded

    def test_padded_read_first_builds_the_table(self):
        g = named_graph("star4")
        assert g.padded and g.nbr[1].tolist() == [0, -1, -1, -1]
        assert not named_graph("C5").padded

    @pytest.mark.parametrize("name", ["C5", "star4"])
    def test_has_edge_false_off_range(self, name):
        g = named_graph(name)
        for bad in (-1, g.n, 10**9, -(10**9)):
            for v in range(g.n):
                assert not g.has_edge(bad, v) and not g.has_edge(v, bad)
            assert not g.has_edge(bad, bad)
        assert {(u, v) for u in range(g.n) for v in range(g.n) if g.has_edge(u, v)} == edge_pairs(g)


class TestSchedules:
    def test_static_constant(self, c5):
        assert c5.snapshot_at(7).edges == c5.snapshot_at(1).edges
        assert c5.snapshot_at(7) == c5.snapshot_at(3)

    def test_period(self, c5):
        assert c5.period == 1 and parse_schedule_spec("srr:n=8,d=3", seed=0).period == 1
        assert PeriodicSchedule([named_graph("C5"), named_graph("K5"), named_graph("C5")]).period == 3
        assert parse_schedule_spec("rr:n=8,d=3", seed=0).period is None
        assert parse_schedule_spec("perm:base=C9", seed=0).period is None

    def test_periodic_indexing(self):
        k5 = named_graph("K5")
        c5 = named_graph("C5")
        sched = PeriodicSchedule([c5, k5])
        assert sched.snapshot_at(3).edges == c5.edges  # period 2: t=3 -> first entry
        assert sched.snapshot_at(2).edges == k5.edges

    def test_random_regular_deterministic(self):
        a = RandomRegularSchedule(8, 3, seed=42)
        b = RandomRegularSchedule(8, 3, seed=42)
        assert a.snapshot_at(1).edges == b.snapshot_at(1).edges
        assert a.snapshot_at(5).edges == b.snapshot_at(5).edges
        c = RandomRegularSchedule(8, 3, seed=43)
        assert any(a.snapshot_at(t).edges != c.snapshot_at(t).edges for t in range(1, 6))

    def test_rounds_one_indexed(self, c5):
        with pytest.raises(ValueError):
            c5.snapshot_at(0)

    def test_rr_parity_error(self):
        with pytest.raises(ScheduleError):
            random_regular_graph(7, 3, random.Random(1))

    @pytest.mark.parametrize("n, d, text", [
        (5, 3, "n*d must be even, got n=5, d=3"),
        (4, 4, "need 0 < d < n, got n=4, d=4"),
        (6, 0, "need 0 < d < n, got n=6, d=0"),
    ])
    def test_rr_shape_rejected_when_built(self, n, d, text):
        with pytest.raises(ScheduleError, match=re.escape(text)):
            RandomRegularSchedule(n, d, seed=0)
        with pytest.raises(ScheduleError, match=re.escape(text)):
            parse_schedule_spec(f"rr:n={n},d={d}")
        with pytest.raises(ScheduleError, match=re.escape(text)):
            random_regular_graph(n, d, random.Random(1))

    def test_perm_preserves_invariants(self):
        base = random_regular_graph(12, 3, random.Random(5))
        sched = PermutedSchedule(base, seed=9)
        snaps = [sched.snapshot_at(t) for t in range(1, 9)]
        assert all(valid(g, 3) for g in snaps)
        assert any(snaps[0].edges != g.edges for g in snaps[1:])
        again = PermutedSchedule(base, seed=9)
        assert all(again.snapshot_at(t).edges == snaps[t - 1].edges for t in range(1, 9))

    @pytest.mark.parametrize(
        "maker",
        [
            lambda seed: RandomRegularSchedule(10, 3, seed=seed),
            lambda seed: RandomRegularSchedule(16, 4, seed=seed),
            lambda seed: PermutedSchedule(named_graph("petersen"), seed=seed),
        ],
    )
    def test_generator_validity_sampled(self, maker):
        # 1000 (seed, t) pairs per generator: every snapshot valid.
        rng = random.Random(123)
        for _ in range(1000):
            sched = maker(rng.randrange(2**32))
            t = rng.randrange(1, 50)
            g = sched.snapshot_at(t)
            assert valid(g, sched.d)


class TestFlooding:
    def test_complete_graph(self, k4):
        assert flooding_time(k4, 0) == 1
        assert dynamic_diameter(k4, 4) == 1

    def test_cycle(self, c5):
        for src in range(5):
            assert flooding_time(c5, src) == 2
        assert dynamic_diameter(c5, 3) == 2

    def test_periodic_vs_temporal_bfs_oracle(self):
        rng = random.Random(7)
        g1 = random_regular_graph(8, 3, rng)
        g2 = random_regular_graph(8, 3, rng)
        sched = PeriodicSchedule([g1, g2])
        for start in range(1, 5):
            for src in range(8):
                assert flooding_time(sched, src, start) == temporal_bfs_rounds(sched, src, start)

    def test_static_diameter_equals_dynamic(self):
        # 50 random instances: dynamic diameter of static == BFS diameter.
        rng = random.Random(11)
        for _ in range(50):
            n = rng.choice([8, 12, 16, 24, 32])
            d = rng.choice([3, 4])
            if n * d % 2:
                d = 4
            g = random_regular_graph(n, d, rng)
            assert dynamic_diameter(StaticSchedule(g), 1) == bfs_diameter(g)

    def test_flood_bounded_by_n_minus_1(self):
        sched = parse_schedule_spec("perm:base=C9", seed=3)
        for start in range(1, 6):
            assert flooding_time(sched, 0, start) <= 8


class TestFloodMemo:
    def test_hit_returns_the_stored_trace(self):
        sched = parse_schedule_spec("perm:base=petersen", seed=2)
        trace = sched.flood_trace([3], 4)
        assert sched.flood_trace((3, 3), 4) is trace
        assert sched.flood_trace([3], 5) is not trace
        assert sorted(as_dict(trace.informed)) == list(range(10)) and trace.error is None
        assert trace.informed[3] == 3 and min(np.delete(trace.informed, 3)) == 4
        pair = sched.flood_trace([3, 1], 4)  # a set trace is read from the rows on every call
        news = {v: t for v, t in as_dict(pair.informed).items() if v not in (1, 3)}
        assert sorted(news) == [0, 2] + list(range(4, 10))
        assert min(news.values()) == 4 and pair.error is None

    def test_stall_is_kept_in_the_trace(self, triangles):
        trace = triangles.flood_trace([0], 2)
        assert trace.sent == (2,) and as_dict(trace.informed) == {0: 1, 1: 2, 2: 2}
        assert trace.informed.tolist() == [1, 2, 2, -1, -1, -1]
        assert isinstance(trace.error, ScheduleError)
        assert str(trace.error) == "flood stalled at round 3: snapshot disconnected"

    @pytest.mark.parametrize(
        "setup",
        [
            lambda s: dynamic_diameter(s, 4),
            lambda s: resolve_phi(ExperimentConfig(s.spec, "single"), s),
        ],
        ids=["dynamic_diameter", "resolve_phi"],
    )
    def test_set_up_paths_build_no_trace(self, setup):
        sched = parse_schedule_spec("rr:n=8,d=3", seed=5)
        assert not sched._memo
        setup(sched)
        assert sched._memo and memo_traces(sched) == 0


class TestFilesAndSpecs:
    def test_schedule_file_roundtrip(self, tmp_path):
        sched = RandomRegularSchedule(8, 3, seed=4)
        path = tmp_path / "sched.jsonl"
        write_schedule_file(sched, 5, path)
        n, d, graphs = read_schedule_file(path)
        assert (n, d) == (8, 3)
        assert len(graphs) == 5
        assert all(graphs[t - 1].edges == sched.snapshot_at(t).edges for t in range(1, 6))
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"n": 8, "d": 3, "T": 5}

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["rr", "perm", "periodic"]),
        st.sampled_from([(6, 3), (8, 3), (9, 4), (10, 3)]),
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
    )
    def test_schedule_file_roundtrip_property(self, kind, nd, seed, rounds):
        n, d = nd
        if kind == "rr":
            sched = parse_schedule_spec(f"rr:n={n},d={d}", seed=seed)
        elif kind == "perm":
            sched = parse_schedule_spec(f"perm:base=C{n}", seed=seed)
        else:
            # Cycles mixed with d-regular graphs leave the degree undeclared.
            rng = random.Random(seed)
            graphs = [
                random_regular_graph(n, d, rng) if rng.random() < 0.5 else named_graph(f"C{n}")
                for _ in range(rng.randint(1, 3))
            ]
            sched = PeriodicSchedule(graphs)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sched.jsonl"
            write_schedule_file(sched, rounds, path)
            got_n, got_d, graphs = read_schedule_file(path)
            ts = [json.loads(line)["t"] for line in path.read_text().splitlines()[1:]]
        assert (got_n, got_d) == (sched.n, sched.d)
        assert ts == list(range(1, rounds + 1))
        assert [g.edges for g in graphs] == [sched.snapshot_at(t).edges for t in range(1, rounds + 1)]

    @pytest.mark.parametrize("rounds", [0, -2])
    def test_write_rejects_nonpositive_rounds(self, tmp_path, rounds):
        path = tmp_path / "sched.jsonl"
        with pytest.raises(ValueError, match="rounds"):
            write_schedule_file(RandomRegularSchedule(8, 3, seed=4), rounds, path)
        assert not path.exists()

    @pytest.mark.parametrize("spec", ["static:{}", "perm:base={}", "periodic:{}"])
    def test_header_only_file_names_itself(self, tmp_path, spec):
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps({"n": 8, "d": 3, "T": 0}) + "\n")
        with pytest.raises(ScheduleError, match=re.escape(f"{path} holds no snapshots")):
            read_schedule_file(path)
        with pytest.raises(ScheduleError, match="holds no snapshots"):
            parse_schedule_spec(spec.format(path), seed=0)

    def test_periodic_from_file(self, tmp_path):
        sched = RandomRegularSchedule(8, 3, seed=4)
        path = tmp_path / "sched.jsonl"
        write_schedule_file(sched, 3, path)
        loaded = parse_schedule_spec(f"periodic:{path}", seed=0)
        assert loaded.snapshot_at(4).edges == sched.snapshot_at(1).edges

    def test_spec_grammar(self):
        assert parse_schedule_spec("static:K4", seed=0).n == 4
        assert parse_schedule_spec("rr:n=8,d=3", seed=0).d == 3
        assert parse_schedule_spec("srr:n=16,d=3", seed=0).d == 3
        assert parse_schedule_spec("perm:base=petersen", seed=0).n == 10
        assert parse_schedule_spec("rr:d=3,n=16", seed=0).n == 16  # keys in any order
        assert parse_schedule_spec("srr: n=16,d=3 ", seed=2).snapshot_at(1).edges == (
            parse_schedule_spec("srr:n=16,d=3", seed=2).snapshot_at(1).edges
        )
        with pytest.raises(ScheduleError):
            parse_schedule_spec("bogus:stuff", seed=0)

    @pytest.mark.parametrize(
        "spec", ["rr:n=16", "rr:n=x,d=3", "perm:", "srr:d=3", "perm:base=", "static:", "periodic:"]
    )
    def test_malformed_spec_names_itself(self, spec):
        with pytest.raises(ScheduleError, match=re.escape(repr(spec))):
            parse_schedule_spec(spec, seed=0)

    def test_srr_seed_determinism(self):
        a = parse_schedule_spec("srr:n=16,d=3", seed=9)
        b = parse_schedule_spec("srr:n=16,d=3", seed=9)
        assert a.snapshot_at(1).edges == b.snapshot_at(1).edges
