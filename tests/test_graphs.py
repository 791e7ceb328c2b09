import json
import random
import re
import tempfile
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SUITE_SHAPES, as_dict, memo_traces, prism5
from dynwalk.harness import ExperimentConfig, resolve_phi
from dynwalk import graphs
from dynwalk.graphs import (
    GraphSnapshot,
    PeriodicSchedule,
    PermutedSchedule,
    RandomRegularSchedule,
    ScheduleError,
    StaticSchedule,
    _shuffle,
    dynamic_diameter,
    flood_failure,
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
    adj = g.nbr.tolist()
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        dq = deque([s])
        while dq:
            v = dq.popleft()
            for u in adj[v]:
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
        adj = schedule.snapshot_at(start + r).nbr.tolist()
        informed |= {u for v in informed for u in adj[v]}
        r += 1
    return r


STAR4 = [(0, 1), (0, 2), (0, 3), (0, 4)]  # K_{1,4} on 5 nodes: degree 4 at node 0, 1 elsewhere
PAW = [(0, 1), (0, 2), (0, 3), (2, 3)]  # a triangle with a pendant edge: 2|E| = 8 = 4 * 2, yet degrees 1 to 3


def write_edge_lists(path, n, edge_lists):
    """A schedule file on n nodes whose snapshot t has edge_lists[t - 1],
    written as it stands, regular or not."""
    rows = [{"n": n, "T": len(edge_lists)}]
    rows += [{"t": t, "edges": [list(e) for e in edges]} for t, edges in enumerate(edge_lists, 1)]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


@st.composite
def edge_lists(draw):
    """(n, edge list): arbitrary pairs in and around [0, n), or the edges of
    a random regular graph in random order and orientation, some repeated,
    some dropped (which leaves degrees that differ), and now and then one
    self-loop or out-of-range edge inserted anywhere."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 8))
        return n, draw(st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=24))
    n, d = draw(st.sampled_from([(3, 2), (4, 3), (5, 2), (5, 4), (6, 3), (7, 4), (8, 3)]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pairs = [e if rng.random() < 0.5 else e[::-1] for e in sorted(random_regular_graph(n, d, rng).edges)]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    del pairs[:draw(st.integers(0, 2))]
    rng.shuffle(pairs)
    bad = draw(st.sampled_from([None, (2, 2), (0, n), (-1, 1)]))
    if bad is not None:
        pairs.insert(rng.randrange(len(pairs) + 1), bad)
    return n, pairs


def valid(g, d):
    """Connected, not bipartite and d-regular: what every schedule promises."""
    report = validate_snapshot(g)
    return report.connected and not report.bipartite and g.d == d


class TestValidation:
    def test_c5_report(self):
        g = named_graph("C5")
        report = validate_snapshot(g)
        assert report.connected and g.d == 2 and not report.bipartite

    def test_c4_bipartite(self):
        assert validate_snapshot(named_graph("C4")).bipartite

    def test_disjoint_triangles_disconnected(self):
        g = GraphSnapshot(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        report = validate_snapshot(g)
        assert not report.connected
        assert g.d == 2

    def test_petersen(self):
        g = named_graph("petersen")
        assert valid(g, 3)
        assert bfs_diameter(g) == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            GraphSnapshot(3, [(0, 0)])

    @pytest.mark.parametrize("edges, text", [
        ([(5, 5)], "self-loop at node 5"),  # a self-loop outside the range is a self-loop
        ([(0, 1), (1, 7), (2, 2)], "edge (1,7) outside [0,3)"),
        ([(0, 1), (2, 2), (1, 7)], "self-loop at node 2"),
        ([(4, -1), (0, 1)], "edge (4,-1) outside [0,3)"),
        ([(0, 1), (-1, 2)], "edge (-1,2) outside [0,3)"),
    ])
    def test_first_bad_edge_in_input_order_raises(self, edges, text):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            GraphSnapshot(3, edges)

    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_regular_or_value_error(self, case):
        # Any edge list either builds a d-regular snapshot with d >= 1, whose
        # edges are its pairs in either order, repeated or not, and whose
        # neighbor table rows are its sorted adjacency rows, or raises
        # ValueError.  The first self-loop or out-of-range edge in input
        # order is the one named.
        n, pairs = case
        bad = next(((u, v) for u, v in pairs if u == v or not (0 <= u < n and 0 <= v < n)), None)
        edges = {(min(e), max(e)) for e in pairs}
        adj = [sorted({v for e in edges for v in e if u in e and v != u}) for u in range(n)]
        degrees = set(map(len, adj))
        if bad is not None:
            u, v = bad
            text = f"self-loop at node {u}" if u == v else f"edge ({u},{v}) outside [0,{n})"
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                GraphSnapshot(n, pairs)
        elif len(degrees) != 1 or 0 in degrees:
            with pytest.raises(ValueError, match="make no d-regular graph|degrees .* differ"):
                GraphSnapshot(n, pairs)
        else:
            g = GraphSnapshot(n, pairs)
            assert g.d == degrees.pop() >= 1 and g.edges == edges
            assert g.nbr.shape == (n, g.d) and g.nbr.dtype == np.int64
            assert g.nbr.tolist() == adj


class TestNeighborTable:
    def test_built_once_and_shared_with_round_clones(self):
        # Every round of a periodic schedule returns its period's snapshot
        # itself, so the table is built once for all of them.
        g = named_graph("petersen")
        sched = PeriodicSchedule([g, prism5()])
        nbr = sched.snapshot_at(9).nbr
        assert sched.snapshot_at(9) is g and g.nbr is nbr and sched.snapshot_at(3).nbr is nbr
        assert nbr.tolist()[:5] == [[1, 4, 5], [0, 2, 6], [1, 3, 7], [2, 4, 8], [0, 3, 9]]

    def test_a_snapshot_stores_only_its_table(self):
        g = named_graph("K4")
        assert GraphSnapshot.__slots__ == ("n", "d", "nbr") and not hasattr(g, "__dict__")
        assert (g.n, g.d, g.nbr.tolist()) == (4, 3, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
        assert g.edges == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)} and isinstance(g.edges, frozenset)

    @pytest.mark.parametrize("build", [
        lambda tmp: GraphSnapshot(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        lambda tmp: named_graph("petersen"),
        lambda tmp: random_regular_graph(16, 3, random.Random(0)),
        lambda tmp: PermutedSchedule(named_graph("petersen"), seed=1).snapshot_at(2),
        lambda tmp: read_schedule_file(tmp)[0],
    ], ids=["GraphSnapshot", "named_graph", "random_regular_graph", "PermutedSchedule", "read_schedule_file"])
    def test_table_is_read_only(self, build, tmp_path):
        # A write would corrupt the cached snapshot, every later gather on it
        # and its hash; each construction path hands out a read-only table.
        path = tmp_path / "k4.jsonl"
        write_schedule_file(parse_schedule_spec("static:K4"), 1, path)
        g = build(path)
        before = hash(g)
        assert not g.nbr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            g.nbr[0, 0] = g.nbr[0, 1]
        with pytest.raises(ValueError, match="read-only"):
            g.nbr.sort(axis=0)
        assert hash(g) == before


class TestSnapshotCore:
    # random_regular_graph and PermutedSchedule write their tables unchecked;
    # each must be what the checking constructor makes of its edges, given
    # in any order and orientation.
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(SUITE_SHAPES), st.integers(0, 2**48 - 1), st.integers(1, 40), st.randoms(use_true_random=False))
    def test_builders_match_the_checked_constructor(self, shape, seed, t, shuffler):
        n, d = shape
        g = random_regular_graph(n, d, random.Random(seed))
        for built in (g, PermutedSchedule(g, seed).snapshot_at(t), RandomRegularSchedule(n, d, seed).snapshot_at(t)):
            pairs = [e if shuffler.random() < 0.5 else e[::-1] for e in built.edges]
            shuffler.shuffle(pairs)
            ref = GraphSnapshot(n, pairs)
            assert (built.n, built.d, built.nbr.tobytes()) == (ref.n, ref.d, ref.nbr.tobytes())
            assert built.edges == ref.edges and hash(built) == hash(ref) and built == ref
            assert all(u < v for u, v in built.edges) and len(built.edges) == n * d // 2

    def test_equality_and_hash_follow_the_table(self):
        petersen, prism = named_graph("petersen"), prism5()
        assert petersen != prism and petersen == named_graph("petersen") and petersen != "petersen"
        assert len({petersen, named_graph("petersen"), prism}) == 2

    def test_a_large_build_keeps_no_stubs(self):
        # Past STUB_CACHE_PORTS a build's stubs go with it: what stays is the
        # table, where a cached stub tuple kept 16 bytes a port (1 MB here).
        n, d = 2**14, 4
        assert n * d > graphs.STUB_CACHE_PORTS
        graphs._stubs.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = random_regular_graph(n, d, random.Random(1))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= g.nbr.nbytes + (64 << 10)
        assert graphs._stubs.cache_info().currsize == 0


def port_pairs(g):
    return {(u, v) for u, row in enumerate(g.nbr.tolist()) for v in row}


def edge_pairs(g):
    return set(g.edges) | {(v, u) for u, v in g.edges}


def assert_ports_match_edges(g):
    assert g.nbr.shape == (g.n, g.d) and g.nbr.dtype == np.int64
    assert (np.diff(g.nbr, axis=1) > 0).all()  # each row sorted, no neighbor twice
    assert port_pairs(g) == edge_pairs(g)


class TestPorts:
    @pytest.mark.parametrize("name", ["C5", "K5", "petersen"])
    def test_matches_edges(self, name):
        assert_ports_match_edges(named_graph(name))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 6), st.integers(8, 24), st.integers(0, 2**32 - 1))
    def test_matches_edges_of_random_regular(self, d, n, seed):
        g = random_regular_graph(n + n * d % 2, d, random.Random(seed))
        assert_ports_match_edges(g)

    @pytest.mark.parametrize("g", [named_graph("C5"), named_graph("petersen")], ids=["C5", "petersen"])
    def test_has_edge_false_off_range(self, g):
        # An id off [0, n) is on no edge, and the table holds each edge both ways.
        for bad in (-1, g.n, 10**9, -(10**9)):
            assert not any(bad in e for e in g.edges)
        assert port_pairs(g) == edge_pairs(g)


class TestSchedules:
    def test_static_constant(self, c5):
        assert c5.snapshot_at(7).edges == c5.snapshot_at(1).edges
        assert c5.snapshot_at(7) == c5.snapshot_at(3)

    def test_period(self, c5):
        assert c5.period == 1 and parse_schedule_spec("srr:n=8,d=3", seed=0).period == 1
        assert PeriodicSchedule([named_graph("petersen"), prism5(), named_graph("petersen")]).period == 3
        assert parse_schedule_spec("rr:n=8,d=3", seed=0).period is None
        assert parse_schedule_spec("perm:base=C9", seed=0).period is None

    def test_periodic_indexing(self):
        petersen, prism = named_graph("petersen"), prism5()
        sched = PeriodicSchedule([petersen, prism])
        assert sched.snapshot_at(3).edges == petersen.edges  # period 2: t=3 -> first entry
        assert sched.snapshot_at(2).edges == prism.edges

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
        (2, 1, "no connected non-bipartite 1-regular graph on n=2 nodes"),
        (8, 1, "no connected non-bipartite 1-regular graph on n=8 nodes"),
        (16, 2, "no connected non-bipartite 2-regular graph on n=16 nodes"),
    ])
    def test_rr_shape_rejected_when_built(self, n, d, text):
        with pytest.raises(ScheduleError, match=re.escape(text)):
            RandomRegularSchedule(n, d, seed=0)
        with pytest.raises(ScheduleError, match=re.escape(text)):
            parse_schedule_spec(f"rr:n={n},d={d}")
        with pytest.raises(ScheduleError, match=re.escape(text)):
            random_regular_graph(n, d, random.Random(1))

    @pytest.mark.parametrize("n", [3, 9, 17])
    def test_two_regular_on_odd_n_builds_an_odd_cycle(self, n):
        g = RandomRegularSchedule(n, 2, seed=4).snapshot_at(1)
        assert valid(g, 2) and len(g.edges) == n

    @settings(max_examples=200, deadline=None)
    @given(
        length=st.one_of(st.integers(0, 400), st.sampled_from([2**k + 1 for k in range(12)])),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_shuffle_draws_what_random_shuffle_draws(self, length, seed):
        # Lengths 2^k + 1 make random.shuffle redraw most often; 2049 is past
        # the helper's table of bit widths.
        expected, rng_expected = list(range(length)), random.Random(seed)
        rng_expected.shuffle(expected)
        got, rng = list(range(length)), random.Random(seed)
        _shuffle(got, rng)
        assert got == expected
        assert rng.getstate() == rng_expected.getstate()

    # Walks are uniform at stationarity only on snapshots of one degree d >= 1,
    # so any other schedule is rejected when it is built, before any round: a
    # snapshot that is not regular when its file is read, snapshots of two
    # degrees when they make one schedule.
    @pytest.mark.parametrize("spec, n, edges, text", [
        ("static:{}", 5, [STAR4], "ValueError: 4 edges on 5 nodes make no d-regular graph with d >= 1"),
        ("perm:base={}", 5, [STAR4], "ValueError: 4 edges on 5 nodes make no d-regular graph with d >= 1"),
        ("periodic:{}", 5, [sorted(named_graph("C5").edges), sorted(named_graph("K5").edges)],
         "non-regular schedule {spec!r}: its snapshots' (n, d) are [(5, 2), (5, 4)], not one pair"),
        ("static:{}", 4, [[]], "ValueError: 0 edges on 4 nodes make no d-regular graph with d >= 1"),
        ("static:{}", 4, [PAW], "ValueError: snapshot degrees [1, 2, 3] differ"),
    ], ids=["static-star4", "perm-star4", "periodic-C5-K5", "static-edgeless", "static-paw"])
    def test_non_regular_rejected_when_built(self, tmp_path, spec, n, edges, text):
        path = tmp_path / "g.jsonl"
        write_edge_lists(path, n, edges)
        spec = spec.format(path)
        with pytest.raises(ScheduleError, match=re.escape(text.format(spec=spec))):
            parse_schedule_spec(spec)

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
        assert sorted(as_dict(trace.informed)) == list(range(10)) and trace.complete
        assert trace.informed[3] == 3 and min(np.delete(trace.informed, 3)) == 4
        pair = sched.flood_trace([3, 1], 4)  # a set trace is read from the rows on every call
        news = {v: t for v, t in as_dict(pair.informed).items() if v not in (1, 3)}
        assert sorted(news) == [0, 2] + list(range(4, 10))
        assert min(news.values()) == 4 and pair.complete

    def test_stall_is_kept_in_the_trace(self, triangles):
        trace = triangles.flood_trace([0], 2)
        assert trace.sent == (2,) and as_dict(trace.informed) == {0: 1, 1: 2, 2: 2}
        assert trace.informed.tolist() == [1, 2, 2, -1, -1, -1]
        assert not trace.complete  # round 2 + len(sent) informs nobody
        assert str(flood_failure(triangles, 3)) == "flood stalled at round 3: snapshot disconnected"

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
        graphs = read_schedule_file(path)
        assert len(graphs) == 5 and all((g.n, g.d) == (8, 3) for g in graphs)
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
            rng = random.Random(seed)
            sched = PeriodicSchedule([random_regular_graph(n, d, rng) for _ in range(rng.randint(1, 3))])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sched.jsonl"
            write_schedule_file(sched, rounds, path)
            graphs = read_schedule_file(path)
            ts = [json.loads(line)["t"] for line in path.read_text().splitlines()[1:]]
        assert all((g.n, g.d) == (sched.n, sched.d) for g in graphs)
        assert ts == list(range(1, rounds + 1))
        assert [g.edges for g in graphs] == [sched.snapshot_at(t).edges for t in range(1, rounds + 1)]

    @pytest.mark.parametrize("spec", ["static:{}", "perm:base={}", "periodic:{}"])
    def test_misdeclared_degree_names_file_and_both_degrees(self, tmp_path, spec):
        path = tmp_path / "k4.jsonl"
        path.write_text(json.dumps({"n": 4, "d": 5, "T": 1}) + "\n"
                        + json.dumps({"t": 1, "edges": sorted(map(list, named_graph("K4").edges))}) + "\n")
        message = f"schedule file {path} declares d=5 but its snapshots have degree [3]"
        with pytest.raises(ScheduleError, match=re.escape(message)):
            read_schedule_file(path)
        with pytest.raises(ScheduleError, match=re.escape(message)):
            parse_schedule_spec(spec.format(path), seed=0)

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
