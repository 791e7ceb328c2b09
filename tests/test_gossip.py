import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import log_totals, make_engine, reference_flood, reference_trace
from dynwalk.engine import CongestEngine, ProtocolError, SimConfig, default_bandwidth
from dynwalk import gossip
from dynwalk.gossip import (
    GossipOutcome,
    GossipParams,
    k_gossip_race,
    k_gossip_rw,
    k_gossip_trivial,
    resolve_gossip_params,
)
from dynwalk.graphs import PermutedSchedule, RandomRegularSchedule, dynamic_diameter, parse_schedule_spec
from dynwalk.walks import WalkParams, many_random_walks


def temporal_flood_rounds(schedule, holders, start):
    informed = set(holders)
    r = 0
    while len(informed) < schedule.n:
        g = schedule.snapshot_at(start + r)
        informed |= {u for v in informed for u in g.nbr[v].tolist()}
        r += 1
    return r


def twin_walks(schedule, seed, phi, assignment, f, tau):
    """k_gossip_rw's walk phase rerun on a twin engine of the same seed: f
    walks per token in token order, each token's spread round-robin over its
    sorted initial holders.  Returns (twin engine, walk destinations)."""
    twin = make_engine(schedule, seed=seed, phi=phi)
    holders = [sorted(set(assignment[token])) for token in sorted(assignment)]
    sources = [hs[c % len(hs)] for hs in holders for c in range(f)]
    batch = many_random_walks(twin, sources, WalkParams.for_many(tau, phi, len(sources)), record_path=False)
    return twin, batch.destinations.tolist()


class TestParams:
    def test_formula_instance(self):
        # n=64, k=8, tau=16, phi=4: f = ceil(16 * (8/64)^(1/3)) = 8.
        assert resolve_gossip_params(64, 8, 16, 4).f == 8

    def test_broadcast_rounds_formula(self):
        p = resolve_gossip_params(64, 8, 16, 4)
        assert p.broadcast_rounds == math.ceil(2 * 64 * math.log(64) / 8)

    def test_caps(self):
        assert resolve_gossip_params(16, 1, 10_000, 16).f == 1
        assert resolve_gossip_params(16, 32, 1, 1).f == 16  # k > n*tau*phi: the formula gives 21

    def test_invalid(self):
        with pytest.raises(ValueError):
            GossipParams(k=0, f=1, broadcast_rounds=1)

    @pytest.mark.parametrize("tau, phi", [(0, 4), (16, 0), (-1, 4), (16, -2)])
    def test_tau_and_phi_below_one_rejected(self, tau, phi):
        # tau or phi 0 divided by zero, and a negative one made f complex.
        with pytest.raises(ValueError, match="tau >= 1 and phi >= 1"):
            resolve_gossip_params(64, 8, tau, phi)


class TestTrivial:
    def test_k1_complete_graph(self, k4):
        out = k_gossip_trivial(make_engine(k4, seed=0, phi=1), {1: [0]})
        assert out.rounds == 1 and out.complete

    def test_k3_cycle(self, c5):
        out = k_gossip_trivial(make_engine(c5, seed=0, phi=2), {1: [0], 2: [2], 3: [4]})
        assert out.rounds <= 6 and out.complete  # each flood completes in phi=2

    def test_rounds_match_temporal_oracle(self):
        base = RandomRegularSchedule(8, 3, seed=5).snapshot_at(1)
        sched = PermutedSchedule(base, seed=31)
        assignment = {1: [0], 2: [3]}
        out = k_gossip_trivial(make_engine(sched, seed=0, phi=4), assignment)
        start = 1
        expect = 0
        for token in (1, 2):
            r = temporal_flood_rounds(sched, assignment[token], start)
            expect += r
            start += r
        assert out.rounds == expect

    def test_fits_default_bandwidth(self, rr16):
        eng = CongestEngine(rr16, SimConfig(seed=0, phi=4))  # strict, default B
        out = k_gossip_trivial(eng, {t: [t] for t in range(1, 5)})
        assert out.complete
        assert eng.log.max_edge_bits <= eng.B

    def test_seeds_no_generator(self, rr16):
        # The engine's stream is seeded on its first draw, and floods draw nothing.
        eng, walker = make_engine(rr16, seed=0, phi=4), make_engine(rr16, seed=0, phi=4)
        k_gossip_trivial(eng, {t: [t] for t in range(1, 5)})
        k_gossip_rw(walker, {t: [t] for t in range(1, 5)}, resolve_gossip_params(16, 4, 6, 4), 6, 4)
        assert eng._rng is None and walker._rng is not None


class TestWalkBased:
    def test_degenerate_all_seeded(self, rr16):
        # Every node already holds the token: Phase 2 trivially completes.
        params = GossipParams(k=1, f=16, broadcast_rounds=math.ceil(2 * 16 * math.log(16) / 16))
        eng = make_engine(rr16, seed=2, phi=4)
        out = k_gossip_rw(eng, {1: list(range(16))}, params, tau=6, phi=4)
        assert out.complete
        assert out.rounds == out.phase1_rounds + params.broadcast_rounds

    def test_coverage_includes_initial_holders(self, rr16):
        params = resolve_gossip_params(16, 2, 6, 4)
        eng = make_engine(rr16, seed=3, phi=4)
        out = k_gossip_rw(eng, {1: [5], 2: [9]}, params, tau=6, phi=4)
        assert out.coverage.shape == (16, 2)
        assert out.coverage[5, 0] and out.coverage[9, 1]

    def test_phi_must_match_engine(self, rr16):
        # The stitch floods run for the engine's phi, never for the argument.
        eng = make_engine(rr16, seed=3, phi=4)
        with pytest.raises(ProtocolError, match="phi=3"):
            k_gossip_rw(eng, {1: [5]}, resolve_gossip_params(16, 1, 6, 3), tau=6, phi=3)
        assert eng.round == 0

    def test_full_coverage_expander(self):
        sched = parse_schedule_spec("srr:n=64,d=3", seed=7)
        phi = dynamic_diameter(sched, 1)
        import dynwalk.oracle as orc

        tau = orc.dynamic_mixing_bound(sched, 1)
        params = resolve_gossip_params(64, 4, tau, phi)
        complete = 0
        for seed in range(20):
            eng = make_engine(sched, seed=seed, phi=phi)
            out = k_gossip_rw(eng, {t: [t - 1] for t in range(1, 5)}, params, tau, phi)
            complete += out.complete
        assert complete >= 19

    @pytest.mark.parametrize("spec", ["static:petersen", "perm:base=C9", "rr:n=16,d=3"])
    def test_holders_are_each_tokens_initial_holders_and_its_walks(self, spec):
        # Token 9's third initial holder starts no walk (f = 2); a mixed-up
        # reshape of the destinations would hand one token another's walks.
        # One broadcast round leaves coverage partial, so its columns show
        # which token and node each entry belongs to.
        sched = parse_schedule_spec(spec, seed=3)
        assignment = {9: [8, 0, 4], 2: [7], 5: [3, 1, 3]}
        params = GossipParams(k=3, f=2, broadcast_rounds=1)
        tau, phi, f, budget = 6, sched.n - 1, params.f, params.broadcast_rounds
        partial = 0
        for seed in range(5):
            out = k_gossip_rw(make_engine(sched, seed=seed, phi=phi), assignment, params, tau, phi)
            partial += not out.complete
            twin, dests = twin_walks(sched, seed, phi, assignment, f, tau)
            assert out.phase1_rounds == twin.round and len(out.holders) == 3
            for i, token in enumerate(sorted(assignment)):
                expect = sorted({*assignment[token], *dests[i * f:(i + 1) * f]})
                assert out.holders[i].dtype == np.int64 and out.holders[i].tolist() == expect
                reached, _ = reference_flood(sched, expect, twin.round + i * budget + 1, budget)
                assert out.coverage[:, i].tolist() == [v in reached for v in range(sched.n)]
        assert partial == 5

    def test_phase2_fits_default_bandwidth(self):
        sched = parse_schedule_spec("srr:n=64,d=3", seed=7)
        phi = dynamic_diameter(sched, 1)
        eng = CongestEngine(sched, SimConfig(seed=1, phi=phi))  # strict, default B
        params = resolve_gossip_params(64, 4, 10, phi)
        out = k_gossip_rw(eng, {t: [t - 1] for t in range(1, 5)}, params, tau=10, phi=phi)
        assert eng.log.max_edge_bits <= eng.B


class TestRace:
    def test_never_exceeds_trivial(self, rr16):
        assignment, params = {t: [t] for t in range(1, 5)}, resolve_gossip_params(16, 4, 6, 4)
        for seed in range(10):
            report = k_gossip_race(make_engine(rr16, seed=seed, phi=4), assignment, params, 6, 4)
            assert report.race_rounds <= report.rounds_trivial
            assert report.race_rounds == min(report.rounds_rw, report.rounds_trivial)
            rw = k_gossip_rw(make_engine(rr16, seed=seed, phi=4), assignment, params, 6, 4)
            assert (report.rounds_rw, report.phase1_rounds) == (rw.rounds, rw.phase1_rounds)

    def test_tie_breaks_to_trivial(self, rr16, monkeypatch):
        # Each route reports a fixed round count; the trivial one takes 10.
        def outcome(rounds):
            return GossipOutcome(rounds=rounds, coverage=np.ones((16, 1), dtype=bool), complete=True, phase1_rounds=0)

        monkeypatch.setattr(gossip, "k_gossip_trivial", lambda *args: outcome(10))
        for rounds_rw, winner in [(10, "trivial"), (9, "rw"), (11, "trivial")]:
            monkeypatch.setattr(gossip, "k_gossip_rw", lambda *args: outcome(rounds_rw))
            report = k_gossip_race(make_engine(rr16, seed=0, phi=4), {1: [0]}, resolve_gossip_params(16, 1, 6, 4), 6, 4)
            assert (report.winner, report.race_rounds) == (winner, min(rounds_rw, 10))

    def test_phi_must_match_engine(self, rr16):
        # The race inherits k_gossip_rw's check: a mismatched phi raises.
        eng = make_engine(rr16, seed=5, phi=4)
        with pytest.raises(ProtocolError, match="phi=3"):
            k_gossip_race(eng, {1: [0]}, resolve_gossip_params(16, 1, 6, 3), 6, 3)

    def test_race_engines_independent(self, rr16):
        eng = make_engine(rr16, seed=5, phi=4)
        before = eng.round
        k_gossip_race(eng, {1: [0]}, resolve_gossip_params(16, 1, 6, 4), 6, 4)
        assert eng.round == before  # template engine untouched


# phi = n - 1 bounds every flood on a schedule whose snapshots are all connected.
ACCOUNTING_SPECS = ["static:petersen", "static:C9", "perm:base=petersen", "perm:base=C9", "rr:n=8,d=3", "rr:n=10,d=4"]


class TestAccounting:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(ACCOUNTING_SPECS),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.dictionaries(st.integers(1, 50), st.lists(st.integers(0, 7), min_size=1, max_size=3), min_size=1, max_size=2),
        st.integers(1, 2),
        st.integers(1, 20),
        st.integers(0, 10),
    )
    def test_rounds_and_messages_are_the_walks_and_the_floods(self, spec, seed, stitched, assignment, f, budget, extra):
        # The engine's rounds are the twin walk run's plus k broadcast budgets;
        # its messages are the twin run's plus each token's reference flood:
        # the BFS rounds' messages, then n*d a round once everyone is informed.
        sched = parse_schedule_spec(spec, seed=seed % 1000)
        n, d, k, phi = sched.n, sched.d, len(assignment), sched.n - 1
        # tau = 8*k*f*phi exceeds 2*lambda = 2*ceil(sqrt(8)*k*f*phi); tau <= 12 is within it.
        tau = 8 * k * f * phi + extra if stitched else 1 + extra
        lam = WalkParams.for_many(tau, phi, k * f).lambda_walk
        assert (tau > 2 * lam) == stitched
        params = GossipParams(k=k, f=f, broadcast_rounds=budget)
        eng = make_engine(sched, seed=seed, phi=phi)
        out = k_gossip_rw(eng, assignment, params, tau, phi)
        twin, dests = twin_walks(sched, seed, phi, assignment, f, tau)
        assert eng.round == eng.log.rounds == out.rounds == twin.round + k * budget
        msgs = twin.log.total_msgs
        for i, token in enumerate(sorted(assignment)):
            holders = sorted({*assignment[token], *dests[i * f:(i + 1) * f]})
            sent, _, stall = reference_trace(sched, holders, twin.round + i * budget + 1)
            assert stall is None
            msgs += sum(sent[:budget]) + max(0, budget - len(sent)) * n * d
        assert eng.log.total_msgs == msgs
        # A rerun reads every set flood from the rows the first run memoized.
        again = make_engine(sched, seed=seed, phi=phi)
        rerun = k_gossip_rw(again, assignment, params, tau, phi)
        assert log_totals(again.log) == log_totals(eng.log)
        assert rerun.coverage.tolist() == out.coverage.tolist()
