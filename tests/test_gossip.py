import math

import numpy as np
import pytest

from conftest import make_engine
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


def temporal_flood_rounds(schedule, holders, start):
    informed = set(holders)
    r = 0
    while len(informed) < schedule.n:
        g = schedule.snapshot_at(start + r)
        informed |= {u for v in informed for u in g.nbr[v].tolist()}
        r += 1
    return r


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

    def test_phase2_fits_default_bandwidth(self):
        sched = parse_schedule_spec("srr:n=64,d=3", seed=7)
        phi = dynamic_diameter(sched, 1)
        eng = CongestEngine(sched, SimConfig(seed=1, phi=phi))  # strict, default B
        params = resolve_gossip_params(64, 4, 10, phi)
        out = k_gossip_rw(eng, {t: [t - 1] for t in range(1, 5)}, params, tau=10, phi=phi)
        assert eng.log.max_edge_bits <= eng.B


class TestRace:
    def test_never_exceeds_trivial(self, rr16):
        for seed in range(10):
            eng = make_engine(rr16, seed=seed, phi=4)
            report = k_gossip_race(eng, {t: [t] for t in range(1, 5)}, resolve_gossip_params(16, 4, 6, 4), 6, 4)
            assert report.race_rounds <= report.rounds_trivial
            assert report.race_rounds == min(report.rounds_rw, report.rounds_trivial)

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
