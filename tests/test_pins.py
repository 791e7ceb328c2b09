"""Pinned outputs of the benchmark's three engine workloads' instances.

For a few engine seeds each, these record what the walks, the mixing-time
estimate and the gossip race return and what their runs cost (RoundLog
totals), so a change to the engine or to the walks' round loop that moves
any destination, round count, message count or maximum edge load fails here.

  stitch-rr16    single_random_walk on srr:n=16,d=3 (seed 99), tau=24, lambda=6, phi=4
  mixest-srr48   estimate_mixing_time on srr:n=48,d=8 (seed 1056), phi=3, plus the
                 endpoint histogram of K=3975 length-3 walks
  gossip-perm64  k_gossip_race with k=8 on the permuted srr:n=64,d=3 schedule,
                 tau=12, phi=5, plus k_gossip_rw's log and its 72 walks' endpoints
"""
import numpy as np
import pytest
from dynwalk import gossip, graphs, mixing, walks
from dynwalk.engine import CongestEngine, SimConfig

AMPLE = 1 << 24
SEEDS = range(4)


def engine(schedule, seed, phi):
    return CongestEngine(schedule, SimConfig(seed=seed, bandwidth_bits=AMPLE, phi=phi))


def stitch_rr16(seed):
    sched = graphs.parse_schedule_spec("srr:n=16,d=3", seed=99)
    eng = engine(sched, seed, 4)
    r = walks.single_random_walk(eng, 0, walks.WalkParams(tau=24, lambda_walk=6))
    return (r.destination, r.rounds_used, r.segment_lengths, r.connectors, r.fallbacks, r.path, eng.log.summary())


def mixest_srr48(seed):
    sched = graphs.parse_schedule_spec("srr:n=48,d=8", seed=1056)
    eng = engine(sched, seed, 3)
    est = mixing.estimate_mixing_time(eng, 0, 3)
    probes = [(length, label, round(stat, 12)) for length, label, stat in est.probes]
    eng = engine(sched, seed, 3)
    ends = mixing.sample_endpoints(eng, 0, 3, 3975)
    return (est.tau_tilde, est.bracket, probes, est.total_rounds, np.bincount(ends, minlength=48).tolist(), eng.log.summary())


def gossip_perm64(seed):
    base = graphs.parse_schedule_spec("srr:n=64,d=3", seed=7)
    sched = graphs.PermutedSchedule(base.snapshot_at(1), seed=1234)
    params = gossip.resolve_gossip_params(64, 8, 12, 5)
    assignment = {t: [(t - 1) % 64] for t in range(1, 9)}
    race = gossip.k_gossip_race(engine(sched, seed, 5), assignment, params, 12, 5)
    eng = engine(sched, seed, 5)
    rw = gossip.k_gossip_rw(eng, assignment, params, 12, 5)
    eng2 = engine(sched, seed, 5)
    sources = [t - 1 for t in range(1, 9) for _ in range(params.f)]
    dests = walks.many_random_walks(eng2, sources, 12, record_path=False).destinations.tolist()
    return ((race.rounds_rw, race.rounds_trivial, race.race_rounds, race.winner, race.coverage_rw_complete),
            rw.coverage.sum(axis=0).tolist(), rw.phase1_rounds, eng.log.summary(), dests, eng2.log.summary())


RUNS = {"stitch-rr16": stitch_rr16, "mixest-srr48": mixest_srr48, "gossip-perm64": gossip_perm64}

PINS = {'gossip-perm64': {0: ((492, 35, 35, 'trivial', True), [64, 64, 64, 64, 64, 64, 64, 64], 12, {'congestion_events': 0, 'max_edge_bits': 102, 'rounds': 492, 'total_msgs': 90795},
                       [23, 7, 0, 24, 6, 61, 12, 36, 17, 22, 57, 38, 15, 44, 29, 32, 2, 16, 33, 29, 32, 16, 0, 49, 17, 21, 18, 33, 49, 26, 4, 60, 30, 51, 44, 27, 27, 10, 40, 36, 59, 12, 23, 36, 10,
                        19, 16, 57, 60, 2, 31, 30, 5, 18, 54, 10, 11, 51, 41, 25, 5, 55, 52, 33, 19, 56, 14, 42, 30, 26, 31, 33],
                       {'congestion_events': 0, 'max_edge_bits': 102, 'rounds': 12, 'total_msgs': 864}),
                   1: ((492, 35, 35, 'trivial', True), [64, 64, 64, 64, 64, 64, 64, 64], 12, {'congestion_events': 0, 'max_edge_bits': 119, 'rounds': 492, 'total_msgs': 90780},
                       [45, 4, 13, 46, 56, 9, 59, 50, 63, 33, 32, 1, 41, 52, 28, 52, 0, 39, 6, 21, 50, 45, 34, 59, 8, 19, 50, 22, 10, 23, 47, 48, 22, 43, 57, 38, 28, 10, 18, 25, 54, 1, 52, 42, 62, 14,
                        58, 40, 53, 60, 12, 10, 62, 5, 36, 18, 46, 13, 3, 42, 39, 48, 49, 42, 59, 40, 16, 59, 9, 12, 63, 36],
                       {'congestion_events': 0, 'max_edge_bits': 119, 'rounds': 12, 'total_msgs': 864}),
                   2: ((492, 35, 35, 'trivial', True), [64, 64, 64, 64, 64, 64, 64, 64], 12, {'congestion_events': 0, 'max_edge_bits': 136, 'rounds': 492, 'total_msgs': 90807},
                       [31, 11, 29, 44, 33, 51, 17, 17, 25, 11, 14, 17, 62, 2, 49, 7, 7, 2, 43, 4, 27, 19, 17, 23, 62, 30, 11, 30, 43, 37, 19, 46, 61, 32, 52, 12, 15, 12, 56, 36, 21, 7, 44, 58, 29,
                        59, 46, 31, 12, 55, 34, 31, 39, 31, 53, 60, 16, 50, 56, 4, 37, 58, 7, 2, 21, 8, 39, 15, 8, 63, 8, 31],
                       {'congestion_events': 0, 'max_edge_bits': 136, 'rounds': 12, 'total_msgs': 864}),
                   3: ((492, 35, 35, 'trivial', True), [64, 64, 64, 64, 64, 64, 64, 64], 12, {'congestion_events': 0, 'max_edge_bits': 102, 'rounds': 492, 'total_msgs': 90795},
                       [1, 4, 17, 32, 43, 15, 46, 53, 7, 24, 5, 38, 39, 35, 39, 35, 19, 7, 24, 35, 63, 30, 37, 39, 35, 2, 9, 11, 19, 17, 40, 9, 58, 54, 53, 28, 57, 7, 6, 3, 37, 25, 8, 2, 57, 41, 25,
                        21, 15, 32, 32, 56, 52, 24, 8, 52, 40, 45, 28, 14, 39, 17, 35, 61, 61, 16, 9, 55, 4, 48, 33, 12],
                       {'congestion_events': 0, 'max_edge_bits': 102, 'rounds': 12, 'total_msgs': 864})},
 'mixest-srr48': {0: (6, (5, 6),
                      [(1, 'FAIL', 0.104016429116), (2, 'FAIL', 0.023415542219), (4, 'FAIL', 0.002005812941), (8, 'PASS', 1.121282e-05), (6, 'PASS', 4.2738492e-05), (5, 'FAIL', 0.000386355651)], 26,
                      [43, 93, 84, 82, 162, 49, 197, 37, 89, 75, 81, 50, 85, 175, 71, 69, 51, 72, 176, 113, 91, 93, 168, 54, 65, 57, 159, 134, 99, 73, 80, 37, 36, 76, 55, 185, 54, 37, 54, 41, 74, 18,
                       78, 50, 43, 56, 106, 48],
                      {'congestion_events': 0, 'max_edge_bits': 10280, 'rounds': 3, 'total_msgs': 11925}),
                  1: (6, (5, 6),
                      [(1, 'FAIL', 0.104218117449), (2, 'FAIL', 0.022663990466), (4, 'FAIL', 0.001322123678), (8, 'PASS', -4.2469448e-05), (6, 'PASS', 8.489933e-05), (5, 'FAIL', 0.000588930248)], 26,
                      [39, 83, 101, 101, 161, 38, 191, 39, 81, 63, 81, 46, 80, 165, 71, 52, 41, 85, 149, 93, 89, 81, 162, 28, 73, 75, 180, 172, 89, 79, 75, 37, 44, 72, 54, 197, 72, 43, 70, 48, 63, 23,
                       116, 57, 37, 68, 75, 36],
                      {'congestion_events': 0, 'max_edge_bits': 10860, 'rounds': 3, 'total_msgs': 11925}),
                  2: (6, (5, 6),
                      [(1, 'FAIL', 0.104032255257), (2, 'FAIL', 0.020822967211), (4, 'FAIL', 0.001525204711), (8, 'PASS', 5.1347912e-05), (6, 'PASS', 0.000116171783), (5, 'FAIL', 0.000551453948)], 26,
                      [46, 75, 84, 74, 152, 53, 203, 52, 90, 73, 79, 49, 83, 153, 79, 62, 38, 65, 168, 101, 84, 66, 158, 38, 47, 69, 193, 151, 93, 54, 95, 45, 29, 79, 74, 196, 82, 35, 62, 54, 63, 33,
                       106, 51, 38, 73, 96, 32],
                      {'congestion_events': 0, 'max_edge_bits': 10480, 'rounds': 3, 'total_msgs': 11925}),
                  3: (6, (5, 6),
                      [(1, 'FAIL', 0.104044156514), (2, 'FAIL', 0.023045463753), (4, 'FAIL', 0.001683339506), (8, 'PASS', 6.3882216e-05), (6, 'PASS', 0.000106296272), (5, 'FAIL', 0.000568039743)], 26,
                      [39, 72, 82, 75, 173, 57, 184, 60, 84, 79, 87, 46, 100, 170, 75, 63, 40, 68, 164, 97, 102, 96, 144, 36, 68, 77, 178, 145, 82, 53, 86, 49, 45, 72, 72, 173, 74, 42, 68, 46, 67, 22,
                       81, 49, 44, 59, 90, 40],
                      {'congestion_events': 0, 'max_edge_bits': 10460, 'rounds': 3, 'total_msgs': 11925})},
 'stitch-rr16': {0: (12, 36, [10, 6], [0, 11], 0, [0, 13, 7, 13, 0, 8, 12, 8, 12, 1, 11, 15, 11, 15, 14, 15, 14, 6, 13, 6, 13, 7, 3, 1, 12],
                     {'congestion_events': 0, 'max_edge_bits': 70, 'rounds': 36, 'total_msgs': 760}),
                 1: (15, 35, [7, 10], [0, 5], 0, [0, 8, 6, 13, 6, 13, 7, 5, 2, 9, 14, 9, 14, 6, 8, 6, 14, 9, 2, 5, 7, 3, 1, 11, 15],
                     {'congestion_events': 0, 'max_edge_bits': 56, 'rounds': 35, 'total_msgs': 747}),
                 2: (6, 38, [8, 6], [0, 6], 0, [0, 13, 6, 8, 0, 13, 7, 13, 6, 14, 6, 8, 6, 14, 15, 11, 0, 8, 12, 8, 6, 13, 6, 14, 6],
                     {'congestion_events': 0, 'max_edge_bits': 84, 'rounds': 38, 'total_msgs': 764}),
                 3: (13, 35, [10, 7], [0, 13], 0, [0, 8, 12, 1, 12, 1, 12, 1, 11, 0, 13, 6, 8, 12, 8, 6, 13, 6, 13, 7, 13, 6, 8, 0, 13],
                     {'congestion_events': 0, 'max_edge_bits': 70, 'rounds': 35, 'total_msgs': 760})}}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(RUNS))
def test_workload_outputs_pinned(workload, seed):
    assert RUNS[workload](seed) == PINS[workload][seed]
