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

Phase 1 is pinned on its own as well: the coupon lengths and holders of
`phase1_distribute` on stitch-rr16's instance and on C8's
(RandomRegularSchedule(16, 4, seed=777), lambda=2).  Phase 1 makes an
engine's first draws, so no later change to how other phases draw may move
them.
"""
import numpy as np
import pytest
from dynwalk import gossip, graphs, mixing, walks
from dynwalk.engine import CongestEngine, SimConfig

from conftest import log_totals

AMPLE = 1 << 24
SEEDS = range(4)


def engine(schedule, seed, phi):
    return CongestEngine(schedule, SimConfig(seed=seed, bandwidth_bits=AMPLE, phi=phi))


def stitch_rr16(seed):
    sched = graphs.parse_schedule_spec("srr:n=16,d=3", seed=99)
    eng = engine(sched, seed, 4)
    r = walks.single_random_walk(eng, 0, walks.WalkParams(tau=24, lambda_walk=6))
    return (r.destination, r.rounds_used, r.segment_lengths, r.connectors, r.fallbacks, r.path, log_totals(eng.log))


def mixest_srr48(seed):
    sched = graphs.parse_schedule_spec("srr:n=48,d=8", seed=1056)
    eng = engine(sched, seed, 3)
    est = mixing.estimate_mixing_time(eng, 0, 3)
    probes = [(length, label, round(stat, 12)) for length, label, stat in est.probes]
    eng = engine(sched, seed, 3)
    ends = mixing.sample_endpoints(eng, 0, 3, 3975)
    return (est.tau_tilde, est.bracket, probes, est.total_rounds, np.bincount(ends, minlength=48).tolist(), log_totals(eng.log))


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
    dests = walks.many_random_walks(eng2, sources, walks.WalkParams.for_many(12, 5, len(sources)), record_path=False).destinations.tolist()
    return ((race.rounds_rw, race.rounds_trivial, race.race_rounds, race.winner, race.coverage_rw_complete),
            rw.coverage.sum(axis=0).tolist(), rw.phase1_rounds, log_totals(eng.log), dests, log_totals(eng2.log))


RUNS = {"stitch-rr16": stitch_rr16, "mixest-srr48": mixest_srr48, "gossip-perm64": gossip_perm64}

PINS = {'gossip-perm64': {0: ((492, 35, 35, 'trivial', True), [64, 64, 64, 64, 64, 64, 64, 64], 12, {'congestion_events': 0, 'max_edge_bits': 85, 'rounds': 492, 'total_msgs': 90858},
                       [42, 23, 47, 29, 3, 20, 35, 45, 43, 29, 25, 18, 35, 15, 37, 18, 19, 46, 47, 7, 40, 17, 52, 54, 61, 24, 45, 50, 20, 17, 18, 60, 23, 0, 51, 14, 56, 50, 54, 28, 21, 53, 28, 44, 3,
                        41, 6, 34, 38, 40, 23, 39, 11, 21, 48, 45, 23, 29, 28, 4, 56, 7, 17, 29, 48, 29, 59, 16, 43, 30, 16, 33],
                       {'congestion_events': 0, 'max_edge_bits': 85, 'rounds': 12, 'total_msgs': 864}),
                   1: ((492, 35, 35, 'trivial', True), [64, 64, 64, 64, 64, 64, 64, 64], 12, {'congestion_events': 0, 'max_edge_bits': 102, 'rounds': 492, 'total_msgs': 90804},
                       [19, 30, 10, 41, 10, 22, 17, 45, 6, 2, 14, 37, 50, 44, 61, 17, 36, 5, 56, 21, 14, 37, 21, 57, 62, 29, 3, 62, 34, 52, 61, 23, 20, 9, 34, 52, 17, 0, 37, 62, 63, 36, 9, 42, 35, 9,
                        12, 60, 16, 32, 55, 44, 52, 63, 23, 26, 3, 16, 41, 49, 28, 26, 36, 34, 41, 63, 40, 13, 28, 17, 37, 3],
                       {'congestion_events': 0, 'max_edge_bits': 102, 'rounds': 12, 'total_msgs': 864}),
                   2: ((492, 35, 35, 'trivial', True), [64, 64, 64, 64, 64, 64, 64, 64], 12, {'congestion_events': 0, 'max_edge_bits': 85, 'rounds': 492, 'total_msgs': 90750},
                       [54, 46, 62, 53, 54, 23, 32, 5, 41, 33, 33, 0, 4, 52, 42, 19, 8, 0, 48, 58, 19, 28, 1, 17, 50, 43, 53, 21, 3, 16, 51, 55, 9, 13, 52, 51, 51, 57, 28, 48, 47, 40, 34, 33, 60, 17,
                        27, 39, 59, 22, 43, 25, 13, 44, 15, 13, 54, 33, 14, 31, 39, 50, 53, 55, 26, 10, 34, 51, 56, 36, 60, 52],
                       {'congestion_events': 0, 'max_edge_bits': 85, 'rounds': 12, 'total_msgs': 864}),
                   3: ((492, 35, 35, 'trivial', True), [64, 64, 64, 64, 64, 64, 64, 64], 12, {'congestion_events': 0, 'max_edge_bits': 102, 'rounds': 492, 'total_msgs': 90840},
                       [46, 3, 41, 11, 59, 40, 35, 13, 43, 37, 47, 49, 3, 43, 54, 60, 11, 54, 13, 27, 13, 23, 49, 21, 62, 26, 52, 45, 14, 58, 3, 18, 6, 60, 19, 39, 8, 6, 18, 24, 61, 46, 57, 7, 34, 44,
                        19, 8, 52, 45, 22, 13, 43, 46, 2, 41, 4, 2, 61, 62, 40, 39, 49, 10, 5, 50, 6, 43, 14, 62, 28, 5],
                       {'congestion_events': 0, 'max_edge_bits': 102, 'rounds': 12, 'total_msgs': 864})},
 'mixest-srr48': {0: (6, (5, 6),
                      [(1, 'FAIL', 0.10410252332), (2, 'FAIL', 0.021253185011), (4, 'FAIL', 0.00135364935), (8, 'PASS', 6.148456e-06), (6, 'PASS', 0.000154281129), (5, 'FAIL', 0.000562848769)], 26,
                      [49, 77, 75, 90, 177, 47, 196, 67, 90, 68, 82, 72, 70, 176, 66, 50, 37, 93, 181, 104, 72, 83, 163, 38, 68, 64, 163, 172, 84, 56, 91, 43, 25, 59, 71, 184, 76, 42, 62, 44, 60, 29,
                       98, 46, 36, 64, 78, 37],
                      {'congestion_events': 0, 'max_edge_bits': 10600, 'rounds': 3, 'total_msgs': 11925}),
                  1: (6, (5, 6),
                      [(1, 'FAIL', 0.104283067929), (2, 'FAIL', 0.022487877176), (4, 'FAIL', 0.001596485647), (8, 'PASS', -1.3855786e-05), (6, 'PASS', 7.7176173e-05), (5, 'FAIL', 0.000542844527)], 26,
                      [47, 86, 78, 75, 156, 50, 198, 62, 78, 68, 77, 55, 74, 177, 79, 65, 38, 71, 180, 83, 100, 85, 152, 38, 60, 86, 183, 157, 77, 66, 94, 58, 42, 69, 41, 183, 81, 37, 54, 42, 53, 15,
                       101, 57, 51, 69, 97, 30],
                      {'congestion_events': 0, 'max_edge_bits': 10580, 'rounds': 3, 'total_msgs': 11925}),
                  2: (6, (5, 6),
                      [(1, 'FAIL', 0.104149495304), (2, 'FAIL', 0.021621997386), (4, 'FAIL', 0.001377958301), (8, 'PASS', -5.8422197e-05), (6, 'PASS', 0.000138075162), (5, 'FAIL', 0.000565127733)],
                      26,
                      [47, 97, 79, 91, 145, 42, 199, 40, 100, 69, 91, 49, 82, 182, 73, 61, 47, 74, 178, 96, 76, 72, 159, 34, 52, 75, 202, 166, 70, 72, 79, 43, 36, 69, 54, 180, 85, 34, 70, 42, 64, 24,
                       105, 47, 34, 65, 82, 42],
                      {'congestion_events': 0, 'max_edge_bits': 10700, 'rounds': 3, 'total_msgs': 11925}),
                  3: (6, (5, 6),
                      [(1, 'FAIL', 0.104159244207), (2, 'FAIL', 0.023104083777), (4, 'FAIL', 0.001810328456), (8, 'PASS', -7.778548e-06), (6, 'PASS', 3.7547518e-05), (5, 'FAIL', 0.000422312642)], 26,
                      [45, 96, 92, 81, 145, 44, 205, 64, 80, 68, 89, 69, 77, 165, 66, 61, 32, 80, 177, 84, 89, 80, 140, 34, 50, 63, 187, 150, 95, 58, 81, 52, 44, 84, 62, 189, 73, 40, 62, 48, 68, 22,
                       78, 67, 46, 75, 88, 30],
                      {'congestion_events': 0, 'max_edge_bits': 10360, 'rounds': 3, 'total_msgs': 11925})},
 'stitch-rr16': {0: (15, 34, [7, 11], [0, 3], 0, [0, 8, 6, 14, 15, 11, 1, 3, 7, 5, 7, 3, 12, 3, 7, 13, 6, 14, 15, 4, 15, 14, 15, 14, 15],
                     {'congestion_events': 0, 'max_edge_bits': 70, 'rounds': 34, 'total_msgs': 734}),
                 1: (1, 38, [7, 7], [0, 8], 0, [0, 13, 7, 5, 7, 13, 0, 8, 12, 1, 3, 12, 3, 7, 13, 7, 3, 7, 13, 6, 13, 7, 3, 12, 1],
                     {'congestion_events': 0, 'max_edge_bits': 56, 'rounds': 38, 'total_msgs': 744}),
                 2: (3, 37, [6, 9], [0, 12], 0, [0, 13, 6, 8, 12, 1, 12, 3, 7, 13, 0, 13, 7, 5, 2, 5, 10, 5, 7, 3, 1, 12, 1, 12, 3],
                     {'congestion_events': 0, 'max_edge_bits': 84, 'rounds': 37, 'total_msgs': 733}),
                 3: (3, 36, [9, 7], [0, 3], 0, [0, 8, 0, 11, 1, 3, 7, 5, 7, 3, 1, 3, 7, 3, 1, 12, 8, 6, 13, 7, 3, 1, 3, 7, 3],
                     {'congestion_events': 0, 'max_edge_bits': 70, 'rounds': 36, 'total_msgs': 743})}}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(RUNS))
def test_workload_outputs_pinned(workload, seed):
    assert RUNS[workload](seed) == PINS[workload][seed]


# (schedule, lambda) -> engine seed -> (lengths, holders), one hex digit per coupon.
PHASE1_INSTANCES = {
    "stitch-rr16": (lambda: graphs.parse_schedule_spec("srr:n=16,d=3", seed=99), 6),
    "c8-16-4": (lambda: graphs.RandomRegularSchedule(16, 4, seed=777), 2),
}
PHASE1_PINS = {
    "stitch-rr16": {0: ("7a7a9a996ba799a9797a967b8a799886ab6697aba9ba6876", "3bdfecb5af126e5ba8d951b3dcd23922169ebcc8d05d27e6"),
                    1: ("7777b9b6899a7a7abaa66887bb7a97bb9a76769a7ab6baa9", "b58b0d99293f0b79df226fc95cd97b9e6a731d83e44afafb"),
                    2: ("6a89a6ab96b66bab766988aba7a696ba77a8967aba7879bb", "cf68f39e9f9f67b2f5f3ecfe4ce8f95dda585ceb0371dfbc"),
                    3: ("aa986bab86b79a89ba99ab899a9a78b689b66868a79a8876", "d63674422d18786289beb9c413c66bdc281030fbd64e81e0")},
    "c8-16-4": {0: ("2323333323323333232332232323322233223233333322223332233332222223", "814f02b12565d4bbc890f05ed94e166d73bd41883cc177bf21a003972032d3bb"),
                1: ("2222333223332323333222223323323333222233233233333222322233222222", "6fba3ccd52063fc4d1d8eb059379fe1964038bd72fe84514222a2f1cdb055893"),
                2: ("2323323332322333222322333232323322323223332223333333332333332332", "19cf61f2b0e862a597e7050ecefbb55f0059b6f28b6a44384120de1544b23ad3"),
                3: ("3332233322323323333333233333223223322222323322222323322233222233", "8d47f489e037d10216076ecb81e27a633bd0f6385dc1c6bbefe8fb262152fdaa")},
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("instance", sorted(PHASE1_INSTANCES))
def test_phase1_coupons_pinned(instance, seed):
    build, lam = PHASE1_INSTANCES[instance]
    table = walks.phase1_distribute(engine(build(), seed, 4), walks.WalkParams(tau=10 * lam, lambda_walk=lam), record_paths=False)
    as_hex = lambda a: "".join(f"{v:x}" for v in a.tolist())  # every value is below 16
    assert (as_hex(table.lengths), as_hex(table.holders)) == PHASE1_PINS[instance][seed]
