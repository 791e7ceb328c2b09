import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import empirical_tv, make_engine
from dynwalk.graphs import StaticSchedule, named_graph, parse_schedule_spec
from dynwalk.engine import ProtocolError
from dynwalk.oracle import segment_matrix, transition_matrix
from dynwalk.walks import (
    TAG_NAIVE,
    CouponTable,
    CouponsExhausted,
    WalkParams,
    WalkResult,
    concurrent_naive_walks,
    many_random_walks,
    naive_walk,
    phase1_distribute,
    sample_coupon,
    single_random_walk,
    visit_stats,
)


class TestWalkParams:
    def test_defaults(self):
        p = WalkParams.for_single(tau=100, phi=4)
        assert p.lambda_walk == math.ceil(math.sqrt(400))
        p = WalkParams.for_many(tau=100, phi=4, k=9)
        assert p.lambda_walk == 60
        p = WalkParams.for_single(tau=100, phi=4, lambda_c=0.5)
        assert p.lambda_walk == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            WalkParams(tau=-1, lambda_walk=2)
        with pytest.raises(ValueError):
            WalkParams(tau=5, lambda_walk=0)


class TestNaiveWalk:
    def test_zero_length(self, k4):
        res = naive_walk(make_engine(k4, seed=0, phi=1), 2, 0)
        assert res.destination == 2 and res.rounds_used == 0
        assert res.path == [2] and res.step_provenance == []

    def test_rounds_equal_length(self, c9):
        eng = make_engine(c9, seed=3, phi=4)
        res = naive_walk(eng, 0, 17)
        assert res.rounds_used == 17 == eng.round
        assert len(res.path) == 18 and len(res.step_provenance) == 17
        # every hop is an edge of its provenance round's snapshot
        for i, t in enumerate(res.step_provenance):
            assert c9.snapshot_at(t).has_edge(res.path[i], res.path[i + 1])

    def test_k4_one_step_distribution(self, k4):
        dests = []
        for i in range(30000):
            dests.append(naive_walk(make_engine(k4, seed=i, phi=1), 0, 1, record_path=False).destination)
        assert empirical_tv(dests, [0, 1 / 3, 1 / 3, 1 / 3]) <= 0.02

    def test_k4_two_step_distribution(self, k4):
        dests = []
        for i in range(30000):
            dests.append(naive_walk(make_engine(k4, seed=i, phi=1), 0, 2, record_path=False).destination)
        assert empirical_tv(dests, [1 / 3, 2 / 9, 2 / 9, 2 / 9]) <= 0.02

    def test_non_regular_raises_protocol_error(self):
        star = StaticSchedule(named_graph("star4"))
        eng = make_engine(star, seed=0)
        with pytest.raises(ProtocolError, match="non-regular"):
            naive_walk(eng, 0, 3)
        with pytest.raises(ProtocolError, match="non-regular"):
            phase1_distribute(eng, WalkParams(tau=8, lambda_walk=2))
        assert eng.round == 0


class TestPhase1:
    def test_lambda_one_degenerate(self, k4):
        eng = make_engine(k4, seed=5, phi=1)
        table = phase1_distribute(eng, WalkParams(tau=4, lambda_walk=1))
        assert all(length == 1 for length in table.lengths)
        assert eng.round == 2  # 2*lambda rounds consumed
        for ci in range(len(table.lengths)):
            path = table.as_coupon(ci).path
            assert len(path) == 2
            assert k4.snapshot_at(1).has_edge(path[0], path[1])

    def test_counts_and_lengths(self, rr16):
        eng = make_engine(rr16, seed=7, phi=4)
        lam = 4
        table = phase1_distribute(eng, WalkParams(tau=40, lambda_walk=lam))
        assert len(table.origins) == 16 * 3
        for v in range(16):
            assert len(table.unused[v]) == 3
            assert sorted(table.serials[ci] for ci in table.unused[v]) == [1, 2, 3]
        assert all(lam <= length <= 2 * lam - 1 for length in table.lengths)
        assert eng.round == 2 * lam
        # coupon rests at the endpoint of a walk of its desired length
        for ci, length in enumerate(table.lengths):
            path = table.as_coupon(ci).path
            assert len(path) == length + 1
            assert path[-1] == table.holders[ci]
            for step in range(length):
                assert rr16.snapshot_at(step + 1).has_edge(path[step], path[step + 1])

    def test_needs_fresh_engine(self, k4):
        eng = make_engine(k4, seed=0, phi=1)
        eng.idle(1)
        with pytest.raises(Exception):
            phase1_distribute(eng, WalkParams(tau=4, lambda_walk=2))

    def test_endpoints_match_segment_matrix(self, k4):
        # Coupon endpoint law per origin is the stitch matrix row.
        target = segment_matrix(k4, 2)[0]
        endpoints = []
        for i in range(20000):
            eng = make_engine(k4, seed=i, phi=1)
            table = phase1_distribute(eng, WalkParams(tau=8, lambda_walk=2), record_paths=False)
            endpoints.extend(table.holders[ci] for ci in table.unused[0])
        assert empirical_tv(endpoints, target) <= 0.02


    def test_endpoints_match_segment_matrix_dynamic(self):
        # rr: a fresh graph every round, so a coupon stepping on another
        # round's snapshot, or walking the wrong length, shifts this law.
        sched = parse_schedule_spec("rr:n=8,d=3", seed=4)
        target = segment_matrix(sched, 2)[0]
        endpoints = []
        for i in range(8000):
            eng = make_engine(sched, seed=i, phi=1)
            table = phase1_distribute(eng, WalkParams(tau=8, lambda_walk=2), record_paths=False)
            endpoints.extend(table.holders[ci] for ci in table.unused[0])
        assert empirical_tv(endpoints, target) <= 0.02


class TestSampleCoupon:
    def test_single_unused_serial(self, c5):
        eng = make_engine(c5, seed=1, phi=2)
        table = phase1_distribute(eng, WalkParams(tau=6, lambda_walk=1))
        only = table.unused[3][:1]
        table.unused[3] = only
        coupon, dest = sample_coupon(eng, table, 3, phi=2)
        assert coupon.origin == 3 and coupon.used
        assert dest == coupon.holder

    def test_costs_two_floods(self, c5):
        eng = make_engine(c5, seed=2, phi=2)
        table = phase1_distribute(eng, WalkParams(tau=6, lambda_walk=1))
        before = eng.round
        sample_coupon(eng, table, 0, phi=2)
        assert eng.round - before == 4  # request flood + transfer flood

    def test_serial_choice_uniform(self):
        # Fresh unused set {2,5,7} each trial; chi-square over 30000 draws.
        table = CouponTable(1, 7, 2, np.full(7, 2))
        keep = [ci for ci in range(7) if table.serials[ci] in (2, 5, 7)]
        rng = np.random.default_rng(99)
        counts = {2: 0, 5: 0, 7: 0}
        for _ in range(30000):
            table.unused[0] = keep[:]
            ci = table.sample(0, rng)
            counts[table.serials[ci]] += 1
        _, p = stats.chisquare(list(counts.values()))
        assert p > 0.01

    def test_no_reuse_and_exhaustion(self, c5):
        eng = make_engine(c5, seed=3, phi=2)
        table = phase1_distribute(eng, WalkParams(tau=6, lambda_walk=1))
        seen = set()
        for _ in range(2):  # d = 2 on C5
            coupon, _ = sample_coupon(eng, table, 1, phi=2)
            key = (coupon.origin, coupon.serial)
            assert key not in seen
            seen.add(key)
        with pytest.raises(CouponsExhausted):
            sample_coupon(eng, table, 1, phi=2)


class TestSingleRandomWalk:
    def test_short_tau_is_pure_naive(self, k4):
        eng = make_engine(k4, seed=4, phi=1)
        res = single_random_walk(eng, 0, WalkParams(tau=4, lambda_walk=2))
        assert res.segment_lengths == [] and res.connectors == [0]
        assert res.rounds_used == 4 == eng.round

    def test_stitched_invariants(self, rr16):
        params = WalkParams.for_single(tau=60, phi=4)
        lam = params.lambda_walk
        for seed in range(30):
            eng = make_engine(rr16, seed=seed, phi=4)
            res = single_random_walk(eng, seed % 16, params)
            assert len(res.step_provenance) == 60
            assert len(res.path) == 61
            assert res.path[0] == res.source == res.connectors[0]
            assert res.path[-1] == res.destination
            assert all(lam <= s <= 2 * lam - 1 for s in res.segment_lengths)
            naive_tail = 60 - sum(res.segment_lengths) - res.fallbacks * lam
            assert 0 <= naive_tail < 2 * lam

    def test_fallback_on_exhaustion(self, k4):
        eng = make_engine(k4, seed=6, phi=1)
        params = WalkParams(tau=12, lambda_walk=2)
        table = phase1_distribute(eng, params)
        table.unused[0] = []  # drain the source before it can stitch
        res = single_random_walk(eng, 0, params, coupons=table)
        assert res.fallbacks >= 1
        assert len(res.step_provenance) == 12 and len(res.path) == 13

    def test_consumed_coupons_match_segments(self, rr16):
        eng = make_engine(rr16, seed=9, phi=4)
        params = WalkParams.for_single(tau=60, phi=4)
        table = phase1_distribute(eng, params)
        res = single_random_walk(eng, 0, params, coupons=table)
        assert sum(table.used) == len(res.segment_lengths)

    def test_stitched_destination_distribution(self, k4):
        P = transition_matrix(k4.snapshot_at(1))
        target = np.linalg.matrix_power(P, 8)[0]
        params = WalkParams(tau=8, lambda_walk=2)
        dests = []
        for i in range(15000):
            eng = make_engine(k4, seed=i, phi=1)
            dests.append(single_random_walk(eng, 0, params, record_path=False).destination)
        assert empirical_tv(dests, target) <= 0.02


class TestManyRandomWalks:
    def test_case1_concurrent(self, k4):
        eng = make_engine(k4, seed=2, phi=1)
        results = many_random_walks(eng, [0, 1, 2, 3], tau=3)  # lambda = ceil(sqrt(12)) = 4 >= 3
        assert eng.round == 3
        assert [r.walk_id for r in results] == [0, 1, 2, 3]
        assert all(len(r.step_provenance) == 3 for r in results)

    def test_case1_pairwise_independence(self, k4):
        # Two walks from one source: joint destination table factorizes.
        joint = np.zeros((4, 4))
        for i in range(20000):
            eng = make_engine(k4, seed=i, phi=1)
            a, b = many_random_walks(eng, [0, 0], tau=3, record_path=False)
            joint[a.destination, b.destination] += 1
        _, p, _, _ = stats.chi2_contingency(joint)
        assert p > 0.01

    def test_case2_shared_phase_disjoint_coupons(self, rr16):
        eng = make_engine(rr16, seed=11, phi=4)
        results = many_random_walks(eng, [0, 5, 9, 13], tau=60, lambda_walk=5)
        total_segments = sum(len(r.segment_lengths) for r in results)
        assert total_segments >= 4  # stitched regime reached
        assert all(len(r.step_provenance) == 60 for r in results)

    def test_case2_marginals(self, k4):
        P = transition_matrix(k4.snapshot_at(1))
        target = np.linalg.matrix_power(P, 12)
        sources = [0, 1, 2, 3]
        dests = [[] for _ in sources]
        for i in range(12000):
            eng = make_engine(k4, seed=i, phi=1)
            for j, res in enumerate(
                many_random_walks(eng, sources, tau=12, lambda_walk=3, record_path=False)
            ):
                dests[j].append(res.destination)
        for j, s in enumerate(sources):
            assert empirical_tv(dests[j], target[s]) <= 0.03

    def test_empty_sources(self, k4):
        eng = make_engine(k4, seed=0, phi=1)
        batch = many_random_walks(eng, [], tau=5)
        assert list(batch) == [] and batch.destinations.shape == (0,)
        assert eng.round == 0


def reference_naive(schedule, seed, sources, length, record_path):
    """Naive walks one token at a time on `TAG_NAIVE`'s (length, k) draws,
    with the fields a naive walk's `WalkResult` has always carried."""
    draws = make_engine(schedule, seed).stream(TAG_NAIVE).integers(schedule.d, size=(length, len(sources)))
    out = []
    for j, s in enumerate(sources):
        path = [s]
        for i in range(length):
            path.append(schedule.snapshot_at(i + 1).adj[path[-1]][draws[i, j]])
        prov = list(range(1, length + 1))
        out.append(WalkResult(s, path[-1], length, [s], prov, [], 0, path if record_path else None, j))
    return out


def reference_stitched(schedule, seed, phi, sources, params, record_path):
    """The k walks of `many_random_walks`' stitched branch, one call each."""
    eng = make_engine(schedule, seed, phi=phi)
    table = phase1_distribute(eng, params, record_paths=record_path)
    return [
        single_random_walk(eng, s, params, coupons=table, walk_id=j, k_context=len(sources),
                           record_path=record_path)
        for j, s in enumerate(sources)
    ], eng.round


def assert_batch_matches(batch, expected):
    assert len(batch) == len(expected)
    assert batch.destinations.tolist() == [r.destination for r in batch]
    assert list(batch) == expected


@st.composite
def batch_cases(draw):
    n = draw(st.sampled_from([6, 8, 10]))
    kind = draw(st.sampled_from(["rr", "srr"]))
    schedule = parse_schedule_spec(f"{kind}:n={n},d=3", seed=draw(st.integers(0, 10**6)))
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    tau = draw(st.integers(0, 16))
    lam = draw(st.integers(1, tau + 2))
    return schedule, sources, tau, lam, draw(st.booleans()), draw(st.integers(0, 10**6))


class TestWalkBatch:
    @pytest.mark.parametrize("record_path", [True, False])
    def test_naive_branch(self, rr16, record_path):
        sources = [0, 5, 5, 13]
        eng = make_engine(rr16, seed=3, phi=4)
        batch = many_random_walks(eng, sources, tau=9, record_path=record_path)  # lambda = 12 >= 9
        assert eng.round == 9
        assert_batch_matches(batch, reference_naive(rr16, 3, sources, 9, record_path))

    @pytest.mark.parametrize("record_path", [True, False])
    def test_stitched_branch(self, rr16, record_path):
        sources = [0, 5, 9, 13]
        params = WalkParams(tau=60, lambda_walk=5)
        eng = make_engine(rr16, seed=11, phi=4)
        batch = many_random_walks(eng, sources, tau=60, lambda_walk=5, record_path=record_path)
        expected, rounds = reference_stitched(rr16, 11, 4, sources, params, record_path)
        assert sum(len(r.segment_lengths) for r in expected) >= 4
        assert eng.round == rounds
        assert_batch_matches(batch, expected)

    @pytest.mark.parametrize("record_path", [True, False])
    def test_concurrent_naive_walks(self, rr16, record_path):
        sources = [1, 2, 2, 9, 15]
        batch = concurrent_naive_walks(make_engine(rr16, seed=7), sources, 7, record_path=record_path)
        assert_batch_matches(batch, reference_naive(rr16, 7, sources, 7, record_path))

    def test_non_regular_raises_before_any_round(self):
        eng = make_engine(StaticSchedule(named_graph("star4")), seed=0)
        with pytest.raises(ProtocolError, match="non-regular"):
            concurrent_naive_walks(eng, [0, 1, 2], 4)
        assert eng.round == 0

    def test_read_only_and_built_once(self, k4):
        batch = concurrent_naive_walks(make_engine(k4, seed=0), [0, 1, 2], 4)
        with pytest.raises(ValueError):
            batch.destinations[0] = 3
        assert batch[1] is list(batch)[1] and batch[0:2] == list(batch)[:2]

    @settings(max_examples=60, deadline=None)
    @given(batch_cases())
    def test_matches_reference(self, case):
        schedule, sources, tau, lam, record_path, seed = case
        phi = schedule.n - 1  # per-round connectivity completes every flood within n - 1 rounds
        eng = make_engine(schedule, seed, phi=phi)
        batch = many_random_walks(eng, sources, tau, lambda_walk=lam, record_path=record_path)
        if lam >= tau:
            expected, rounds = reference_naive(schedule, seed, sources, tau, record_path), tau
        else:
            expected, rounds = reference_stitched(
                schedule, seed, phi, sources, WalkParams(tau, lam), record_path
            )
        assert eng.round == rounds
        assert_batch_matches(batch, expected)


class TestVisitStats:
    def test_zero_length_walk(self, k4):
        res = naive_walk(make_engine(k4, seed=0, phi=1), 2, 0)
        st = visit_stats([res], 4)
        assert st.visits[2] == 1 and st.visits.sum() == 1
        assert st.connector_counts.sum() == 0

    def test_k_zero_length_walks(self, k4):
        results = [naive_walk(make_engine(k4, seed=i, phi=1), 1, 0) for i in range(5)]
        st = visit_stats(results, 4)
        assert st.visits[1] == 5

    def test_counts_consistent_with_paths(self, rr16):
        eng = make_engine(rr16, seed=12, phi=4)
        params = WalkParams.for_single(tau=60, phi=4)
        res = single_random_walk(eng, 0, params)
        st = visit_stats([res], 16)
        assert st.visits.sum() == 61
        assert st.connector_counts.sum() == len(res.connectors) - 1

    def test_requires_paths(self, k4):
        res = naive_walk(make_engine(k4, seed=0, phi=1), 0, 2, record_path=False)
        with pytest.raises(ValueError):
            visit_stats([res], 4)
