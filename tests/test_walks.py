import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import empirical_tv, log_totals, make_engine
from dynwalk.graphs import (
    PeriodicSchedule,
    dynamic_diameter,
    parse_schedule_spec,
    random_regular_graph,
)
from dynwalk import walks
from dynwalk.engine import CongestEngine, RoundLimitError, SimConfig
from dynwalk.oracle import segment_matrix, transition_matrix
from dynwalk.walks import (
    TAG_NAIVE,
    TAG_PHASE1,
    TAG_STITCH,
    _walk_tokens,
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


def hops_on(schedule, path, first_round):
    """Whether hop j of `path` (j = 1, 2, ...) is an edge of the snapshot of
    round first_round + j - 1."""
    hops = zip(path, path[1:])
    return all(v in schedule.snapshot_at(t).nbr[u].tolist() for t, (u, v) in enumerate(hops, first_round))


class TestPathAudit:
    """Each step of a walk is taken on the snapshot of its own round, on a
    schedule whose snapshots differ from round to round."""

    @pytest.fixture(scope="class")
    def rr(self):
        return parse_schedule_spec("rr:n=16,d=3", seed=5)

    def test_stitched_walk_hops(self, rr):
        # Hop j of a segment is a coupon's step in Phase-1 round j; after s
        # stitches the tail starts in round 2*lambda + 2*phi*s + 1.
        params = WalkParams(tau=60, lambda_walk=8)
        phi = dynamic_diameter(rr, 160)
        audited = 0
        for seed in range(40):
            res = single_random_walk(make_engine(rr, seed=seed, phi=phi), seed % 16, params)
            if res.fallbacks:
                continue
            at = 0
            for length in res.segment_lengths:
                assert hops_on(rr, res.path[at : at + length + 1], 1)
                at += length
            stitches = len(res.segment_lengths)
            assert 0 < at < 60 and hops_on(rr, res.path[at:], 2 * params.lambda_walk + 2 * phi * stitches + 1)
            audited += 1
        assert audited >= 30

    def test_naive_walk_hops(self, rr):
        # A naive walk started after k idle rounds steps on G_{k+1}, G_{k+2}, ...
        for seed in range(40):
            eng = make_engine(rr, seed=seed)
            eng.idle(seed % 5)
            res = naive_walk(eng, seed % 16, 20)
            assert hops_on(rr, res.path, seed % 5 + 1)


class TestWalkParams:
    def test_defaults(self):
        p = WalkParams.for_many(tau=100, phi=4, k=1)
        assert p.lambda_walk == math.ceil(math.sqrt(400))
        p = WalkParams.for_many(tau=100, phi=4, k=9)
        assert p.lambda_walk == 60
        p = WalkParams.for_many(tau=100, phi=4, k=1, lambda_c=0.5)
        assert p.lambda_walk == 10

    @pytest.mark.parametrize("lambda_c", [1e308, math.inf])
    def test_non_finite_lambda_rejected(self, lambda_c):
        # ceil of an infinite lambda raised OverflowError.
        with pytest.raises(ValueError, match="not finite"):
            WalkParams.for_many(tau=40, phi=4, k=1, lambda_c=lambda_c)

    def test_validation(self):
        with pytest.raises(ValueError):
            WalkParams(tau=-1, lambda_walk=2)
        with pytest.raises(ValueError):
            WalkParams(tau=5, lambda_walk=0)


class TestNaiveWalk:
    def test_zero_length(self, k4):
        res = naive_walk(make_engine(k4, seed=0, phi=1), 2, 0)
        assert res.destination == 2 and res.rounds_used == 0
        assert res.path == [2]

    def test_rounds_equal_length(self, c9):
        eng = make_engine(c9, seed=3, phi=4)
        res = naive_walk(eng, 0, 17)
        assert res.rounds_used == 17 == eng.round
        assert len(res.path) == 18 and hops_on(c9, res.path, 1)

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


class TestPhase1:
    def test_lambda_one_degenerate(self, k4):
        eng = make_engine(k4, seed=5, phi=1)
        table = phase1_distribute(eng, WalkParams(tau=4, lambda_walk=1))
        assert all(length == 1 for length in table.lengths)
        assert eng.round == 2  # 2*lambda rounds consumed
        for ci in range(len(table.lengths)):
            path = table.trail[: table.lengths[ci] + 1, ci].tolist()
            assert len(path) == 2
            assert path[1] in k4.snapshot_at(1).nbr[path[0]].tolist()

    def test_counts_and_lengths(self, rr16):
        eng = make_engine(rr16, seed=7, phi=4)
        lam = 4
        table = phase1_distribute(eng, WalkParams(tau=40, lambda_walk=lam))
        assert len(table.lengths) == len(table.holders) == 16 * 3
        for v in range(16):
            assert len(table.unused[v]) == 3
            assert [ci // 3 for ci in table.unused[v]] == [v] * 3  # origin
            assert sorted(ci % 3 + 1 for ci in table.unused[v]) == [1, 2, 3]  # serials
        assert all(lam <= length <= 2 * lam - 1 for length in table.lengths)
        assert eng.round == 2 * lam
        # coupon rests at the endpoint of a walk of its desired length
        for ci, length in enumerate(table.lengths):
            path = table.trail[: length + 1, ci].tolist()
            assert len(path) == length + 1
            assert path[-1] == table.holders[ci]
            for step in range(length):
                assert path[step + 1] in rr16.snapshot_at(step + 1).nbr[path[step]].tolist()

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
        only = table.unused[3][0]
        table.unused[3] = [only]
        ci = sample_coupon(eng, table, 3, phi=2, token_bits=eng.enc.token_bits(2))
        assert ci == only and ci // table.d == 3 and table.unused[3] == []  # origin 3, used
        # the token's destination, holders[ci], is where the coupon's walk ended
        assert table.holders[ci] == table.trail[table.lengths[ci], ci]

    def test_costs_two_floods(self, c5):
        eng = make_engine(c5, seed=2, phi=2)
        table = phase1_distribute(eng, WalkParams(tau=6, lambda_walk=1))
        before = eng.round
        sample_coupon(eng, table, 0, phi=2, token_bits=eng.enc.token_bits(2))
        assert eng.round - before == 4  # request flood + transfer flood

    def test_serial_choice_uniform(self):
        # Fresh unused set {2,5,7} each trial; chi-square over 30000 draws.
        table = CouponTable(1, 7, np.full(7, 2))
        keep = [ci for ci in range(7) if ci % 7 + 1 in (2, 5, 7)]
        rng = np.random.default_rng(99)
        counts = {2: 0, 5: 0, 7: 0}
        for _ in range(30000):
            table.unused[0] = keep[:]
            ci = table.sample(0, rng)
            counts[ci % 7 + 1] += 1
        _, p = stats.chisquare(list(counts.values()))
        assert p > 0.01

    def test_no_reuse_and_exhaustion(self, c5):
        eng = make_engine(c5, seed=3, phi=2)
        table = phase1_distribute(eng, WalkParams(tau=6, lambda_walk=1))
        seen = set()
        for _ in range(2):  # d = 2 on C5
            ci = sample_coupon(eng, table, 1, phi=2, token_bits=eng.enc.token_bits(2))
            key = (ci // table.d, ci % table.d + 1)  # (origin, serial)
            assert key not in seen
            seen.add(key)
        with pytest.raises(CouponsExhausted):
            sample_coupon(eng, table, 1, phi=2, token_bits=eng.enc.token_bits(2))


class TestSingleRandomWalk:
    def test_short_tau_is_pure_naive(self, k4):
        eng = make_engine(k4, seed=4, phi=1)
        res = single_random_walk(eng, 0, WalkParams(tau=4, lambda_walk=2))
        assert res.segment_lengths == [] and res.connectors == [0]
        assert res.rounds_used == 4 == eng.round

    def test_stitched_invariants(self, rr16):
        params = WalkParams.for_many(tau=60, phi=4, k=1)
        lam = params.lambda_walk
        for seed in range(30):
            eng = make_engine(rr16, seed=seed, phi=4)
            res = single_random_walk(eng, seed % 16, params)
            assert len(res.path) == 61
            assert res.path[0] == res.source == res.connectors[0]
            assert res.path[-1] == res.destination
            assert all(lam <= s <= 2 * lam - 1 for s in res.segment_lengths)
            naive_tail = 60 - sum(res.segment_lengths) - res.fallbacks * lam
            assert 0 <= naive_tail < 2 * lam

    def test_fallback_on_exhaustion(self, k4):
        # lambda = 1: every coupon has length 1, so the walk samples 39 times,
        # but K4 holds only 12 coupons.
        for seed in range(5):
            res = single_random_walk(make_engine(k4, seed=seed, phi=1), 0, WalkParams(tau=40, lambda_walk=1))
            assert res.fallbacks >= 27 and len(res.segment_lengths) <= 12
            assert sum(res.segment_lengths) + res.fallbacks == 39
            assert len(res.path) == 41 and hops_on(k4, res.path, 1)

    def test_consumed_coupons_match_segments(self, rr16, monkeypatch):
        tables = []

        def keep_table(*args, **kwargs):
            tables.append(phase1_distribute(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(walks, "phase1_distribute", keep_table)
        for sources in ([0], [0, 5, 5, 13]):
            batch = many_random_walks(make_engine(rr16, seed=9, phi=4), sources, WalkParams(60, 8))
            consumed = 16 * tables[-1].d - sum(map(len, tables[-1].unused))
            assert consumed == sum(len(r.segment_lengths) for r in batch) > 0
        assert len(tables) == 2  # one Phase 1 per batch

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
        results = many_random_walks(eng, [0, 1, 2, 3], WalkParams.for_many(3, 1, 4))  # lambda = ceil(sqrt(12)) = 4 >= 3
        assert eng.round == 3
        assert [r.walk_id for r in results] == [0, 1, 2, 3]
        assert all(len(r.path) == 4 for r in results)

    def test_case1_pairwise_independence(self, k4):
        # Two walks from one source: joint destination table factorizes.
        joint = np.zeros((4, 4))
        for i in range(20000):
            eng = make_engine(k4, seed=i, phi=1)
            a, b = many_random_walks(eng, [0, 0], WalkParams.for_many(3, 1, 2), record_path=False)
            joint[a.destination, b.destination] += 1
        _, p, _, _ = stats.chi2_contingency(joint)
        assert p > 0.01

    def test_case2_shared_phase_disjoint_coupons(self, rr16):
        eng = make_engine(rr16, seed=11, phi=4)
        results = many_random_walks(eng, [0, 5, 9, 13], WalkParams(60, 5))
        total_segments = sum(len(r.segment_lengths) for r in results)
        assert total_segments >= 4  # stitched regime reached
        assert all(len(r.path) == 61 for r in results)

    def test_case2_marginals(self, k4):
        P = transition_matrix(k4.snapshot_at(1))
        target = np.linalg.matrix_power(P, 12)
        sources = [0, 1, 2, 3]
        dests = [[] for _ in sources]
        for i in range(12000):
            eng = make_engine(k4, seed=i, phi=1)
            for j, res in enumerate(
                many_random_walks(eng, sources, WalkParams(12, 3), record_path=False)
            ):
                dests[j].append(res.destination)
        for j, s in enumerate(sources):
            assert empirical_tv(dests[j], target[s]) <= 0.03

    def test_empty_sources(self, k4):
        eng = make_engine(k4, seed=0, phi=1)
        batch = many_random_walks(eng, [], WalkParams.for_many(5, 1, 0))
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
            path.append(int(schedule.snapshot_at(i + 1).nbr[path[-1], draws[i, j]]))
        out.append(WalkResult(s, path[-1], length, [s], [], 0, path if record_path else None, j))
    return out


def reference_stitched(schedule, seed, phi, sources, params, record_path):
    """The stitched walks, source by source, from one Phase-1 table and
    `sample_coupon`; each naive leg (a fallback or the tail) steps through
    the neighbor table on `TAG_NAIVE` draws taken leg by leg in the same
    order, and idles the engine for its rounds.  Returns the walks and the rounds spent."""
    eng = make_engine(schedule, seed, phi=phi)
    tau, lam = params.tau, params.lambda_walk
    table = phase1_distribute(eng, params)
    rng, bits = eng.stream(TAG_NAIVE), eng.enc.token_bits(tau, len(sources))
    out = []
    for j, s in enumerate(sources):
        path, connectors, segments, fallbacks = [s], [s], [], 0

        def naive(steps):
            for i, draw in enumerate(rng.integers(schedule.d, size=steps), eng.round + 1):
                path.append(int(schedule.snapshot_at(i).nbr[path[-1], draw]))
            eng.idle(steps)

        while len(path) - 1 <= tau - 2 * lam:
            try:
                ci = sample_coupon(eng, table, path[-1], phi, bits)
            except CouponsExhausted:
                fallbacks += 1
                naive(lam)
                continue
            if segments:
                connectors.append(path[-1])
            segments.append(int(table.lengths[ci]))
            path.extend(table.trail[1 : segments[-1] + 1, ci].tolist())
        naive(tau + 1 - len(path))
        out.append(WalkResult(s, path[-1], eng.round, connectors, segments, fallbacks,
                              path if record_path else None, j))
    return out, eng.round


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
        batch = many_random_walks(eng, sources, WalkParams.for_many(9, 4, 4), record_path=record_path)  # lambda = 12 >= 9
        assert eng.round == 9
        assert_batch_matches(batch, reference_naive(rr16, 3, sources, 9, record_path))

    @pytest.mark.parametrize("record_path", [True, False])
    def test_stitched_branch(self, rr16, record_path):
        sources = [0, 5, 9, 13]
        params = WalkParams(tau=60, lambda_walk=5)
        eng = make_engine(rr16, seed=11, phi=4)
        batch = many_random_walks(eng, sources, params, record_path=record_path)
        expected, rounds = reference_stitched(rr16, 11, 4, sources, params, record_path)
        assert sum(len(r.segment_lengths) for r in expected) >= 4
        assert eng.round == rounds
        assert_batch_matches(batch, expected)

    @pytest.mark.parametrize("record_path", [True, False])
    def test_concurrent_naive_walks(self, rr16, record_path):
        sources = [1, 2, 2, 9, 15]
        batch = concurrent_naive_walks(make_engine(rr16, seed=7), sources, 7, record_path=record_path)
        assert_batch_matches(batch, reference_naive(rr16, 7, sources, 7, record_path))

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
        batch = many_random_walks(eng, sources, WalkParams(tau, lam), record_path=record_path)
        if tau <= 2 * lam:
            expected, rounds = reference_naive(schedule, seed, sources, tau, record_path), tau
        else:
            expected, rounds = reference_stitched(
                schedule, seed, phi, sources, WalkParams(tau, lam), record_path
            )
        assert eng.round == rounds
        assert_batch_matches(batch, expected)

    @settings(max_examples=60, deadline=None)
    @given(batch_cases())
    def test_round_identity_on_every_walk(self, case):
        # Walk j's rounds_used counts from the call's start: Phase 1 and
        # walks 0..j-1 included, so the last walk's count is the batch's cost.
        schedule, sources, tau, lam, record_path, seed = case
        phi = schedule.n - 1
        eng = make_engine(schedule, seed, phi=phi)
        batch = many_random_walks(eng, sources, WalkParams(tau, lam), record_path=record_path)
        expected = 0 if tau <= 2 * lam else 2 * lam
        for res in batch:
            if tau <= 2 * lam:
                expected = tau
            else:
                walked = sum(res.segment_lengths) + lam * res.fallbacks
                expected += 2 * phi * len(res.segment_lengths) + lam * res.fallbacks + tau - walked
            assert res.rounds_used == expected
        assert batch[-1].rounds_used == eng.round

    @pytest.mark.parametrize("seed", range(3))
    def test_no_phase1_when_no_stitch_fits(self, seed):
        # lambda = ceil(sqrt(6*40*4)) = 31: 40 <= 2*lambda, so Phase 1's 62
        # rounds would leave no room for a stitch.
        sched = parse_schedule_spec("rr:n=16,d=3", seed=1)
        sources = list(range(6))
        eng = make_engine(sched, seed, phi=4)
        batch = many_random_walks(eng, sources, WalkParams.for_many(40, 4, 6))
        assert eng.round == 40
        assert_batch_matches(batch, reference_naive(sched, seed, sources, 40, True))


def flood_charge(schedule, source, start_round, phi):
    """Messages a one-source flood of `phi` rounds from `start_round` is
    charged, in closed form from its trace: every BFS round sends what the
    trace says, and each round after coverage n*d."""
    sent = schedule.flood_trace((source,), start_round).sent
    assert len(sent) <= phi  # phi completes the flood
    return sum(sent) + (phi - len(sent)) * schedule.n * schedule.d


def stitched_walk_cost(schedule, seed, phi, params, res):
    """(rounds, messages) of stitched walk `res` from round 0, replayed from
    a twin engine's Phase-1 table and stitch stream: Phase 1 sends one
    message per coupon step, each stitch two floods, and each fallback and
    tail step one message.  The replay's segments and fallbacks must be the
    walk's, and its positions are read from the walk's path."""
    tau, lam = params.tau, params.lambda_walk
    twin = make_engine(schedule, seed, phi=phi)
    table = phase1_distribute(twin, params, record_paths=False)
    rng = twin.stream(TAG_STITCH)
    rounds, msgs = 2 * lam, int(table.lengths.sum())
    v, completed, segments, fallbacks = res.source, 0, [], 0
    while completed <= tau - 2 * lam:
        if not table.unused[v]:
            fallbacks += 1
            completed += lam
            rounds += lam
            msgs += lam
            v = res.path[completed]
            continue
        ci = table.sample(v, rng)
        msgs += flood_charge(schedule, v, rounds + 1, phi) + flood_charge(schedule, v, rounds + phi + 1, phi)
        rounds += 2 * phi
        segments.append(int(table.lengths[ci]))
        completed += segments[-1]
        v = int(table.holders[ci])
    assert (segments, fallbacks) == (res.segment_lengths, res.fallbacks)
    return rounds + tau - completed, msgs + tau - completed


@st.composite
def cost_cases(draw):
    kind = draw(st.sampled_from(["static", "srr", "rr", "perm", "periodic"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "static":
        schedule = parse_schedule_spec(f"static:{draw(st.sampled_from(['C5', 'K4', 'petersen', 'C9']))}", seed=seed)
    elif kind == "perm":
        schedule = parse_schedule_spec(f"perm:base={draw(st.sampled_from(['petersen', 'C9', 'K4']))}", seed=seed)
    elif kind == "periodic":
        rng = random.Random(seed)
        schedule = PeriodicSchedule([random_regular_graph(8, 3, rng) for _ in range(draw(st.integers(1, 4)))])
    else:
        schedule = parse_schedule_spec(f"{kind}:n={draw(st.sampled_from([8, 12, 16]))},d=3", seed=seed)
    lam = draw(st.integers(1, 6))
    tau = draw(st.integers(2 * lam + 1, 2 * lam + 40))
    # A static schedule's diameter completes every flood; per-round
    # connectivity bounds a dynamic one's by n - 1.
    least = dynamic_diameter(schedule, 1) if kind == "static" else schedule.n - 1
    phi = draw(st.integers(least, schedule.n - 1))
    return schedule, WalkParams(tau, lam), phi, draw(st.integers(0, schedule.n - 1)), draw(st.integers(0, 10**6))


class TestStitchedCostIdentity:
    @settings(max_examples=80, deadline=None)
    @given(cost_cases())
    @example((parse_schedule_spec("static:C5", seed=1), WalkParams(40, 2), 2, 0, 7))  # about 8 fallbacks a walk
    def test_rounds_and_messages_in_closed_form(self, case):
        # The same walk twice on one schedule: the first fills the flood
        # memo, the second charges every flood from it.
        schedule, params, phi, source, seed = case
        for _ in range(2):
            eng = make_engine(schedule, seed, phi=phi)
            res = single_random_walk(eng, source, params)
            assert eng.log.rounds == res.rounds_used == eng.round
            assert (res.rounds_used, eng.log.total_msgs) == stitched_walk_cost(schedule, seed, phi, params, res)


# Each walk entry point, given an engine and one source outside [0, n).
OUTSIDE_WALKS = {
    "single": lambda eng, s: single_random_walk(eng, s, WalkParams(tau=24, lambda_walk=6)),
    "naive": lambda eng, s: naive_walk(eng, s, 5),
    "concurrent": lambda eng, s: concurrent_naive_walks(eng, [0, s], 5),
    "many-stitched": lambda eng, s: many_random_walks(eng, [0, s], WalkParams(24, 6)),
    "many-naive": lambda eng, s: many_random_walks(eng, [0, s], WalkParams(5, 6)),
}


@pytest.mark.parametrize("source", [-1, 16], ids=["minus-one", "n"])
@pytest.mark.parametrize("walk", OUTSIDE_WALKS.values(), ids=OUTSIDE_WALKS.keys())
def test_source_outside_rejected_before_any_round(rr16, walk, source):
    eng = make_engine(rr16, seed=0, phi=4)
    with pytest.raises(ValueError, match=rf"^walk source {source} is outside \[0, 16\)$"):
        walk(eng, source)
    assert eng.round == eng.log.rounds == 0


# Walks that cannot finish within the 40 rounds their engine has left: a
# naive walk needs tau rounds, a stitched one at least 2*lambda.  A 1e30
# stitched walk sized Phase 1's lists by lambda ~ 1e15 before its first round.
LONG_WALKS = {
    "naive": lambda eng: naive_walk(eng, 0, 41),
    "concurrent": lambda eng: concurrent_naive_walks(eng, [0, 1], 41),
    "many-naive": lambda eng: many_random_walks(eng, [0, 1], WalkParams(41, 41)),
    "naive-1e30": lambda eng: naive_walk(eng, 0, 10**30),
    "phase1": lambda eng: phase1_distribute(eng, WalkParams(tau=43, lambda_walk=21)),
    "single-stitched": lambda eng: single_random_walk(eng, 0, WalkParams(tau=43, lambda_walk=21)),
    "many-stitched": lambda eng: many_random_walks(eng, [0, 1], WalkParams(43, 21)),
    "single-1e30": lambda eng: single_random_walk(eng, 0, WalkParams.for_many(10**30, 4, 1)),
    "many-1e30": lambda eng: many_random_walks(eng, [0, 1], WalkParams.for_many(10**30, 4, 2)),
}


@pytest.mark.parametrize("walk", LONG_WALKS.values(), ids=LONG_WALKS.keys())
def test_walk_past_max_rounds_rejected_before_any_draw(rr16, walk):
    eng = CongestEngine(rr16, SimConfig(seed=0, bandwidth_bits=1 << 24, phi=4, max_rounds=40))
    with pytest.raises(RoundLimitError, match=r"^a walk needs at least \d+ rounds, but max_rounds=40 leaves 40$"):
        walk(eng)
    assert eng.round == eng.log.rounds == 0
    fresh = CongestEngine(rr16, SimConfig(seed=0))
    for tag in (TAG_PHASE1, TAG_NAIVE):  # no stream drew
        assert eng.stream(tag).random() == fresh.stream(tag).random()


def test_naive_walk_room_counts_from_the_engine_round(rr16):
    eng = CongestEngine(rr16, SimConfig(seed=0, bandwidth_bits=1 << 24, max_rounds=40))
    eng.idle(30)
    with pytest.raises(RoundLimitError, match="needs at least 11 rounds, but max_rounds=40 leaves 10$"):
        naive_walk(eng, 0, 11)
    assert naive_walk(eng, 0, 10).rounds_used == 10 and eng.round == 40


def test_lambda_of_a_huge_tau_rejected():
    # k*tau*phi past a float's range raised OverflowError from math.sqrt.
    with pytest.raises(ValueError, match="not finite"):
        WalkParams.for_many(tau=10**400, phi=4, k=1)


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
        params = WalkParams.for_many(tau=60, phi=4, k=1)
        res = single_random_walk(eng, 0, params)
        st = visit_stats([res], 16)
        assert st.visits.sum() == 61
        assert st.connector_counts.sum() == len(res.connectors) - 1

    def test_requires_paths(self, k4):
        res = naive_walk(make_engine(k4, seed=0, phi=1), 0, 2, record_path=False)
        with pytest.raises(ValueError):
            visit_stats([res], 4)


# The two round loops the shared `_walk_tokens` replaced, kept as references
# with their steps sent as ports: Phase 1's prefix loop and the naive loop.
def reference_phase1(engine, params, record_paths):
    d, n, lam = engine.schedule.d, engine.n, params.lambda_walk
    rng = engine.stream(TAG_PHASE1)
    table = CouponTable(n, d, lam + rng.integers(lam, size=n * d))
    choices = rng.integers(d, size=(2 * lam, n * d))
    order = np.argsort(-table.lengths, kind="stable")
    moving = np.searchsorted(-table.lengths[order], -np.arange(1, 2 * lam + 1), side="right")
    pos = table.holders[order]
    trail = np.empty((2 * lam + 1, n * d), dtype=np.int64) if record_paths else None
    if record_paths:
        trail[0] = pos
    coupon_bits = engine.enc.coupon_bits(lam, d)
    for i in range(1, 2 * lam + 1):
        m = moving[i - 1]
        pos[:m] = engine.exchange(pos[:m] * d + choices[i - 1, :m], coupon_bits)
        if record_paths:
            trail[i] = pos
    table.holders[order] = pos
    if record_paths:
        table.trail = np.empty_like(trail)
        table.trail[:, order] = trail
    return table


def reference_walk_tokens(engine, sources, steps, token_bits, record_path):
    d = engine.schedule.d
    pos = np.array(sources, dtype=np.int64)
    draws = engine.stream(TAG_NAIVE).integers(d, size=(steps, len(pos)))
    trail = np.empty((steps + 1, len(pos)), dtype=np.int64) if record_path else None
    if record_path:
        trail[0] = pos
    for i in range(steps):
        pos = engine.exchange(pos * d + draws[i], token_bits)
        if record_path:
            trail[i + 1] = pos
    return pos, trail


@st.composite
def loop_schedules(draw):
    kind = draw(st.sampled_from(["rr", "srr", "perm", "periodic"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "perm":
        return parse_schedule_spec(f"perm:base={draw(st.sampled_from(['petersen', 'C9', 'K4']))}", seed=seed)
    n = draw(st.sampled_from([6, 8, 12]))
    if kind == "periodic":
        rng = random.Random(seed)
        return PeriodicSchedule([random_regular_graph(n, 3, rng) for _ in range(draw(st.integers(1, 4)))])
    return parse_schedule_spec(f"{kind}:n={n},d=3", seed=seed)


def recording_engines(schedule, seed):
    config = SimConfig(seed=seed, bandwidth_bits=1 << 24, record_rounds=True)
    return CongestEngine(schedule, config), CongestEngine(schedule, config)


def assert_same_rounds(eng, ref):
    assert eng.round == ref.round
    assert log_totals(eng.log) == log_totals(ref.log)
    assert eng.log.records == ref.log.records


class TestSharedTokenLoop:
    """`_walk_tokens` runs every token step as the parent's two loops did."""

    @settings(max_examples=60, deadline=None)
    @given(loop_schedules(), st.integers(1, 8), st.integers(0, 10**6), st.booleans())
    def test_phase1_matches_its_own_loop(self, schedule, lam, seed, record_paths):
        eng, ref = recording_engines(schedule, seed)
        params = WalkParams(tau=4 * lam, lambda_walk=lam)
        got = phase1_distribute(eng, params, record_paths=record_paths)
        want = reference_phase1(ref, params, record_paths)
        assert got.lengths.tolist() == want.lengths.tolist()
        assert got.holders.tolist() == want.holders.tolist()
        assert got.unused == want.unused
        if record_paths:
            assert got.trail.tolist() == want.trail.tolist()
        else:
            assert got.trail is want.trail is None
        assert_same_rounds(eng, ref)

    @settings(max_examples=60, deadline=None)
    @given(loop_schedules(), st.lists(st.integers(0, 5), min_size=1, max_size=50),
           st.integers(0, 12), st.integers(0, 10**6), st.booleans())
    def test_naive_batch_matches_the_naive_loop(self, schedule, sources, length, seed, record_path):
        sources = [s % schedule.n for s in sources]
        eng, ref = recording_engines(schedule, seed)
        batch = concurrent_naive_walks(eng, sources, length, record_path=record_path)
        pos, trail = reference_walk_tokens(
            ref, sources, length, ref.enc.token_bits(length, len(sources)), record_path
        )
        assert batch.destinations.tolist() == pos.tolist()
        assert [r.path for r in batch] == (trail.T.tolist() if record_path else [None] * len(sources))
        assert_same_rounds(eng, ref)

    @settings(max_examples=60, deadline=None)
    @given(loop_schedules(), st.integers(1, 8), st.integers(0, 12), st.integers(1, 100), st.integers(0, 10**6))
    def test_draws_in_blocks_equal_one_draw(self, schedule, lam, length, block, seed):
        # Blocks of whole rounds continue one numpy stream, so a Phase 1 and
        # a naive batch whose draws span several blocks equal the
        # references, which draw each phase in one call from the same seed.
        eng, ref = recording_engines(schedule, seed)
        params = WalkParams(tau=4 * lam, lambda_walk=lam)
        sources = [0, 1, 2]
        with mock.patch.object(walks, "DRAW_BLOCK", block):
            table = phase1_distribute(eng, params, record_paths=True)
            batch = concurrent_naive_walks(eng, sources, length)
        want = reference_phase1(ref, params, True)
        pos, trail = reference_walk_tokens(ref, sources, length, ref.enc.token_bits(length, 3), True)
        assert table.holders.tolist() == want.holders.tolist() and table.trail.tolist() == want.trail.tolist()
        assert batch.destinations.tolist() == pos.tolist() and [r.path for r in batch] == trail.T.tolist()
        assert_same_rounds(eng, ref)

    def test_draw_blocks_are_whole_rounds_of_at_least_draw_block_values(self, rr16):
        eng = make_engine(rr16, seed=2)
        rng = eng.stream(TAG_NAIVE)
        sizes = []

        class Counting:
            def integers(self, high, size):
                sizes.append(size)
                return rng.integers(high, size=size)

        with mock.patch.object(walks, "DRAW_BLOCK", 5):
            _walk_tokens(eng, Counting(), [0, 1, 2], 7, 8, False)
        assert sizes == [(2, 3), (2, 3), (2, 3), (1, 3)]

    def test_sources_are_copied(self, rr16):
        sources = np.array([3, 3, 7, 11], dtype=np.int64)
        eng = make_engine(rr16, seed=5)
        pos, _ = _walk_tokens(eng, eng.stream(TAG_NAIVE), sources, 6, 8, False)
        assert sources.tolist() == [3, 3, 7, 11] and pos is not sources

    def test_moving_prefix(self, rr16):
        # Round i moves only the first moving[i] tokens; the rest stay put.
        eng = make_engine(rr16, seed=2, phi=4)
        pos, trail = _walk_tokens(eng, eng.stream(TAG_NAIVE), [0, 1, 2, 3], 3, 8, True, [4, 2, 1])
        assert eng.round == 3 and eng.log.total_msgs == 7
        assert trail[1:, 3].tolist() == [trail[1, 3]] * 3 and trail[2:, 2].tolist() == [trail[2, 2]] * 2
        assert trail[3, 1] == trail[2, 1] and pos.tolist() == trail[-1].tolist()
