import math
import random
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import prism5, write_snapshots
from dynwalk import harness, oracle
from dynwalk.graphs import (
    PeriodicSchedule,
    PermutedSchedule,
    RandomRegularSchedule,
    StaticSchedule,
    named_graph,
    parse_schedule_spec,
    random_regular_graph,
)
from dynwalk.mixing import epsilon_prime
from dynwalk.oracle import (
    MIX_EPS,
    MixingCapError,
    dynamic_mixing_bound,
    evolve,
    l2_to_uniform,
    mixing_time_oracle,
    point_mass,
    segment_matrix,
    spectral_summary,
    static_mixing_time,
    transition_matrix,
    tv_distance,
    uniform,
    walk_laws,
)


class TestTransitionMatrix:
    def test_k4(self, k4):
        P = transition_matrix(k4.snapshot_at(1))
        assert np.allclose(P, (np.ones((4, 4)) - np.eye(4)) / 3)

    def test_c5_rows(self, c5):
        P = transition_matrix(c5.snapshot_at(1))
        assert np.allclose(P.sum(axis=1), 1)
        assert all(sorted(P[i][P[i] > 0]) == [0.5, 0.5] for i in range(5))

    def test_doubly_stochastic_when_regular(self, petersen):
        P = transition_matrix(petersen.snapshot_at(1))
        assert np.allclose(P.sum(axis=0), 1) and np.allclose(P.sum(axis=1), 1)


@st.composite
def snapshot_lists(draw):
    """1-4 snapshots of one (n, d): relabeled n-cycles (d = 2, bipartite
    when n is even) or random connected non-bipartite d-regular graphs with
    d >= 3."""
    n = draw(st.integers(3, 12), label="n")
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=4), label="seeds")
    if draw(st.booleans(), label="cycles") or n < 4:
        return [PermutedSchedule(named_graph(f"C{n}"), seed).snapshot_at(1) for seed in seeds]
    d = draw(st.sampled_from([d for d in range(3, n) if n * d % 2 == 0]), label="d")
    return [random_regular_graph(n, d, random.Random(seed)) for seed in seeds]


class TestTransitionMatrices:
    @settings(max_examples=150, deadline=None)
    @given(snapshot_lists())
    def test_stack_and_single_match_explicit(self, graphs):
        stack = oracle.transition_matrices(graphs)
        assert stack.shape == (len(graphs), graphs[0].n, graphs[0].n)
        for g, P in zip(graphs, stack):
            assert np.array_equal(P, _explicit_matrix(g))
            assert np.array_equal(transition_matrix(g), _explicit_matrix(g))

    def test_size_cap_and_shared_shape(self):
        big = named_graph(f"C{oracle.N_CAP + 1}")
        for build in (transition_matrix, lambda g: oracle.transition_matrices([g])):
            with pytest.raises(ValueError, match=f"n={oracle.N_CAP + 1} exceeds cap {oracle.N_CAP}"):
                build(big)
        with pytest.raises(ValueError, match="share n and d"):
            oracle.transition_matrices([named_graph("C5"), named_graph("C6")])
        with pytest.raises(ValueError, match="share n and d"):  # one n, degrees 2 and 4
            oracle.transition_matrices([named_graph("C5"), named_graph("K5")])

    @pytest.mark.parametrize("n, d", [(8, 3), (16, 4), (32, 5), (10, 3)])
    def test_batched_worst_lambda_equals_spectral_summary(self, n, d):
        d = 4 if n * d % 2 else d
        schedule = RandomRegularSchedule(n, d, seed=n * d)
        graphs = [schedule.snapshot_at(t) for t in range(1, 51)]
        worst = harness._worst_lambda(oracle.transition_matrices(graphs))
        assert worst == max(spectral_summary(g).lambda2_abs for g in graphs)


class TestEvolve:
    def test_uniform_stationary(self):
        sched = RandomRegularSchedule(12, 3, seed=8)
        p = evolve(uniform(12), sched, 1, 25)
        assert np.abs(p - 1 / 12).max() < 1e-12

    def test_k4_one_step(self, k4):
        p = evolve(point_mass(4, 0), k4, 1, 1)
        assert np.allclose(p, [0, 1 / 3, 1 / 3, 1 / 3])

    def test_k4_two_steps(self, k4):
        p = evolve(point_mass(4, 0), k4, 1, 2)
        assert np.allclose(p, [1 / 3, 2 / 9, 2 / 9, 2 / 9])

    def test_matches_matrix_power(self, petersen):
        P = transition_matrix(petersen.snapshot_at(1))
        expect = np.linalg.matrix_power(P, 7)[3]
        assert np.allclose(evolve(point_mass(10, 3), petersen, 1, 7), expect)

    def test_rejects_bad_distribution(self, k4):
        with pytest.raises(ValueError):
            evolve(np.array([0.5, 0.2, 0.2, 0.2]), k4, 1, 1)


def _explicit_matrix(g):
    """A(G) entry by entry: 1/deg(u) on every edge (u, v)."""
    A = np.zeros((g.n, g.n))
    for u, row in enumerate(g.nbr.tolist()):
        for v in row:
            A[u, v] = 1.0 / len(row)
    return A


# Graphs on 8 nodes, one list per degree: a periodic schedule's snapshots
# share one degree, so it draws them from one list.
_POOL8 = [
    [named_graph("C8")],
    [random_regular_graph(8, 3, random.Random(1)), random_regular_graph(8, 3, random.Random(3))],
    [random_regular_graph(8, 4, random.Random(2)), random_regular_graph(8, 4, random.Random(4))],
    [named_graph("K8")],
]

_schedules8 = st.one_of(
    st.sampled_from(_POOL8).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    .map(PeriodicSchedule),
    st.integers(0, 2**16).map(lambda seed: parse_schedule_spec("rr:n=8,d=3", seed=seed)),
)


class TestWalkLaws:
    @settings(max_examples=80, deadline=None)
    @given(
        _schedules8,
        st.integers(0, 8),
        st.one_of(st.none(), st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8)),
    )
    def test_matches_per_step_product(self, schedule, steps, weights):
        p0 = np.eye(8) if weights is None else np.array(weights) / sum(weights)
        laws = list(islice(walk_laws(p0, schedule), steps + 1))
        expect = p0
        assert np.array_equal(laws[0], expect)
        for t in range(1, steps + 1):
            expect = expect @ _explicit_matrix(schedule.snapshot_at(t))
            assert np.array_equal(laws[t], expect)
        if weights is not None:
            assert np.array_equal(laws[steps], evolve(p0, schedule, 1, steps))

    def test_builds_a_matrix_only_when_its_law_is_asked_for(self, monkeypatch, c9):
        built = []
        real = oracle.transition_matrix
        monkeypatch.setattr(oracle, "transition_matrix", lambda g: built.append(g) or real(g))
        laws = walk_laws(point_mass(9, 0), c9)
        assert built == []
        next(laws)
        assert built == []
        next(laws), next(laws)
        assert len(built) == 2


# The product loops mixing_time_oracle, segment_matrix and static_mixing_time
# ran before they read their laws from walk_laws; kept as references.

def _loop_mixing_time(schedule, source, eps, cap):
    p = point_mass(schedule.n, source)
    t = 0
    while l2_to_uniform(p) >= eps:
        p = p @ transition_matrix(schedule.snapshot_at(t + 1))
        t += 1
        if t > cap:
            raise MixingCapError("cap")
    return t


def _loop_segment_matrix(schedule, lambda_walk):
    n = schedule.n
    prod = np.eye(n)
    total = np.zeros((n, n))
    for step in range(1, 2 * lambda_walk):
        prod = prod @ transition_matrix(schedule.snapshot_at(step))
        if step >= lambda_walk:
            total += prod
    return total / lambda_walk


def _loop_static_mixing_time(g, eps):
    P = transition_matrix(g)
    M = np.eye(g.n)
    cap = oracle.mixing_cap(g.n)
    pending = set(range(g.n))
    t = 0
    while True:
        dists = np.linalg.norm(M - 1.0 / g.n, axis=1)
        pending -= {x for x in pending if dists[x] < eps}
        if not pending:
            return t
        if t >= cap:
            raise MixingCapError("cap")
        M = M @ P
        t += 1


_INSTANCES = [
    "static:K4", "static:C5", "static:C9", "static:petersen", "srr:n=16,d=3",
    "rr:n=8,d=3", "rr:n=16,d=4", "perm:base=C9",
]


class TestOnWalkLaws:
    """mixing_time_oracle, segment_matrix and static_mixing_time equal their own
    product loops bit for bit."""

    @pytest.mark.parametrize("spec", _INSTANCES)
    def test_mixing_time_equals_loop(self, spec):
        schedule = parse_schedule_spec(spec, seed=5)
        for eps in (MIX_EPS, epsilon_prime(schedule.n), 1.0 / schedule.n):
            for source in (0, schedule.n - 1):
                expect = _loop_mixing_time(schedule, source, eps, 10_000)
                assert mixing_time_oracle(schedule, source, eps) == expect

    @pytest.mark.parametrize("spec", _INSTANCES)
    def test_segment_matrix_equals_loop(self, spec):
        schedule = parse_schedule_spec(spec, seed=5)
        for lam in range(1, 7):
            assert np.array_equal(segment_matrix(schedule, lam), _loop_segment_matrix(schedule, lam))

    @pytest.mark.parametrize("name", ["K4", "C9", "petersen"])
    def test_static_mixing_time_equals_loop(self, name):
        g = named_graph(name)
        for eps in (MIX_EPS, 1.0 / g.n):
            assert static_mixing_time(g, eps) == _loop_static_mixing_time(g, eps)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 32), st.integers(3, 5), st.integers(0, 2**32 - 1))
    def test_static_mixing_time_equals_loop_random_regular(self, n, d, seed):
        g = random_regular_graph(n - n * d % 2, d, random.Random(seed))
        for eps in (MIX_EPS, 1.0 / g.n):
            assert static_mixing_time(g, eps) == _loop_static_mixing_time(g, eps)

    def test_static_mixing_time_bipartite_hits_the_same_cap(self):
        c6 = named_graph("C6")
        with pytest.raises(MixingCapError):
            _loop_static_mixing_time(c6, MIX_EPS)
        with pytest.raises(MixingCapError, match=f"cap {oracle.mixing_cap(6)}$"):
            static_mixing_time(c6)

    @pytest.mark.parametrize("spec", ["static:C9", "rr:n=8,d=3", "perm:base=C9"])
    def test_mixing_cap_boundary(self, spec, monkeypatch):
        schedule = parse_schedule_spec(spec, seed=5)
        T = mixing_time_oracle(schedule, 0, MIX_EPS)
        assert T >= 2
        monkeypatch.setattr(oracle, "mixing_cap", lambda n: T)
        assert mixing_time_oracle(schedule, 0, MIX_EPS) == T
        monkeypatch.setattr(oracle, "mixing_cap", lambda n: T - 1)
        with pytest.raises(MixingCapError, match=f"within {T - 1} steps$"):
            mixing_time_oracle(schedule, 0, MIX_EPS)


class TestNorms:
    def test_uniform_zero(self):
        assert l2_to_uniform(uniform(7)) == 0
        assert tv_distance(uniform(7), uniform(7)) == 0

    def test_point_mass_n4(self):
        assert l2_to_uniform(point_mass(4, 0)) == pytest.approx(math.sqrt(3) / 2)

    def test_one_step_value(self):
        assert l2_to_uniform(np.array([0, 1 / 3, 1 / 3, 1 / 3])) == pytest.approx(0.2886751, abs=1e-6)

    def test_tv_is_half_l1(self):
        p = np.array([0.5, 0.5, 0, 0])
        q = np.array([0.25, 0.25, 0.25, 0.25])
        assert tv_distance(p, q) == pytest.approx(0.5)


class TestSpectral:
    def test_k4(self, k4):
        s = spectral_summary(k4.snapshot_at(1))
        assert s.lambda2_abs == pytest.approx(1 / 3, abs=1e-9)
        assert s.lambda2_signed == pytest.approx(-1 / 3, abs=1e-9)
        assert s.gap == pytest.approx(2 / 3, abs=1e-9)

    def test_c5_circulant(self, c5):
        # Walk eigenvalues of C_5 are cos(2*pi*k/5); largest magnitude below
        # 1 is |cos(4*pi/5)| = cos(pi/5).
        s = spectral_summary(c5.snapshot_at(1))
        assert s.lambda2_abs == pytest.approx(math.cos(math.pi / 5), abs=1e-9)
        assert s.lambda2_signed == pytest.approx(math.cos(2 * math.pi / 5), abs=1e-9)

    def test_c5_eigen_bound(self, c5):
        # lambda_i <= 1 - 1/(d*D*n) = 1 - 1/20 for C_5.
        s = spectral_summary(c5.snapshot_at(1))
        assert s.lambda2_signed <= 0.95 + 1e-12


class TestMixingTimes:
    def test_k4_values(self, k4):
        assert mixing_time_oracle(k4, 0, MIX_EPS) == 2
        assert mixing_time_oracle(k4, 0, 1.0) == 0

    def test_c9_matches_matrix_power_search(self, c9):
        P = transition_matrix(c9.snapshot_at(1))
        p = point_mass(9, 0)
        t = 0
        while np.linalg.norm(p - 1 / 9) >= MIX_EPS:
            p = p @ P
            t += 1
        assert mixing_time_oracle(c9, 0, MIX_EPS) == t

    def test_static_bound_is_single_graph(self, k4):
        assert dynamic_mixing_bound(k4, 10) == 2

    def test_periodic_bound(self):
        # Two 3-regular graphs on 10 nodes: the bound is the max of the
        # per-graph worst-source mixing times.
        sched = PeriodicSchedule([named_graph("K6"), named_graph("K6")])
        assert dynamic_mixing_bound(sched, 6) == static_mixing_time(named_graph("K6"))
        petersen, prism = named_graph("petersen"), prism5()
        mixed = PeriodicSchedule([petersen, prism])
        expect = max(static_mixing_time(petersen), static_mixing_time(prism))
        assert static_mixing_time(petersen) != static_mixing_time(prism)
        assert dynamic_mixing_bound(mixed, 6) == expect

    def test_each_distinct_snapshot_is_searched_once(self, tmp_path):
        # Rounds 1-12 of this period-3 schedule hold three snapshot objects
        # but two distinct graphs: Petersen is read from the file twice.
        write_snapshots(tmp_path / "two.jsonl", [named_graph("petersen"), prism5(), named_graph("petersen")])
        sched = parse_schedule_spec(f"periodic:{tmp_path / 'two.jsonl'}")
        assert sched.snapshot_at(1) is not sched.snapshot_at(3)
        with mock.patch.object(oracle, "static_mixing_time", wraps=oracle.static_mixing_time) as search:
            bound = dynamic_mixing_bound(sched, 12)
        assert search.call_count == 2
        assert bound == max(static_mixing_time(named_graph("petersen")), static_mixing_time(prism5()))

    def test_worstcase_cap(self):
        # lambda2 <= 1 - 1/n^2 caps regular mixing at about 1.7 * n^2.
        for seed in (1, 2, 3):
            sched = RandomRegularSchedule(10, 3, seed=seed)
            assert dynamic_mixing_bound(sched, 4) <= math.ceil(1.7 * 100)

    def test_bipartite_never_mixes(self):
        sched = StaticSchedule(named_graph("C4"))
        with pytest.raises(MixingCapError):
            mixing_time_oracle(sched, 0, MIX_EPS)


class TestSegmentMatrix:
    def test_lambda_one_is_first_snapshot(self, c5):
        assert np.allclose(segment_matrix(c5, 1), transition_matrix(c5.snapshot_at(1)))

    def test_static_closed_form(self, k4):
        P = transition_matrix(k4.snapshot_at(1))
        expect = (np.linalg.matrix_power(P, 2) + np.linalg.matrix_power(P, 3)) / 2
        assert np.allclose(segment_matrix(k4, 2), expect)

    def test_periodic_product_average(self):
        # Direct product-average oracle, written independently of the
        # implementation's accumulation order.
        sched = PeriodicSchedule([named_graph("petersen"), prism5()])
        mats = [transition_matrix(sched.snapshot_at(t)) for t in range(1, 6)]
        lam = 3
        total = np.zeros((10, 10))
        for r in range(lam):
            prod = np.eye(10)
            for t in range(lam + r):
                prod = prod @ mats[t]
            total += prod
        assert np.allclose(segment_matrix(sched, lam), total / lam)

    def test_doubly_stochastic(self, petersen):
        M = segment_matrix(petersen, 4)
        assert np.allclose(M.sum(axis=0), 1) and np.allclose(M.sum(axis=1), 1)
