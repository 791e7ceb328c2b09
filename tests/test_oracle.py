import math
import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynwalk import oracle
from dynwalk.graphs import (
    PeriodicSchedule,
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

    def test_star_rows(self):
        P = transition_matrix(named_graph("star4"))
        assert np.allclose(P[0, 1:], 0.25)
        assert all(P[i, 0] == 1.0 for i in range(1, 5))

    def test_doubly_stochastic_when_regular(self, petersen):
        P = transition_matrix(petersen.snapshot_at(1))
        assert np.allclose(P.sum(axis=0), 1) and np.allclose(P.sum(axis=1), 1)


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
    for u in range(g.n):
        for v in g.adj[u]:
            A[u, v] = 1.0 / len(g.adj[u])
    return A


_POOL8 = [
    named_graph("K8"),
    named_graph("C8"),
    random_regular_graph(8, 3, random.Random(1)),
    random_regular_graph(8, 4, random.Random(2)),
]

_schedules8 = st.one_of(
    st.lists(st.sampled_from(_POOL8), min_size=1, max_size=4).map(PeriodicSchedule),
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


# The product loops mixing_time_oracle and segment_matrix ran before they
# read their laws from walk_laws; kept as references.

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


_INSTANCES = [
    "static:K4", "static:C5", "static:C9", "static:petersen", "srr:n=16,d=3",
    "rr:n=8,d=3", "rr:n=16,d=4", "perm:base=C9",
]


class TestOnWalkLaws:
    """mixing_time_oracle and segment_matrix equal their own product loops bit for bit."""

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

    @pytest.mark.parametrize("spec", ["static:C9", "rr:n=8,d=3", "perm:base=C9"])
    def test_mixing_cap_boundary(self, spec):
        schedule = parse_schedule_spec(spec, seed=5)
        T = mixing_time_oracle(schedule, 0, MIX_EPS)
        assert T >= 2
        assert mixing_time_oracle(schedule, 0, MIX_EPS, cap=T) == T
        with pytest.raises(MixingCapError):
            mixing_time_oracle(schedule, 0, MIX_EPS, cap=T - 1)


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

    def test_non_regular_rejected(self):
        with pytest.raises(ValueError):
            spectral_summary(named_graph("star4"))


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
        # Same-n stand-in for the complete/cycle pair: the bound is the max
        # of the per-graph worst-source mixing times.
        k6, c6odd = named_graph("K6"), named_graph("C7")
        sched = PeriodicSchedule([named_graph("K6"), named_graph("K6")])
        assert dynamic_mixing_bound(sched, 6) == static_mixing_time(named_graph("K6"))
        mixed = PeriodicSchedule([named_graph("C9"), named_graph("K9")])
        expect = max(static_mixing_time(named_graph("C9")), static_mixing_time(named_graph("K9")))
        assert dynamic_mixing_bound(mixed, 6) == expect

    def test_worstcase_cap(self):
        # lambda2 <= 1 - 1/n^2 caps regular mixing at about 1.7 * n^2.
        for seed in (1, 2, 3):
            sched = RandomRegularSchedule(10, 3, seed=seed)
            assert dynamic_mixing_bound(sched, 4) <= math.ceil(1.7 * 100)

    def test_bipartite_never_mixes(self):
        sched = StaticSchedule(named_graph("C4"))
        with pytest.raises(MixingCapError):
            mixing_time_oracle(sched, 0, MIX_EPS, cap=500)


class TestSegmentMatrix:
    def test_lambda_one_is_first_snapshot(self, c5):
        assert np.allclose(segment_matrix(c5, 1), transition_matrix(c5.snapshot_at(1)))

    def test_static_closed_form(self, k4):
        P = transition_matrix(k4.snapshot_at(1))
        expect = (np.linalg.matrix_power(P, 2) + np.linalg.matrix_power(P, 3)) / 2
        assert np.allclose(segment_matrix(k4, 2), expect)

    def test_periodic_product_average(self, k4, c5):
        # Direct product-average oracle, written independently of the
        # implementation's accumulation order.
        g4, g5 = k4.snapshot_at(1), c5.snapshot_at(1)
        sched = PeriodicSchedule([named_graph("K6"), named_graph("C6")])
        mats = [transition_matrix(sched.snapshot_at(t)) for t in range(1, 6)]
        lam = 3
        total = np.zeros((6, 6))
        for r in range(lam):
            prod = np.eye(6)
            for t in range(lam + r):
                prod = prod @ mats[t]
            total += prod
        assert np.allclose(segment_matrix(sched, lam), total / lam)

    def test_doubly_stochastic(self, petersen):
        M = segment_matrix(petersen, 4)
        assert np.allclose(M.sum(axis=0), 1) and np.allclose(M.sum(axis=1), 1)
