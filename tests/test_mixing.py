import math

import numpy as np
import pytest

from conftest import empirical_tv, log_totals, make_engine
from dynwalk import mixing
from dynwalk.engine import ProtocolError
from dynwalk.graphs import StaticSchedule, named_graph, parse_schedule_spec
from dynwalk.mixing import (
    DEFAULT_EPSILON,
    EstimationError,
    collision_statistic,
    epsilon_prime,
    estimate_mixing_time,
    fail_band,
    min_sample_count,
    pass_band,
    sample_count,
    sample_endpoints,
    spectral_gap_bounds,
    uniformity_test,
)
from dynwalk.oracle import MIX_EPS, l2_to_uniform, mixing_time_oracle, point_mass, spectral_summary, evolve
from dynwalk.walks import concurrent_naive_walks


class TestConstants:
    def test_fail_band_is_half_e(self):
        assert fail_band(DEFAULT_EPSILON) == pytest.approx(1 / (2 * math.e))

    def test_epsilon_prime_value(self):
        assert epsilon_prime(16) == pytest.approx(1 / (6912 * math.e * 4 * math.log(16)))

    def test_pass_band_formula(self):
        eps = DEFAULT_EPSILON
        assert pass_band(16, eps) == pytest.approx(eps**3 / (4 * 4 * math.log(16)))

    def test_sample_count_shape(self):
        # K follows c * sqrt(n) * ln(n) once above the calibrated floor.
        assert sample_count(256) == math.ceil(80 * 16 * math.log(256))
        assert sample_count(16) == min_sample_count(16)  # floor regime
        assert sample_count(64) >= min_sample_count(64)


def draw(rng, p, K):
    return rng.choice(len(p), size=K, p=p)


def perturbed_uniform(n, l1):
    # Move l1/2 of mass onto node 0, taken evenly from the others.
    p = np.full(n, 1.0 / n)
    p[0] += l1 / 2
    p[1:] -= l1 / 2 / (n - 1)
    assert np.all(p >= 0)
    return p


def even_spread(n, l1):
    # Half the nodes up, half down; the L2-minimal way to be l1 away.
    p = np.full(n, 1.0 / n)
    delta = l1 / n
    p[: n // 2] += delta
    p[n // 2:] -= delta
    assert np.all(p >= 0)
    return p


class TestCollisionStatistic:
    def test_unbiased_on_uniform(self):
        rng = np.random.default_rng(5)
        n, K = 16, 2000
        stats = [collision_statistic(draw(rng, np.full(n, 1 / n), K), n) for _ in range(300)]
        assert abs(float(np.mean(stats))) < 3e-4

    def test_tracks_true_distance(self):
        rng = np.random.default_rng(6)
        n, K = 16, 4000
        p = perturbed_uniform(n, 0.3)
        true_sq = float(((p - 1 / n) ** 2).sum())
        stats = [collision_statistic(draw(rng, p, K), n) for _ in range(200)]
        assert np.mean(stats) == pytest.approx(true_sq, rel=0.1)


class TestCalibration:
    """The recorded calibration suite: members straddling the contract bands.

    PASS band: L1 <= eps^3/(4*sqrt(n)*ln n).  FAIL band: L1 >= 6*eps,
    including the evenly-spread member that minimizes the L2 signal.
    Error rate per band must stay below 5%.
    """

    @pytest.mark.parametrize("n", [16, 64])
    def test_pass_band(self, n):
        rng = np.random.default_rng(100 + n)
        K = sample_count(n)
        members = [np.full(n, 1.0 / n), perturbed_uniform(n, pass_band(n))]
        for p in members:
            passes = sum(
                uniformity_test(draw(rng, p, K), n).passed for _ in range(200)
            )
            assert passes >= 190

    @pytest.mark.parametrize("n", [16, 64])
    def test_fail_band(self, n):
        rng = np.random.default_rng(200 + n)
        K = sample_count(n)
        point = np.zeros(n)
        point[0] = 1.0  # L1 = 2(1-1/n) >= 6*eps
        members = [point, even_spread(n, fail_band())]
        for p in members:
            fails = sum(
                not uniformity_test(draw(rng, p, K), n).passed for _ in range(200)
            )
            assert fails >= 190

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            uniformity_test(np.zeros(50, dtype=int), 16)

    def test_verdict_records_thresholds(self):
        rng = np.random.default_rng(3)
        v = uniformity_test(draw(rng, np.full(16, 1 / 16), sample_count(16)), 16)
        assert v.threshold == pytest.approx(18 * DEFAULT_EPSILON**2 / 16)
        assert v.samples == sample_count(16)
        assert v.label in ("PASS", "FAIL")


class TestSampleEndpoints:
    def test_k4_length_one(self, k4):
        eng = make_engine(k4, seed=4, phi=1)
        samples = sample_endpoints(eng, 0, 1, 30000)
        assert empirical_tv(samples, [0, 1 / 3, 1 / 3, 1 / 3]) <= 0.02

    def test_k4_length_ten(self, k4):
        eng = make_engine(k4, seed=5, phi=1)
        p10 = evolve(point_mass(4, 0), k4, 1, 10)
        samples = sample_endpoints(eng, 0, 10, 30000)
        assert empirical_tv(samples, p10) <= 0.02


    def test_equals_concurrent_naive_destinations(self, rr16):
        # K * length * phi >= length, so lambda >= length and the walks run naively.
        eng = make_engine(rr16, seed=8, phi=4)
        samples = sample_endpoints(eng, 3, 12, 500)
        ref = make_engine(rr16, seed=8, phi=4)
        batch = concurrent_naive_walks(ref, [3] * 500, 12, record_path=False)
        assert samples.tolist() == batch.destinations.tolist()
        assert log_totals(eng.log) == log_totals(ref.log) and eng.round == ref.round == 12


class TestEstimator:
    def test_k4_bracket(self, k4):
        lo = mixing_time_oracle(k4, 0, MIX_EPS)
        hi = mixing_time_oracle(k4, 0, epsilon_prime(4))
        assert lo == 2
        eng = make_engine(k4, seed=8, phi=1)
        est = estimate_mixing_time(eng, 0, 1)
        assert lo <= est.tau_tilde <= hi
        assert est.bracket[1] == est.tau_tilde
        assert est.bracket[1] - est.bracket[0] == 1 or est.bracket == (0, 1)

    def test_c9_bracket_default_K(self, c9):
        lo = mixing_time_oracle(c9, 0, MIX_EPS)
        hi = mixing_time_oracle(c9, 0, epsilon_prime(9))
        eng = make_engine(c9, seed=9, phi=4)
        est = estimate_mixing_time(eng, 0, 4)
        assert lo <= est.tau_tilde <= hi

    def test_probes_recorded_and_monotone_oracle(self, c9):
        eng = make_engine(c9, seed=10, phi=4)
        est = estimate_mixing_time(eng, 0, 4)
        lengths = [l for l, _, _ in est.probes]
        assert lengths[0] == 1
        # oracle distances at the probe lengths are non-increasing in length
        dists = {
            l: l2_to_uniform(evolve(point_mass(9, 0), c9, 1, l)) for l in sorted(set(lengths))
        }
        ordered = [dists[l] for l in sorted(dists)]
        assert all(a >= b - 1e-12 for a, b in zip(ordered, ordered[1:]))

    def test_report_schema(self, c9):
        eng = make_engine(c9, seed=11, phi=4)
        est = estimate_mixing_time(eng, 0, 4)
        report = est.to_report(0, oracle_bracket=(1, 50))
        assert set(report) == {
            "source", "K", "epsilon", "epsilon_prime", "probes",
            "tau_tilde", "bracket", "total_rounds", "oracle_bracket",
        }

    def test_phi_must_match_engine(self, c9):
        # The probe walks' stitch floods run for the engine's phi, never for the argument.
        eng = make_engine(c9, seed=9, phi=4)
        with pytest.raises(ProtocolError, match="phi=2"):
            estimate_mixing_time(eng, 0, 2)
        assert eng.round == 0

    def test_bipartite_hits_cap(self, monkeypatch):
        # C4 never mixes; every probe fails, so the doubling search must hit
        # its cap.  A cap of 40 stops it after the probe of length 32.
        monkeypatch.setattr(mixing, "mixing_cap", lambda n: 40)
        sched = StaticSchedule(named_graph("C4"))
        eng = make_engine(sched, seed=1, phi=2)
        with pytest.raises(EstimationError, match="^no PASS up to cap 40$"):
            estimate_mixing_time(eng, 0, 2)
        assert eng.round == 1 + 2 + 4 + 8 + 16 + 32


class TestSpectralGapBounds:
    def test_tau_one_clamps(self):
        (lo, hi), _ = spectral_gap_bounds(1, 16)
        assert (lo, hi) == (1.0, 1.0)

    def test_contains_oracle_gap(self):
        sched = parse_schedule_spec("srr:n=32,d=8", seed=3)
        gap = spectral_summary(sched.snapshot_at(1)).gap
        eng = make_engine(sched, seed=21, phi=2)
        est = estimate_mixing_time(eng, 0, 2)
        (lo, hi), (clo, chi) = spectral_gap_bounds(est.tau_tilde, 32)
        assert lo <= gap <= hi
        assert clo == lo and chi == pytest.approx(min(1.0, math.sqrt(hi)))

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            spectral_gap_bounds(0, 16)
