"""Decentralized mixing-time estimation.

A source draws K endpoint samples at doubling walk lengths and tests the
sample for closeness to uniform; monotonicity of the walk's distance to
uniform then admits a binary search between the last FAIL and the first
PASS.  The closeness tester keeps the PASS/FAIL contract of the
bucketing-based test it replaces: PASS w.h.p. when the L1 distance is at
most eps^3/(4*sqrt(n)*ln n), FAIL w.h.p. when it is at least 6*eps.  Since
the reference distribution here is always uniform (regular graphs), the
bucketing degenerates and a collision-count statistic is used instead, with
thresholds calibrated against both contract bands (see tests).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import CongestEngine, ProtocolError
from .graphs import DynwalkError
from .oracle import mixing_cap
from .walks import WalkParams, many_random_walks

__all__ = [
    "DEFAULT_EPSILON",
    "epsilon_prime",
    "sample_count",
    "min_sample_count",
    "UniformityVerdict",
    "uniformity_test",
    "collision_statistic",
    "MixingEstimate",
    "estimate_mixing_time",
    "sample_endpoints",
    "spectral_gap_bounds",
    "EstimationError",
]

DEFAULT_EPSILON = 1.0 / (12.0 * math.e)

# Calibration of the collision tester (frozen by the calibration suite in
# tests): verdict threshold sits halfway across the squared-L2 gap between
# the contract bands, and the sample count keeps both band edges at least
# _CAL_Z sigmas from the threshold.
_CAL_Z = 2.05
_CAL_C_K = 80.0


class EstimationError(DynwalkError):
    """The doubling search hit its cap without a PASS."""


def epsilon_prime(n: int) -> float:
    """Upper-bracket threshold eps' = 1/(6912*e*sqrt(n)*ln n)."""
    return 1.0 / (6912.0 * math.e * math.sqrt(n) * math.log(n))


def pass_band(n: int, epsilon: float = DEFAULT_EPSILON) -> float:
    """L1 radius inside which the tester must PASS: eps^3/(4*sqrt(n)*ln n)."""
    return epsilon**3 / (4.0 * math.sqrt(n) * math.log(n))


def fail_band(epsilon: float = DEFAULT_EPSILON) -> float:
    """L1 radius beyond which the tester must FAIL: 6*eps."""
    return 6.0 * epsilon


def min_sample_count(n: int, epsilon: float = DEFAULT_EPSILON) -> int:
    """Smallest K for which the collision statistic separates the bands.

    The FAIL band's hardest member spreads L1 = 6*eps evenly, giving squared
    L2 distance 36*eps^2/n, so the threshold at 18*eps^2/n must clear the
    statistic's noise by _CAL_Z sigmas.  Collision-count variance has two
    parts: disjoint sample pairs contribute ~2/(n*K^2), and pairs sharing a
    sample contribute ~4*(sum p^3 - (sum p^2)^2)/K, which for the
    evenly-spread member is 144*eps^2/(n^2*K).  Splitting the squared margin
    between the two terms gives K >= (z/(9*eps^2))*sqrt(n) and
    K >= (8/9)*z^2/eps^2.
    """
    pair_term = (_CAL_Z / (9.0 * epsilon**2)) * math.sqrt(n)
    triple_term = (8.0 / 9.0) * _CAL_Z**2 / epsilon**2
    return math.ceil(max(pair_term, triple_term))


def sample_count(n: int, epsilon: float = DEFAULT_EPSILON) -> int:
    """Default K = ceil(80 * sqrt(n) * ln n), at least the calibrated minimum.

    The minimum is epsilon-heavy and n-light, so it dominates at small n;
    the sqrt(n)*ln(n) shape takes over as n grows.
    """
    return max(
        min_sample_count(n, epsilon),
        math.ceil(_CAL_C_K * math.sqrt(n) * math.log(n)),
    )


def collision_statistic(samples: np.ndarray, n: int) -> float:
    """Unbiased estimate of ||p||_2^2 - 1/n from endpoint samples."""
    samples = np.asarray(samples)
    K = len(samples)
    if K < 2:
        raise ValueError("need at least 2 samples")
    counts = np.bincount(samples, minlength=n)
    collisions = float((counts * (counts - 1)).sum()) / 2.0
    return collisions / (K * (K - 1) / 2.0) - 1.0 / n


@dataclass(frozen=True)
class UniformityVerdict:
    passed: bool
    statistic: float  # estimated squared L2 distance to uniform
    threshold: float
    n: int
    epsilon: float
    samples: int

    @property
    def label(self) -> str:
        return "PASS" if self.passed else "FAIL"


def uniformity_test(
    samples: np.ndarray, n: int, epsilon: float = DEFAULT_EPSILON
) -> UniformityVerdict:
    """PASS iff the collision estimate of ||p - u||_2^2 is at most 18*eps^2/n.

    Honors the contract bands: inside the PASS band the true statistic is
    essentially zero, on the FAIL band it is at least 36*eps^2/n even for
    the evenly-spread worst case.  Verdicts between the bands are
    unconstrained.  Raises if the sample count is below the calibrated
    minimum for (n, eps).
    """
    K = len(samples)
    k_min = min_sample_count(n, epsilon)
    if K < k_min:
        raise ValueError(f"{K} samples below calibrated minimum {k_min} for n={n}")
    stat = collision_statistic(samples, n)
    threshold = 18.0 * epsilon**2 / n
    return UniformityVerdict(
        passed=stat <= threshold,
        statistic=stat,
        threshold=threshold,
        n=n,
        epsilon=epsilon,
        samples=K,
    )


def sample_endpoints(
    engine: CongestEngine, source: int, length: int, K: int
) -> np.ndarray:
    """K endpoint samples of length-`length` walks from `source`.

    The endpoints are the `destinations` array of one `many_random_walks`
    batch, lambda sized for K walks from the engine's phi; no per-walk record
    is built.  The array is read-only.
    """
    if length < 1 or K < 1:
        raise ValueError("length and K must be >= 1")
    params = WalkParams.for_many(length, engine.config.phi, K)
    return many_random_walks(engine, np.full(K, source), params, record_path=False).destinations


@dataclass
class MixingEstimate:
    tau_tilde: int
    bracket: tuple[int, int]  # (last FAIL length, first PASS length)
    K: int
    epsilon: float
    epsilon_prime: float
    probes: list[tuple[int, str, float]] = field(default_factory=list)
    total_rounds: int = 0

    def to_report(self, source: int, oracle_bracket: tuple[int, int] | None = None) -> dict:
        report = {
            "source": source,
            "K": self.K,
            "epsilon": self.epsilon,
            "epsilon_prime": self.epsilon_prime,
            "probes": [list(p) for p in self.probes],
            "tau_tilde": self.tau_tilde,
            "bracket": list(self.bracket),
            "total_rounds": self.total_rounds,
        }
        if oracle_bracket is not None:
            report["oracle_bracket"] = list(oracle_bracket)
        return report


def estimate_mixing_time(engine: CongestEngine, source: int, phi: int) -> MixingEstimate:
    """Double the probe length until the uniformity test passes, then binary
    search the bracketed interval for the first passing length, with
    K = `sample_count(n)` samples per probe at DEFAULT_EPSILON.  The probe
    walks' stitch floods run for the engine's phi, so `phi` must equal it."""
    if phi != engine.config.phi:
        raise ProtocolError(f"phi={phi} differs from the engine's phi={engine.config.phi}")
    n = engine.n
    K = sample_count(n)
    cap = mixing_cap(n)
    start_round = engine.round
    probes: list[tuple[int, str, float]] = []

    def probe(length: int) -> bool:
        samples = sample_endpoints(engine, source, length, K)
        verdict = uniformity_test(samples, n)
        probes.append((length, verdict.label, verdict.statistic))
        return verdict.passed

    length = 1
    last_fail = 0
    while not probe(length):
        last_fail = length
        length *= 2
        if length > cap:
            raise EstimationError(f"no PASS up to cap {cap}")
    lo, hi = last_fail, length
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return MixingEstimate(
        tau_tilde=hi,
        bracket=(lo, hi),
        K=K,
        epsilon=DEFAULT_EPSILON,
        epsilon_prime=epsilon_prime(n),
        probes=probes,
        total_rounds=engine.round - start_round,
    )


def spectral_gap_bounds(
    tau_tilde: int, n: int
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Intervals implied by 1/(1-lambda) <= tau <= ln(n)/(1-lambda).

    Gap interval [1/tau, ln(n)/tau] clamped to (0, 1]; conductance interval
    [gap_lo, sqrt(gap_hi)] with unit constants, shape-only.
    """
    if tau_tilde < 1:
        raise ValueError("tau_tilde must be >= 1")
    gap_lo = min(1.0, 1.0 / tau_tilde)
    gap_hi = min(1.0, math.log(n) / tau_tilde)
    gap_hi = max(gap_hi, gap_lo)
    cond_lo = gap_lo
    cond_hi = min(1.0, math.sqrt(gap_hi))
    return (gap_lo, gap_hi), (cond_lo, cond_hi)
