"""Exact small-scale ground truth for walk distributions and spectra.

Dense numpy only; intended as a test fixture for n up to a few hundred, not
as a scalable component.  All norms in mixing definitions are Euclidean;
total variation is provided separately for the estimator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import DynwalkError, GraphSchedule, GraphSnapshot, StaticSchedule

__all__ = [
    "MIX_EPS",
    "transition_matrix",
    "lazy_transition_matrix",
    "uniform",
    "point_mass",
    "evolve",
    "l2_to_uniform",
    "tv_distance",
    "SpectralSummary",
    "spectral_summary",
    "mixing_cap",
    "mixing_time_oracle",
    "static_mixing_time",
    "dynamic_mixing_bound",
    "segment_matrix",
    "MixingCapError",
]

MIX_EPS = 1.0 / (2.0 * math.e)

N_CAP = 512


class MixingCapError(DynwalkError):
    """Mixing search exceeded its cap; the chain is not converging."""


def _check_size(n: int) -> None:
    if n > N_CAP:
        raise ValueError(f"oracle is dense-only, n={n} exceeds cap {N_CAP}")


def transition_matrix(g: GraphSnapshot) -> np.ndarray:
    """Simple-random-walk matrix: entry (u,v) is 1/deg(u) iff {u,v} is an edge."""
    _check_size(g.n)
    P = np.zeros((g.n, g.n))
    for u in range(g.n):
        deg = g.degree(u)
        if deg == 0:
            raise ValueError(f"node {u} is isolated")
        for v in g.adj[u]:
            P[u, v] = 1.0 / deg
    return P


def lazy_transition_matrix(g: GraphSnapshot, d_max: int) -> np.ndarray:
    """Lazy walk for non-regular graphs: stay with prob 1 - deg(u)/(d_max+1).

    Every edge is crossed with probability 1/(d_max+1), which makes the
    matrix doubly stochastic and the stationary distribution uniform.
    """
    _check_size(g.n)
    if any(g.degree(u) > d_max for u in range(g.n)):
        raise ValueError(f"d_max={d_max} below an observed degree")
    P = np.zeros((g.n, g.n))
    p_edge = 1.0 / (d_max + 1)
    for u in range(g.n):
        for v in g.adj[u]:
            P[u, v] = p_edge
        P[u, u] = 1.0 - g.degree(u) * p_edge
    return P


def uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def point_mass(n: int, x: int) -> np.ndarray:
    p = np.zeros(n)
    p[x] = 1.0
    return p


def _check_distribution(p: np.ndarray) -> None:
    if p.ndim != 1 or np.any(p < -1e-12) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("not a probability vector")


def evolve(
    p0: np.ndarray,
    schedule: GraphSchedule,
    start: int,
    steps: int,
    matrix_fn=transition_matrix,
) -> np.ndarray:
    """Push p0 through `steps` rounds of the schedule starting at `start`."""
    _check_distribution(p0)
    p = np.asarray(p0, dtype=float)
    for i in range(steps):
        p = p @ matrix_fn(schedule.snapshot_at(start + i))
    return p


def l2_to_uniform(p: np.ndarray) -> float:
    n = len(p)
    return float(np.linalg.norm(np.asarray(p) - 1.0 / n))


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


@dataclass(frozen=True)
class SpectralSummary:
    lambda2_signed: float
    lambda2_abs: float
    gap: float


def spectral_summary(g: GraphSnapshot | np.ndarray) -> SpectralSummary:
    """Second eigenvalue (signed and in absolute value) of a symmetric walk matrix.

    Accepts a regular snapshot or an explicit symmetric matrix (the lazy
    adapter's, for non-regular graphs).
    """
    if isinstance(g, GraphSnapshot):
        degs = {g.degree(v) for v in range(g.n)}
        if len(degs) != 1:
            raise ValueError("snapshot is not regular; pass the lazy matrix instead")
        P = transition_matrix(g)
    else:
        P = np.asarray(g, dtype=float)
        if not np.allclose(P, P.T, atol=1e-12):
            raise ValueError("matrix must be symmetric")
    eigs = np.linalg.eigvalsh(P)  # ascending
    lambda2_signed = float(eigs[-2])
    lambda2_abs = float(max(eigs[-2], -eigs[0]))
    return SpectralSummary(lambda2_signed, lambda2_abs, 1.0 - lambda2_abs)


def mixing_cap(n: int) -> int:
    """Longest walk a mixing-time search on n nodes tries: ceil(10 n^2 max(1, ln n))."""
    return math.ceil(10 * n * n * max(1.0, math.log(n)))


def mixing_time_oracle(
    schedule: GraphSchedule, source: int, eps: float, cap: int | None = None
) -> int:
    """Minimal t with ||pi_x(t) - uniform||_2 < eps; t = 0 counts.

    Valid as a forward search because the distance to uniform never
    increases on regular schedules.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = schedule.n
    cap = cap if cap is not None else mixing_cap(n)
    p = point_mass(n, source)
    t = 0
    while l2_to_uniform(p) >= eps:
        p = p @ transition_matrix(schedule.snapshot_at(t + 1))
        t += 1
        if t > cap:
            raise MixingCapError(f"no mixing below eps={eps} within {cap} steps")
    return t


def static_mixing_time(g: GraphSnapshot, eps: float = MIX_EPS) -> int:
    """Worst-source mixing time of one static graph at threshold eps."""
    n = g.n
    P = transition_matrix(g)
    M = np.eye(n)  # row x of M is pi_x(t)
    cap = mixing_cap(n)
    u = 1.0 / n
    pending = set(range(n))
    t = 0
    while True:
        dists = np.linalg.norm(M - u, axis=1)
        pending -= {x for x in pending if dists[x] < eps}
        if not pending:
            return t
        if t >= cap:
            raise MixingCapError(f"static mixing search exceeded cap {cap}")
        M = M @ P
        t += 1


def dynamic_mixing_bound(schedule: GraphSchedule, horizon: int) -> int:
    """Max over distinct snapshots in [1, horizon] of the static mixing time."""
    if isinstance(schedule, StaticSchedule):
        horizon = 1
    seen: set[frozenset] = set()
    best = 0
    for t in range(1, horizon + 1):
        g = schedule.snapshot_at(t)
        if g.edges in seen:
            continue
        seen.add(g.edges)
        best = max(best, static_mixing_time(g))
    return best


def segment_matrix(schedule: GraphSchedule, lambda_walk: int) -> np.ndarray:
    """One-stitch transition: average of the products over lengths lambda..2*lambda-1.

    M = (1/lambda) * sum_{r=0}^{lambda-1} A(G_1) ... A(G_{lambda+r}); this is
    the exact law of a Phase-1 coupon endpoint given its origin.
    """
    if lambda_walk < 1:
        raise ValueError("lambda_walk must be >= 1")
    n = schedule.n
    _check_size(n)
    prod = np.eye(n)
    total = np.zeros((n, n))
    for step in range(1, 2 * lambda_walk):
        prod = prod @ transition_matrix(schedule.snapshot_at(step))
        if step >= lambda_walk:
            total += prod
    return total / lambda_walk
