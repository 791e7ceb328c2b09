"""Exact small-scale ground truth for walk distributions and spectra.

Dense numpy only; intended as a test fixture for n up to a few hundred, not
as a scalable component.  All norms in mixing definitions are Euclidean;
total variation is provided separately for the estimator.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .graphs import DynwalkError, GraphSchedule, GraphSnapshot, StaticSchedule

__all__ = [
    "MIX_EPS",
    "transition_matrix",
    "transition_matrices",
    "uniform",
    "point_mass",
    "evolve",
    "walk_laws",
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


def transition_matrices(graphs: Sequence[GraphSnapshot]) -> np.ndarray:
    """The (T, n, n) stack of the snapshots' simple-random-walk matrices, in
    one scatter: entry (t, u, v) is 1/d iff {u,v} is an edge of graphs[t].
    The snapshots share n, at most N_CAP, and d; ValueError otherwise."""
    n, d = graphs[0].n, graphs[0].d
    _check_size(n)
    if any((g.n, g.d) != (n, d) for g in graphs):
        raise ValueError("stacked snapshots must share n and d")
    T = len(graphs)
    nbr = graphs[0].nbr if T == 1 else np.stack([g.nbr for g in graphs])
    P = np.zeros((T, n, n))
    P.reshape(T * n, n)[np.arange(T * n)[:, None], nbr.reshape(T * n, d)] = 1.0 / d  # row (t, u): 1/d at its d neighbors
    return P


def transition_matrix(g: GraphSnapshot) -> np.ndarray:
    """Simple-random-walk matrix: entry (u,v) is 1/d iff {u,v} is an edge."""
    return transition_matrices((g,))[0]


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


def walk_laws(p0: np.ndarray, schedule: GraphSchedule):
    """Yield p_0 = p0, then p_t = p_{t-1} @ A(G_t), one law per next(); a
    step's matrix is built only when its law is asked for. A matrix p0's rows
    evolve side by side."""
    p = np.asarray(p0, dtype=float)
    for t in count(1):
        yield p
        p = p @ transition_matrix(schedule.snapshot_at(t))


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


def spectral_summary(g: GraphSnapshot) -> SpectralSummary:
    """Second eigenvalue (signed and in absolute value) of a snapshot's walk
    matrix, which is symmetric."""
    eigs = np.linalg.eigvalsh(transition_matrix(g))  # ascending
    lambda2_signed = float(eigs[-2])
    lambda2_abs = float(max(eigs[-2], -eigs[0]))
    return SpectralSummary(lambda2_signed, lambda2_abs, 1.0 - lambda2_abs)


def mixing_cap(n: int) -> int:
    """Longest walk a mixing-time search on n nodes tries: ceil(10 n^2 max(1, ln n))."""
    return math.ceil(10 * n * n * max(1.0, math.log(n)))


def mixing_time_oracle(schedule: GraphSchedule, source: int, eps: float) -> int:
    """Minimal t with ||pi_x(t) - uniform||_2 < eps; t = 0 counts, and
    `mixing_cap(n)` steps are the most it tries.

    Valid as a forward search because the distance to uniform never
    increases on regular schedules.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    cap = mixing_cap(schedule.n)
    for t, p in enumerate(walk_laws(point_mass(schedule.n, source), schedule)):
        if l2_to_uniform(p) < eps:
            return t
        if t >= cap:
            raise MixingCapError(f"no mixing below eps={eps} within {cap} steps")


def static_mixing_time(g: GraphSnapshot, eps: float = MIX_EPS) -> int:
    """Worst-source mixing time of one static graph at threshold eps."""
    n = g.n
    _check_size(n)  # before np.eye(n)
    cap = mixing_cap(n)
    pending = set(range(n))
    for t, M in enumerate(walk_laws(np.eye(n), StaticSchedule(g))):  # row x of M is pi_x(t)
        dists = np.linalg.norm(M - 1.0 / n, axis=1)
        pending -= {x for x in pending if dists[x] < eps}
        if not pending:
            return t
        if t >= cap:
            raise MixingCapError(f"static mixing search exceeded cap {cap}")


def dynamic_mixing_bound(schedule: GraphSchedule, horizon: int) -> int:
    """Max over distinct snapshots in [1, horizon] of the static mixing time."""
    seen: set[GraphSnapshot] = set()
    best = 0
    for t in range(1, horizon + 1):
        g = schedule.snapshot_at(t)
        if g in seen:
            continue
        seen.add(g)
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
    laws = islice(walk_laws(np.eye(n), schedule), lambda_walk, 2 * lambda_walk)
    return sum(laws, np.zeros((n, n))) / lambda_walk
