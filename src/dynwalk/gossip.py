"""k-information-dissemination by random-walk seeding plus staged broadcast,
raced against the trivial sequential broadcaster.

The walk-based route places f copies of each token at (close to) uniform
random nodes via shared-phase random walks, then floods the tokens one at a
time for a fixed budget of ceil(2*n*ln(n)/f) rounds each.  The trivial route
floods each token until everyone has it, which per-round connectivity caps
at n-1 rounds per token.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .engine import CongestEngine, ProtocolError
from .walks import WalkParams, many_random_walks

__all__ = [
    "GossipParams",
    "GossipOutcome",
    "RaceReport",
    "resolve_gossip_params",
    "k_gossip_rw",
    "k_gossip_trivial",
    "k_gossip_race",
]


@dataclass(frozen=True)
class GossipParams:
    k: int
    f: int
    broadcast_rounds: int

    def __post_init__(self):
        if self.k < 1 or self.f < 1 or self.broadcast_rounds < 1:
            raise ValueError("k, f and broadcast_rounds must be >= 1")


def resolve_gossip_params(n: int, k: int, tau: int, phi: int) -> GossipParams:
    """f = ceil(n^(2/3) * (k/(tau*phi))^(1/3)), capped to [1, n];
    broadcast_rounds = ceil(2*n*ln(n)/f).  tau and phi must be >= 1."""
    if tau < 1 or phi < 1:
        raise ValueError(f"gossip needs tau >= 1 and phi >= 1, got tau={tau}, phi={phi}")
    f = max(1, min(n, math.ceil(n ** (2.0 / 3.0) * (k / (tau * phi)) ** (1.0 / 3.0))))
    return GossipParams(k=k, f=f, broadcast_rounds=math.ceil(2.0 * n * math.log(n) / f))


class _Holders(dict):
    """An assignment as `_normalize_assignment` returns it, and takes it back unchanged."""


def _normalize_assignment(assignment: Mapping[int, Sequence[int]], n: int) -> dict[int, list[int]]:
    if isinstance(assignment, _Holders):  # a race normalizes once, for both of its routes
        return assignment
    holders = {}
    for token, hs in assignment.items():
        hs = sorted(set(hs))
        if not hs:
            raise ValueError(f"token {token} has no initial holder")
        if hs[0] < 0 or hs[-1] >= n:
            raise ValueError(f"token {token} has holders outside [0,{n})")
        holders[token] = hs
    if len(holders) > n:
        raise ValueError("more tokens than nodes (k <= n required)")
    return _Holders(sorted(holders.items()))


@dataclass
class GossipOutcome:
    rounds: int
    coverage: np.ndarray  # bool, shape (n, k): node has token?
    complete: bool
    phase1_rounds: int
    # Walk route: token i's holders after the walk phase (its initial holders and
    # its f walks' destinations) as a sorted int64 array.  Trivial route: ().
    holders: tuple[np.ndarray, ...] = ()


def k_gossip_rw(
    engine: CongestEngine,
    assignment: Mapping[int, Sequence[int]],
    params: GossipParams,
    tau: int,
    phi: int,
) -> GossipOutcome:
    """Walk-seeded dissemination: f copies of each token ride tau-length
    walks to random holders, then tokens broadcast one at a time for a fixed
    budget.  Incomplete coverage is reported, not fatal: the guarantee is
    probabilistic.  The walks' stitch floods run for the engine's phi, so
    `phi` must equal it.
    """
    if phi != engine.config.phi:
        raise ProtocolError(f"phi={phi} differs from the engine's phi={engine.config.phi}")
    holders = _normalize_assignment(assignment, engine.n)
    k, f = len(holders), params.f
    start_round = engine.round
    # f copies per token, spread round-robin over that token's initial holders.
    sources = [hs[c % len(hs)] for hs in holders.values() for c in range(f)]
    results = many_random_walks(engine, sources, WalkParams.for_many(tau, phi, len(sources)), record_path=False)
    phase1_rounds = engine.round - start_round
    # Token i's holders: its initial ones and row i of the destinations, its f walks'.
    held = [sorted({*hs, *row}) for hs, row in zip(holders.values(), results.destinations.reshape(k, f).tolist())]
    bits = engine.enc.gossip_bits(k)
    informed = [engine.flood(bits, hs, params.broadcast_rounds, require_complete=False) for hs in held]
    coverage = np.array(informed).reshape(k, engine.n).T >= 0
    return GossipOutcome(
        rounds=engine.round - start_round,
        coverage=coverage,
        complete=bool(coverage.all()),
        phase1_rounds=phase1_rounds,
        holders=tuple(np.array(hs, dtype=np.int64) for hs in held),
    )


def k_gossip_trivial(
    engine: CongestEngine,
    assignment: Mapping[int, Sequence[int]],
) -> GossipOutcome:
    """Broadcast the k tokens sequentially until each covers all nodes.

    Always completes; token t costs its holders' temporal flooding time,
    at most n-1 rounds.
    """
    holders = _normalize_assignment(assignment, engine.n)
    start_round = engine.round
    bits = engine.enc.gossip_bits(len(holders))
    for hs in holders.values():
        engine.flood_until_complete(bits, hs)
    coverage = np.ones((engine.n, len(holders)), dtype=bool)
    return GossipOutcome(rounds=engine.round - start_round, coverage=coverage, complete=True, phase1_rounds=0)


@dataclass
class RaceReport:
    rounds_rw: int
    phase1_rounds: int  # the walk route's walk phase, as in its GossipOutcome
    rounds_trivial: int
    race_rounds: int
    winner: str  # "rw" | "trivial"; ties go to trivial
    coverage_rw_complete: bool


def k_gossip_race(
    engine: CongestEngine,
    assignment: Mapping[int, Sequence[int]],
    params: GossipParams,
    tau: int,
    phi: int,
) -> RaceReport:
    """Run both routes on independent engines over the same schedule and
    report the minimum; `engine` supplies the schedule and config template.
    The assignment is normalized once, for both routes."""
    holders = _normalize_assignment(assignment, engine.n)
    rw = k_gossip_rw(CongestEngine(engine.schedule, engine.config), holders, params, tau, phi)
    triv = k_gossip_trivial(CongestEngine(engine.schedule, engine.config), holders)
    return RaceReport(
        rounds_rw=rw.rounds,
        phase1_rounds=rw.phase1_rounds,
        rounds_trivial=triv.rounds,
        race_rounds=min(rw.rounds, triv.rounds),
        winner="rw" if rw.rounds < triv.rounds else "trivial",
        coverage_rw_complete=rw.complete,
    )
