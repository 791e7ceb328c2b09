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

from .engine import CongestEngine, ProtocolError, SimConfig
from .graphs import GraphSchedule
from .walks import many_random_walks

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


def resolve_gossip_params(
    n: int,
    k: int,
    tau: int,
    phi: int,
    f: int | None = None,
) -> GossipParams:
    """Defaults: f = ceil(n^(2/3) * (k/(tau*phi))^(1/3)), capped to [1, n];
    broadcast_rounds = ceil(2*n*ln(n)/f).  tau and phi must be >= 1."""
    if tau < 1 or phi < 1:
        raise ValueError(f"gossip needs tau >= 1 and phi >= 1, got tau={tau}, phi={phi}")
    if f is None:
        f = math.ceil(n ** (2.0 / 3.0) * (k / (tau * phi)) ** (1.0 / 3.0))
    f = max(1, min(n, f))
    return GossipParams(k=k, f=f, broadcast_rounds=math.ceil(2.0 * n * math.log(n) / f))


def _normalize_assignment(assignment: Mapping[int, Sequence[int]], n: int) -> dict[int, list[int]]:
    holders = {}
    for token, hs in assignment.items():
        hs = sorted(set(hs))
        if not hs:
            raise ValueError(f"token {token} has no initial holder")
        if any(not 0 <= h < n for h in hs):
            raise ValueError(f"token {token} has holders outside [0,{n})")
        holders[token] = hs
    if len(holders) > n:
        raise ValueError("more tokens than nodes (k <= n required)")
    return dict(sorted(holders.items()))


@dataclass
class GossipOutcome:
    rounds: int
    coverage: np.ndarray  # bool, shape (n, k): node has token?
    complete: bool
    phase1_rounds: int


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
    tokens = list(holders)
    k = len(tokens)
    start_round = engine.round
    # f copies per token, spread round-robin over that token's initial holders.
    sources = []
    token_of_walk = []
    for token in tokens:
        hs = holders[token]
        for c in range(params.f):
            sources.append(hs[c % len(hs)])
            token_of_walk.append(token)
    results = many_random_walks(engine, sources, tau, record_path=False)
    phase1_rounds = engine.round - start_round
    coverage = np.zeros((engine.n, k), dtype=bool)
    holder_sets: dict[int, set[int]] = {t: set(holders[t]) for t in tokens}
    for dest, token in zip(results.destinations.tolist(), token_of_walk):
        holder_sets[token].add(dest)
    bits = engine.enc.gossip_bits(k)
    for idx, token in enumerate(tokens):
        informed = engine.flood(
            bits, sorted(holder_sets[token]), params.broadcast_rounds, require_complete=False
        )
        coverage[:, idx] = informed >= 0
    return GossipOutcome(
        rounds=engine.round - start_round,
        coverage=coverage,
        complete=bool(coverage.all()),
        phase1_rounds=phase1_rounds,
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
    tokens = list(holders)
    k = len(tokens)
    start_round = engine.round
    bits = engine.enc.gossip_bits(k)
    coverage = np.zeros((engine.n, k), dtype=bool)
    for idx, token in enumerate(tokens):
        engine.flood_until_complete(bits, holders[token])
        coverage[:, idx] = True
    return GossipOutcome(
        rounds=engine.round - start_round,
        coverage=coverage,
        complete=True,
        phase1_rounds=0,
    )


@dataclass
class RaceReport:
    rounds_rw: int
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
    report the minimum; `engine` supplies the schedule and config template."""
    schedule: GraphSchedule = engine.schedule
    config: SimConfig = engine.config
    eng_rw = CongestEngine(schedule, config)
    eng_triv = CongestEngine(schedule, config)
    rw = k_gossip_rw(eng_rw, assignment, params, tau, phi)
    triv = k_gossip_trivial(eng_triv, assignment)
    return RaceReport(
        rounds_rw=rw.rounds,
        rounds_trivial=triv.rounds,
        race_rounds=min(rw.rounds, triv.rounds),
        winner="rw" if rw.rounds < triv.rounds else "trivial",
        coverage_rw_complete=rw.complete,
    )
