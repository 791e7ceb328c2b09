"""Random-walk protocols: naive token walks, coupon-stitched fast walks and
the shared-phase extension to k walks, all simple random walks on a schedule
with a declared degree d.

One driver runs every tau-step walk; a single walk is a batch of one.  When
tau <= 2*lambda the walks run naively and concurrently in tau rounds.
Otherwise Phase 1 distributes, from every node, d coupons that walk for
lambda + r rounds (r uniform in [0, lambda-1]) over snapshots
G_1..G_{2*lambda} and freeze at their endpoints.  Phase 2 then takes the
walks one after another: each repeatedly samples an unused coupon at the
token's current node (one flood to locate the holder, one flood to transfer
the token, phi rounds each) and finishes the remainder below 2*lambda
naively on live snapshots.

Every token step (Phase 1's coupons, naive walks, a stitched walk's
fallbacks and tail) goes through one round loop, `_walk_tokens`: positions
and neighbor choices are numpy arrays, and one `CongestEngine.exchange`
call carries the round's messages, each addressed by its sender's port, and
returns where they land, so walks never read a snapshot.

Every random choice comes from the engine's one stream, `CongestEngine.rng`,
in protocol order: Phase 1's coupon lengths and neighbor choices, then walk
by walk each stitch's pool pick, each fallback's lambda steps and the tail's
steps, a run of steps in one call unless it exceeds DRAW_BLOCK values.  Each
step is an independent uniform choice, so which draw feeds which step is
bookkeeping and the walks' laws are the textbook protocol's.  The price: a
change to one phase's draw count moves every later phase's draws within a
run, a coupling that counter-based draws keyed by phase and step would remove.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .engine import CongestEngine, ProtocolError, RoundLimitError
from .graphs import DynwalkError

__all__ = [
    "WalkParams",
    "CouponTable",
    "CouponsExhausted",
    "WalkResult",
    "WalkBatch",
    "naive_walk",
    "concurrent_naive_walks",
    "phase1_distribute",
    "sample_coupon",
    "single_random_walk",
    "many_random_walks",
    "VisitStats",
    "visit_stats",
]

DRAW_BLOCK = 1 << 16  # least number of neighbor choices `_walk_tokens` draws per call


class CouponsExhausted(DynwalkError):
    """A connector has no unused coupon serial left."""


def _need_phi(phi: int | None) -> int:
    """`phi`, or ProtocolError: stitch floods and lambda's size need it."""
    if phi is None:
        raise ProtocolError("stitched walks need phi in SimConfig")
    return phi


@dataclass(frozen=True)
class WalkParams:
    """Walk length tau and short-walk parameter lambda.

    `for_many` sizes lambda = ceil(lambda_c * sqrt(k*tau*phi)) for k walks
    (k = 1 for a single walk); the asymptotic shape the round bounds
    prescribe, with the proof constants dropped.
    """

    tau: int
    lambda_walk: int

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.lambda_walk < 1:
            raise ValueError("lambda_walk must be >= 1")

    @classmethod
    def for_many(cls, tau: int, phi: int | None, k: int, lambda_c: float = 1.0) -> "WalkParams":
        try:
            lam = lambda_c * math.sqrt(k * max(1, tau) * _need_phi(phi))
        except OverflowError:  # k*tau*phi is an int too large for a float
            lam = math.inf
        if not math.isfinite(lam):
            raise ValueError(f"lambda = {lam} is not finite (tau={tau}, phi={phi}, k={k}, lambda_c={lambda_c})")
        return cls(tau=tau, lambda_walk=max(1, math.ceil(lam)))


class CouponTable:
    """Phase-1 output as arrays indexed by coupon ci = origin*d + serial - 1.

    `lengths` and `holders` hold one entry per coupon; `unused[v]` lists the
    coupon indices origin v has not sampled yet.  With recorded paths,
    `trail[i]` holds every coupon's position after round i (a coupon stays
    put once its desired length is walked).
    """

    def __init__(self, n: int, d: int, lengths):
        self.d = d
        self.lengths = np.asarray(lengths, dtype=np.int64)
        ids = np.arange(n * d)
        self.holders = ids // d
        self.unused: list[list[int]] = ids.reshape(n, d).tolist()
        self.trail: np.ndarray | None = None

    def sample(self, origin: int, rng: np.random.Generator) -> int:
        """Pop a uniformly chosen unused coupon of `origin`; returns its index."""
        pool = self.unused[origin]
        if not pool:
            raise CouponsExhausted(f"node {origin} has no unused coupons")
        return pool.pop(int(rng.integers(len(pool))))


@dataclass
class WalkResult:
    """Outcome of one walk: where it ended and what it cost.

    `connectors` starts with the source; entries after the first are the
    stitch points, in order.  `rounds_used` counts the rounds from the start
    of the call that ran the walk until its endpoint is known: in a stitched
    batch, walk j's count includes Phase 1 and walks 0..j-1, so the last
    walk's count is the batch's cost.
    """

    source: int
    destination: int
    rounds_used: int
    connectors: list[int]
    segment_lengths: list[int]
    fallbacks: int
    path: list[int] | None
    walk_id: int = 0


class WalkBatch(Sequence[WalkResult]):
    """The outcomes of a batch of walks, endpoints first.

    `destinations` holds walk j's endpoint at index j (int64, read-only) and
    is filled when the batch is made.  The per-walk `WalkResult`s are built
    from the run's own arrays the first time the batch is indexed or
    iterated, so a caller that needs only the endpoints never builds them.
    """

    __slots__ = ("destinations", "_build", "_results")

    def __init__(self, destinations, build: Callable[[], list[WalkResult]]):
        self.destinations = np.asarray(destinations, dtype=np.int64)
        self.destinations.flags.writeable = False
        self._build = build
        self._results: list[WalkResult] | None = None

    def _list(self) -> list[WalkResult]:
        if self._results is None:
            self._results = self._build()
            self._build = None
        return self._results

    def __len__(self) -> int:
        return len(self.destinations)

    def __getitem__(self, index):
        return self._list()[index]

    def __iter__(self):
        return iter(self._list())


def _checked_sources(n: int, sources) -> np.ndarray:
    """`sources` as an int64 array; ValueError naming the first one outside
    [0, n).  Every walk checks its sources before it charges a round."""
    sources = np.array(sources, dtype=np.int64)
    wide = sources.view(np.uint64)  # a negative source wraps to a huge unsigned value
    if len(wide) and wide.item(wide.argmax()) >= n:
        raise ValueError(f"walk source {sources.item((wide >= n).argmax())} is outside [0, {n})")
    return sources


def _check_room(engine: CongestEngine, rounds: int) -> None:
    """RoundLimitError unless `rounds` more rounds fit within max_rounds:
    raised before a walk makes any draw or allocation sized by its length."""
    room = engine.config.max_rounds - engine.round
    if rounds > room:
        raise RoundLimitError(f"a walk needs at least {rounds} rounds, but max_rounds={engine.config.max_rounds} leaves {room}")


def _walk_tokens(engine, sources, steps, token_bits, record_path, moving=None):
    """Move one token per source for `steps` rounds: in round i the first
    `moving[i]` tokens take a step (all of them when `moving` is None).

    A token at v with draw j in [0, d) leaves on v's port j, slot v*d + j of
    the engine's `exchange`, which returns where each token lands.  The
    draws come from `engine.rng` in blocks of whole rounds, each of at least
    DRAW_BLOCK values, so they need memory of that size whatever `steps`
    is; numpy continues one stream across calls, so they equal one
    (steps, k) draw.  Returns the final positions and, with `record_path`,
    the (steps + 1, k) array of positions after each round, which does grow
    with `steps`.
    """
    d = engine.schedule.d
    pos = np.array(sources, dtype=np.int64)
    k = len(pos)
    block = -(-DRAW_BLOCK // max(1, k))  # rounds per draw
    stride = np.array(d)  # numpy scales by a 0-d array faster than by a Python int
    trail = np.empty((steps + 1, k), dtype=np.int64) if record_path else None
    if record_path:
        trail[0] = pos
    for start in range(0, steps, block):
        for i, row in enumerate(engine.rng.integers(d, size=(min(block, steps - start), k)), start + 1):
            m = k if moving is None else moving[i - 1]
            if m == k:
                pos = engine.exchange(pos * stride + row, token_bits)
            else:
                here = pos[:m]  # a view: the moving tokens land in place
                here[...] = engine.exchange(here * stride + row[:m], token_bits)
            if record_path:
                trail[i] = pos
    return pos, trail


def naive_walk(
    engine: CongestEngine, source: int, length: int, record_path: bool = True
) -> WalkResult:
    """Forward one token for `length` rounds, one uniform step per snapshot."""
    return concurrent_naive_walks(engine, [source], length, record_path)[0]


def concurrent_naive_walks(
    engine: CongestEngine,
    sources: Sequence[int],
    length: int,
    record_path: bool = True,
) -> WalkBatch:
    """Run len(sources) naive walks simultaneously in `length` rounds.

    Returns a `WalkBatch`: walk j starts at sources[j], and its endpoint is
    `destinations[j]`.
    """
    sources = _checked_sources(engine.n, sources)
    _check_room(engine, length)
    bits = engine.enc.token_bits(length, len(sources))
    start_round = engine.round
    pos, trail = _walk_tokens(engine, sources, length, bits, record_path)
    end_round = engine.round

    def build() -> list[WalkResult]:
        paths = trail.T.tolist() if record_path else [None] * len(pos)
        return [
            WalkResult(s, dest, end_round - start_round, [s], [], 0, path, j)
            for j, (s, dest, path) in enumerate(zip(sources.tolist(), pos.tolist(), paths))
        ]

    return WalkBatch(pos, build)


def phase1_distribute(
    engine: CongestEngine,
    params: WalkParams,
    record_paths: bool = True,
) -> CouponTable:
    """Phase 1: every node launches d coupons of desired length lambda + r_i.

    Runs for exactly 2*lambda engine rounds starting from a fresh engine;
    a coupon moves in round i iff its desired length is at least i, so each
    one rests at the endpoint of an independent walk of its desired length
    over snapshots G_1..G_{desired_length}.  The n*d lengths are drawn
    first from the engine's stream, and the neighbor choices after them, a
    block of rounds at a time (see `_walk_tokens`).
    """
    if engine.round != 0:
        raise ProtocolError("phase 1 must start at round 0 (coupons walk G_1 onwards)")
    d = engine.schedule.d
    lam = params.lambda_walk
    _check_room(engine, 2 * lam)
    coupons = engine.n * d
    extra = engine.rng.integers(lam, size=coupons)
    table = CouponTable(engine.n, d, lam + extra)
    # Longest coupons first: the coupons moving in round i (length >= i) are
    # the first moving[i-1] of them, all of them up to round lambda.
    order = (-extra).argsort(kind="stable")
    moving = [coupons] * lam + [coupons - c for c in accumulate(np.bincount(extra, minlength=lam).tolist())]
    pos, trail = _walk_tokens(engine, table.holders[order], 2 * lam, engine.enc.coupon_bits(lam, d), record_paths, moving)
    table.holders[order] = pos
    if record_paths:
        table.trail = trail[:, np.argsort(order)]
    return table


def sample_coupon(
    engine: CongestEngine,
    table: CouponTable,
    connector: int,
    phi: int,
    token_bits: int,
) -> int:
    """Stitch step: the connector samples one of its unused coupons uniformly
    and returns its index; the token moves to `table.holders[ci]`.

    Costs exactly 2*phi rounds: a flood of (origin, serial) lets the unique
    holder self-identify, then a second flood carries the token to it.  The
    coupon is deleted so it can never be sampled again.
    """
    ci = table.sample(connector, engine.rng)  # raises CouponsExhausted
    engine.flood(engine.enc.request_bits(table.d), (connector,), phi)
    engine.flood(token_bits, (connector,), phi)
    return ci


def _naive_steps(engine, v, steps, token_bits, path):
    """Walk one token `steps` live naive steps from v and return where it
    lands; the steps are appended to `path` unless it is None."""
    pos, trail = _walk_tokens(engine, [v], steps, token_bits, path is not None)
    if path is not None:
        path.extend(trail[1:, 0].tolist())
    return pos.item(0)


def many_random_walks(
    engine: CongestEngine, sources: Sequence[int], params: WalkParams, record_path: bool = True
) -> WalkBatch:
    """The one walk driver: len(sources) independent tau-step walks in
    source order, returned as a `WalkBatch` whose `destinations` are the
    endpoints.

    Stitched walks consume disjoint coupons of one Phase 1; a connector out
    of coupons takes lambda live naive steps instead (a fallback).  Callers
    size lambda, for k walks with `WalkParams.for_many`.
    """
    if len(sources) == 0:
        return WalkBatch(np.empty(0, dtype=np.int64), list)
    tau, lam = params.tau, params.lambda_walk
    if tau <= 2 * lam:
        return concurrent_naive_walks(engine, sources, tau, record_path)
    sources = _checked_sources(engine.n, sources)  # before Phase 1 charges its rounds
    phi = _need_phi(engine.config.phi)
    start_round = engine.round
    coupons = phase1_distribute(engine, params, record_paths=record_path)
    token_bits = engine.enc.token_bits(tau, len(sources))
    results = []
    for j, source in enumerate(sources.tolist()):
        v, completed, fallbacks = source, 0, 0
        connectors, segments = [source], []
        path = [source] if record_path else None
        while completed <= tau - 2 * lam:
            try:
                ci = sample_coupon(engine, coupons, v, phi, token_bits)
            except CouponsExhausted:
                fallbacks += 1
                v = _naive_steps(engine, v, lam, token_bits, path)
                completed += lam
                continue
            if segments:
                connectors.append(v)
            length = coupons.lengths.item(ci)
            completed += length
            segments.append(length)
            if record_path:
                path.extend(coupons.trail[1 : length + 1, ci].tolist())
            v = coupons.holders.item(ci)
        if tau > completed:
            v = _naive_steps(engine, v, tau - completed, token_bits, path)
        results.append(
            WalkResult(source, v, engine.round - start_round, connectors, segments, fallbacks, path, j)
        )
    return WalkBatch([r.destination for r in results], lambda: results)


def single_random_walk(
    engine: CongestEngine, source: int, params: WalkParams, record_path: bool = True
) -> WalkResult:
    """Sample the endpoint of a tau-step walk: walk 0 of a one-source batch
    (coupon-stitched when tau > 2*lambda, naive otherwise)."""
    return many_random_walks(engine, (source,), params, record_path)[0]


@dataclass
class VisitStats:
    """Per-node visit counts and stitch-point counts over a batch of walks.

    Visits count every walk position including the start.  Connector counts
    cover stitch events after the walk's first sample, i.e. the segment
    boundaries inside (0, tau]; the source's initial membership in the
    connector set is bookkeeping, not a stitch event.
    """

    visits: np.ndarray
    connector_counts: np.ndarray


def visit_stats(results: Sequence[WalkResult], n: int) -> VisitStats:
    visits = np.zeros(n, dtype=np.int64)
    conns = np.zeros(n, dtype=np.int64)
    for res in results:
        if res.path is None:
            raise ValueError("visit_stats needs walks recorded with record_path=True")
        for v in res.path:
            visits[v] += 1
        for v in res.connectors[1:]:
            conns[v] += 1
    return VisitStats(visits=visits, connector_counts=conns)
