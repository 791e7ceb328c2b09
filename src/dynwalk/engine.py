"""Round-synchronous CONGEST(B) execution over a graph schedule.

Messages sent at round t travel only edges of E_t and arrive at the end of
round t.  A round is one `exchange` call carrying all of that round's
messages as arrays; per directed edge and round, the bits sent are capped
at B and an overflow aborts the run.  Every round is accounted in a
RoundLog whose totals are the run's cost in the paper's sense (local
computation is free, rounds are the currency).

Randomness comes from one numpy Generator per (algorithm seed, purpose
tag); protocols take each phase's draws from it in as few calls as they can.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import DynwalkError, GraphSchedule, GraphSnapshot, derive_seed

__all__ = [
    "SimConfig",
    "Encodings",
    "default_bandwidth",
    "RoundLog",
    "RoundRecord",
    "CongestEngine",
    "CongestionError",
    "RoundLimitError",
    "FloodIncompleteError",
    "ProtocolError",
]


class CongestionError(DynwalkError):
    """Some directed edge would carry more than B bits in one round."""


class RoundLimitError(DynwalkError):
    """The run consumed more rounds than SimConfig.max_rounds allows."""


class FloodIncompleteError(DynwalkError):
    """A flood with a supposedly sufficient budget left nodes uninformed."""


class ProtocolError(DynwalkError):
    """A node program violated the model (e.g. sent on a missing edge)."""


def default_bandwidth(n: int) -> int:
    """Default per-edge budget: 4 * ceil(log2 n)^2 bits."""
    b = max(1, math.ceil(math.log2(max(2, n))))
    return 4 * b * b


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    bandwidth_bits: int | None = None  # None -> default_bandwidth(n)
    phi: int | None = None  # dynamic diameter supplied to protocols
    max_rounds: int = 10_000_000
    record_rounds: bool = False  # keep one RoundRecord per round


class Encodings:
    """Bit-exact sizes for the protocol message kinds.

    node id: ceil(log2 n) bits; coupon: two ids plus a length field of
    ceil(log2(2*lambda)) bits plus a serial of ceil(log2 d) bits; walk token:
    id plus walk id plus length counter; locate request: id plus serial;
    gossip token: ceil(log2 k) bits.
    """

    def __init__(self, n: int):
        self.n = n
        self.id_bits = max(1, math.ceil(math.log2(max(2, n))))

    @staticmethod
    def _field(values: int) -> int:
        return max(1, math.ceil(math.log2(max(2, values))))

    def coupon_bits(self, lambda_walk: int, d: int) -> int:
        return 2 * self.id_bits + self._field(2 * lambda_walk) + self._field(d)

    def token_bits(self, tau: int, k: int = 1) -> int:
        walk_id = 0 if k <= 1 else self._field(k)
        return self.id_bits + walk_id + self._field(tau + 1)

    def request_bits(self, d: int) -> int:
        return self.id_bits + self._field(d)

    def gossip_bits(self, k: int) -> int:
        return self._field(k)


@dataclass(frozen=True)
class RoundRecord:
    t: int
    msgs: int
    max_edge_bits: int


class RoundLog:
    """Per-run accounting: totals plus (optionally) one record per round."""

    __slots__ = ("rounds", "total_msgs", "max_edge_bits", "congestion_events", "records", "_keep")

    def __init__(self, keep_records: bool = False):
        self.rounds = 0
        self.total_msgs = 0
        self.max_edge_bits = 0
        self.congestion_events = 0
        self.records: list[RoundRecord] = []
        self._keep = keep_records

    def observe(self, t: int, msgs: Sequence[int], max_bits: int) -> None:
        """Log rounds t, t + 1, ...: round t + i sends msgs[i] messages, and
        its busiest directed edge carries `max_bits` if it sends any."""
        self.rounds += len(msgs)
        self.total_msgs += sum(msgs)
        if max_bits > self.max_edge_bits and any(msgs):
            self.max_edge_bits = max_bits
        if self._keep:
            self.records += [RoundRecord(t + i, m, max_bits if m else 0) for i, m in enumerate(msgs)]

    def summary(self) -> dict:
        return {
            "rounds": self.rounds,
            "total_msgs": self.total_msgs,
            "max_edge_bits": self.max_edge_bits,
            "congestion_events": self.congestion_events,
        }

    def jsonl_records(self) -> list[str]:
        return [
            json.dumps({"t": r.t, "max_edge_bits": r.max_edge_bits, "msgs": r.msgs})
            for r in self.records
        ]


class CongestEngine:
    """Lock-step round executor bound to one schedule and one config.

    The engine owns the global round counter: every primitive that talks on
    the network advances it.  Randomness comes from one numpy Generator per
    (algorithm seed, purpose tag), never from the schedule's seed.
    """

    def __init__(self, schedule: GraphSchedule, config: SimConfig | None = None):
        self.schedule = schedule
        self.config = config or SimConfig()
        self.n = schedule.n
        self.B = (
            self.config.bandwidth_bits
            if self.config.bandwidth_bits is not None
            else default_bandwidth(schedule.n)
        )
        self.enc = Encodings(schedule.n)
        self.log = RoundLog(keep_records=self.config.record_rounds)
        self._round = 0
        self._streams: dict[int, np.random.Generator] = {}

    @property
    def round(self) -> int:
        """Number of completed rounds."""
        return self._round

    def stream(self, tag: int) -> np.random.Generator:
        """The run's random stream for one purpose tag (seeded from (seed, tag))."""
        rng = self._streams.get(tag)
        if rng is None:
            rng = np.random.default_rng(derive_seed(self.config.seed, tag))
            self._streams[tag] = rng
        return rng

    def next_snapshot(self) -> GraphSnapshot:
        """Topology of the round about to execute (round round+1)."""
        return self.schedule.snapshot_at(self._round + 1)

    def _begin_round(self) -> int:
        t = self._round + 1
        if t > self.config.max_rounds:
            raise RoundLimitError(f"exceeded max_rounds={self.config.max_rounds}")
        return t

    def exchange(self, src, dst, bits: int) -> None:
        """Execute one round: message i travels src[i] -> dst[i] carrying `bits`.

        `src` and `dst` are equal-length int arrays; every message of a round
        has the same size.  Every pair must be an edge of this round's
        snapshot (checked by one gather from its flat n*n `edge_mask`, built
        on first use, n^2 bytes, shared with its round clones), and per
        directed edge the bits sum to at most B.  Callers know where each
        message goes, so nothing is returned; an empty round is logged like
        an idle one.
        """
        t = self._begin_round()
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        msgs = len(src)
        if len(dst) != msgs:
            raise ValueError(f"round {t}: {msgs} sources but {len(dst)} destinations")
        top = 0
        if msgs:
            n = self.n
            try:
                keys = np.ravel_multi_index((src, dst), (n, n))
            except ValueError:  # an id outside [0, n)
                keys = None
            mask = self.schedule.snapshot_at(t).edge_mask
            if keys is None or np.count_nonzero(mask.take(keys)) != msgs:
                self._reject(t, src, dst)
            counts = np.bincount(keys)
            e = int(counts.argmax())
            top = counts.item(e) * bits
            if top > self.B:
                self.log.congestion_events += 1
                raise CongestionError(
                    f"round {t}: edge ({e // n},{e % n}) would carry {top} bits > B={self.B}"
                )
        self.log.observe(t, (msgs,), top)
        self._round = t

    def _reject(self, t: int, src: np.ndarray, dst: np.ndarray) -> None:
        """Raise ProtocolError naming the first message sent off G_t's edges."""
        g = self.schedule.snapshot_at(t)
        u, v = next(
            (u, v) for u, v in zip(src.tolist(), dst.tolist())
            if not g.has_edge(u, v)
        )
        raise ProtocolError(f"round {t}: ({u},{v}) is not an edge of G_{t}")

    def idle(self, rounds: int = 1) -> None:
        """Consume rounds with no traffic (still logged)."""
        for _ in range(rounds):
            t = self._begin_round()
            self.log.observe(t, (0,), 0)
            self._round = t

    def flood(
        self,
        payload_bits: int,
        sources: Iterable[int],
        budget: int,
        require_complete: bool = True,
    ) -> dict[int, int]:
        """Broadcast for exactly `budget` rounds from `sources`.

        Every informed node retransmits on all its current edges each round,
        so per directed edge the payload travels at most once per round and
        the accounting is closed-form.  Floods use no randomness, so the
        rounds until every node is informed come from the schedule's memo of
        flood traces (`GraphSchedule.flood_trace`), keyed by start round and
        source set: a repeated flood runs no BFS and is charged exactly as a
        fresh one.  A miss runs the BFS to completion, at most n - 1 rounds,
        or to its stall, even when the budget is shorter.  The rest of the
        budget, 2|E_t| messages a round (n*d on a declared-regular schedule,
        building no snapshot), is charged in one step.  Returns a fresh dict
        node -> round informed.  A negative budget raises ValueError before
        any round is charged.  A round that informs nobody while nodes are
        uninformed raises ScheduleError (a disconnected snapshot); a
        complete flood inside the budget is required unless
        `require_complete` is False (probabilistic callers).
        """
        if budget < 0:
            raise ValueError(f"flood budget {budget} is negative")
        informed_round = self._flood(payload_bits, sources, budget)
        if require_complete and len(informed_round) < self.n:
            raise FloodIncompleteError(
                f"flood informed {len(informed_round)}/{self.n} nodes in {budget} rounds"
            )
        return informed_round

    def flood_until_complete(
        self, payload_bits: int, sources: Iterable[int]
    ) -> tuple[int, dict[int, int]]:
        """Broadcast until everyone is informed; returns (rounds used, map).

        Used by protocols that may stop on completion (trivial gossip).
        Per-round connectivity bounds the rounds used by n - 1.
        """
        start = self._round
        informed_round = self._flood(payload_bits, sources, None)
        return self._round - start, informed_round

    def _flood(self, payload_bits: int, sources: Iterable[int], budget: int | None) -> dict[int, int]:
        """Flood for `budget` rounds, or with None until all are informed (see `flood`)."""
        if payload_bits > self.B:
            raise CongestionError(f"flood payload of {payload_bits} bits exceeds B={self.B}")
        informed_round = dict.fromkeys(sources, self._round)
        if not informed_round:
            raise ValueError("flood needs at least one source")
        bad = next((s for s in informed_round if not 0 <= s < self.n), None)
        if bad is not None:
            raise ValueError(f"flood source {bad} is outside [0, {self.n})")
        start, msgs = self._round, []
        sent, informed, error = (), {}, None
        if len(informed_round) < self.n and budget != 0:
            sent, informed, error = self.schedule.flood_trace(informed_round, start + 1)
        run = len(sent) if budget is None else min(budget, len(sent))
        stalls = error is not None and run != budget  # the budget reaches the failing round
        tail = 0 if budget is None or stalls else budget - run  # rounds after coverage
        fit = min(run + tail, self.config.max_rounds - start)
        try:
            bfs = min(fit, run)
            msgs += sent[:bfs]
            if bfs < len(sent):  # the budget or the round limit cuts the flood short
                informed = {u: t for u, t in informed.items() if t <= start + bfs}
            informed_round.update(informed)
            self._round = start + bfs
            if fit > bfs:  # every node is informed, so each round left sends 2|E_t| messages
                if self.schedule.d is None:
                    msgs += [2 * len(self.schedule.snapshot_at(t).edges) for t in range(start + bfs + 1, start + fit + 1)]
                else:
                    msgs += [self.n * self.schedule.d] * (fit - bfs)
                self._round = start + fit
        finally:  # the rounds run before an error stay charged
            self.log.observe(start + 1, msgs, payload_bits)
        if fit < run + tail or stalls:
            self._begin_round()  # raises RoundLimitError, as round start + fit + 1 would
            raise type(error)(*error.args) from error.__cause__  # as the trace's round did
        return informed_round
