"""Round-synchronous CONGEST(B) execution over a graph schedule.

Messages sent at round t travel only edges of E_t and arrive at the end of
round t.  A round is one `exchange` call carrying all of that round's
messages as one array of ports (a node and the index of one of its current
edges), so a message can only name an edge that exists; per directed edge
and round, the bits sent are capped at B and an overflow aborts the run.
Every round is accounted in a RoundLog whose totals are the run's cost in
the paper's sense (local computation is free, rounds are the currency).

Randomness comes from one numpy Generator per (algorithm seed, purpose
tag); protocols take each phase's draws from it in as few calls as they can.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import DynwalkError, GraphSchedule, derive_seed

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

    def _begin_round(self) -> int:
        t = self._round + 1
        if t > self.config.max_rounds:
            raise RoundLimitError(f"exceeded max_rounds={self.config.max_rounds}")
        return t

    def exchange(self, slots, bits: int) -> np.ndarray:
        """Execute one round: message i leaves node slots[i] // w on its port
        slots[i] % w, carrying `bits`; returns the destinations.

        Ports index round t's neighbor table `nbr` (n rows of width w, the
        maximum degree: w = d on a declared-degree schedule), so a slot names
        one directed edge and the destinations are one gather from the table.
        A slot outside [0, n*w), or one on a row's -1 padding (a node with
        fewer than w neighbors), raises ProtocolError; per directed edge the
        bits sum to at most B.  Every message of a round has the same size;
        an empty round is logged like an idle one.
        """
        t = self._begin_round()
        slots = np.asarray(slots, dtype=np.int64)
        dst, top = slots, 0
        if len(slots):
            g = self.schedule.snapshot_at(t)
            nbr = g.nbr
            # A negative slot wraps to a huge unsigned value: one max checks both ends.
            if slots.view(np.uint64).max() >= nbr.size:
                s = int(slots[(slots.view(np.uint64) >= nbr.size).argmax()])
                raise ProtocolError(f"round {t}: slot {s} is outside the {nbr.shape[0]}x{nbr.shape[1]} port table of G_{t}")
            dst = nbr.take(slots)
            if g.padded and dst.min() < 0:
                u, j = divmod(int(slots[dst.argmin()]), nbr.shape[1])
                raise ProtocolError(f"round {t}: node {u} has no port {j} in G_{t}")
            # adj rows are sorted, so the smallest busiest slot is the smallest busiest (u, v).
            counts = np.bincount(slots)
            e = int(counts.argmax())
            top = counts.item(e) * bits
            if top > self.B:
                self.log.congestion_events += 1
                raise CongestionError(
                    f"round {t}: edge ({e // nbr.shape[1]},{nbr.item(e)}) would carry {top} bits > B={self.B}"
                )
        self.log.observe(t, (len(slots),), top)
        self._round = t
        return dst

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
    ) -> np.ndarray:
        """Broadcast for exactly `budget` rounds from `sources`.

        Every informed node retransmits on all its current edges each round,
        so the rounds until every node is informed come from the schedule's
        flood memo (`GraphSchedule.flood_trace`) and are charged exactly as
        round-by-round execution would charge them; each round after that
        sends 2|E_t| messages (n*d on a declared-regular schedule).  Returns
        a read-only array holding, for each node, the round it is informed
        in: the engine's round at the sources, -1 where the budget ends
        first.  A negative budget raises ValueError before any round is
        charged.  A round that informs nobody while nodes are uninformed
        raises ScheduleError (a disconnected snapshot); a complete flood
        inside the budget is required unless `require_complete` is False
        (probabilistic callers).
        """
        if budget < 0:
            raise ValueError(f"flood budget {budget} is negative")
        return self._flood(payload_bits, sources, budget, require_complete)

    def flood_until_complete(
        self, payload_bits: int, sources: Iterable[int]
    ) -> tuple[int, np.ndarray]:
        """Broadcast until everyone is informed; returns (rounds used, the
        informed rounds as `flood` returns them).

        Used by protocols that may stop on completion (trivial gossip).
        Per-round connectivity bounds the rounds used by n - 1.
        """
        start = self._round
        informed = self._flood(payload_bits, sources, None, require_complete=False)
        return self._round - start, informed

    def _flood(self, payload_bits: int, sources: Iterable[int], budget: int | None, require_complete: bool) -> np.ndarray:
        """Flood for `budget` rounds, or with None until all are informed (see `flood`)."""
        if payload_bits > self.B:
            raise CongestionError(f"flood payload of {payload_bits} bits exceeds B={self.B}")
        sources = list(dict.fromkeys(sources))
        if not sources:
            raise ValueError("flood needs at least one source")
        bad = next((s for s in sources if not 0 <= s < self.n), None)
        if bad is not None:
            raise ValueError(f"flood source {bad} is outside [0, {self.n})")
        start, msgs = self._round, []
        if len(sources) < self.n and budget != 0:
            sent, informed, error = self.schedule.flood_trace(sources, start + 1)
        else:  # no round can inform anyone new
            sent, informed, error = (), np.full(self.n, -1, dtype=np.int64), None
            informed[sources] = start
            informed.setflags(write=False)
        run = len(sent) if budget is None else min(budget, len(sent))
        stalls = error is not None and run != budget  # the budget reaches the failing round
        tail = 0 if budget is None or stalls else budget - run  # rounds after coverage
        fit = min(run + tail, self.config.max_rounds - start)
        try:
            bfs = min(fit, run)
            msgs += sent[:bfs]
            if bfs < len(sent):  # the budget or the round limit cuts the flood short
                informed = np.where(informed > start + bfs, -1, informed)
                informed.setflags(write=False)
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
        # Only a cut, a stall or a zero budget can leave a node uninformed.
        if require_complete and (bfs < len(sent) or error is not None or budget == 0) and informed.min() < 0:
            raise FloodIncompleteError(f"flood informed {np.count_nonzero(informed >= 0)}/{self.n} nodes in {budget} rounds")
        return informed
