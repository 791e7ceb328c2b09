"""Round-synchronous CONGEST(B) execution over a graph schedule.

Messages sent at round t travel only edges of E_t and arrive at the end of
round t.  A round is one `exchange` call carrying all of that round's
messages as one array of ports (a node and the index of one of its current
edges), so a message can only name an edge that exists; per directed edge
and round, the bits sent are capped at B and an overflow aborts the run.
Every round is accounted in a RoundLog whose totals are the run's cost in
the paper's sense (local computation is free, rounds are the currency).

Randomness comes from one numpy Generator per engine, `CongestEngine.rng`,
opened on the first draw; protocols draw from it in protocol order.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import DynwalkError, GraphSchedule, derive_seed, flood_failure

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
        self.id_bits = self._field(n)

    @staticmethod
    def _field(values: int) -> int:
        """ceil(log2 values) bits, at least 1, computed exactly in integers."""
        return (max(2, math.ceil(values)) - 1).bit_length()

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
    """Per-run accounting: totals plus (optionally) one record per round.

    While records are off, one `observe` charges any number of rounds (an
    `exchange` round, a whole memo-hit flood) in O(1) Python work."""

    __slots__ = ("rounds", "total_msgs", "max_edge_bits", "congestion_events", "records", "_keep")

    def __init__(self, keep_records: bool = False):
        self.rounds = 0
        self.total_msgs = 0
        self.max_edge_bits = 0
        self.congestion_events = 0
        self.records: list[RoundRecord] = []
        self._keep = keep_records

    def observe(self, t: int, msgs: int, max_bits: int, rounds: int = 1, counts: Sequence[int] = ()) -> None:
        """Log rounds t .. t + rounds - 1, which send `msgs` messages in all:
        the first len(counts) of them counts[i] each, every later one an
        equal share of the rest.  In a round that sends any, the busiest
        directed edge carries `max_bits`.  Only a log that keeps records
        reads `counts`."""
        self.rounds += rounds
        self.total_msgs += msgs
        if msgs and max_bits > self.max_edge_bits:
            self.max_edge_bits = max_bits
        if self._keep:
            rest = rounds - len(counts)
            each = (msgs - sum(counts)) // rest if rest else 0
            self.records += [
                RoundRecord(t + i, m, max_bits if m else 0) for i, m in enumerate([*counts, *[each] * rest])
            ]

    def jsonl_records(self) -> list[str]:
        return [
            json.dumps({"t": r.t, "max_edge_bits": r.max_edge_bits, "msgs": r.msgs})
            for r in self.records
        ]


class CongestEngine:
    """Lock-step round executor bound to one schedule and one config.

    The engine owns the global round counter: every primitive that talks on
    the network advances it.  Randomness comes from the one numpy Generator
    `rng`, never from the schedule's seed.
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
        self._rng: np.random.Generator | None = None  # set in __init__ so every engine has one attribute layout

    @property
    def round(self) -> int:
        """Number of completed rounds."""
        return self._round

    @property
    def rng(self) -> np.random.Generator:
        """The run's one random stream, seeded from (seed, 11) on first use,
        so an engine that never draws seeds no Generator."""
        if self._rng is None:
            self._rng = np.random.default_rng(derive_seed(self.config.seed, 11))
        return self._rng

    def _round_limit(self) -> RoundLimitError:
        """The error of a round past max_rounds, raised before it runs."""
        return RoundLimitError(f"exceeded max_rounds={self.config.max_rounds}")

    def exchange(self, slots, bits: int) -> np.ndarray:
        """Execute one round: message i leaves node slots[i] // d on its port
        slots[i] % d, carrying `bits`; returns the destinations.

        Ports index round t's n x d neighbor table `nbr`, so a slot names one
        directed edge and the destinations are one gather from the table.  A
        slot outside [0, n*d) raises ProtocolError; per directed edge the
        bits sum to at most B.  Every message of a round has the same size;
        an empty round is logged like an idle one.

        One call is exactly one round, whatever it carries, so a protocol
        never folds several rounds into one call: the benchmark's tracer
        (perfbench/layers.py) charges one round per call, and its identity
        "exchange + idle + flood rounds == log.rounds" rests on that.  The
        round is charged with one `RoundLog.observe` of its message count.
        """
        t = self._round + 1
        if t > self.config.max_rounds:
            raise self._round_limit()
        slots = np.asarray(slots, dtype=np.int64)
        m = len(slots)
        dst, top = slots, 0
        if m:
            nbr = self.schedule.snapshot_at(t).nbr
            # take raises IndexError on a slot past either end of the table but
            # wraps one in [-n*d, 0), which bincount or the lone slot's sign
            # rejects: the range check costs no numpy call of its own.
            try:
                dst = nbr.take(slots)
                if m > 1:
                    # table rows are sorted, so the smallest busiest slot is the smallest busiest (u, v).
                    counts = np.bincount(slots)
                    e = counts.argmax()
                    load = counts.item(e)
                else:  # a lone message is alone on its edge
                    e, load = slots.item(0), 1
                    if e < 0:
                        raise ValueError(e)
            except (IndexError, ValueError):
                wide = slots.view(np.uint64)  # a negative slot wraps to a huge unsigned value
                s = slots.item((wide >= nbr.size).argmax())
                raise ProtocolError(f"round {t}: slot {s} is outside the {nbr.shape[0]}x{nbr.shape[1]} port table of G_{t}") from None
            top = load * bits
            if top > self.B:
                self.log.congestion_events += 1
                raise CongestionError(
                    f"round {t}: edge ({e // nbr.shape[1]},{nbr.item(e)}) would carry {top} bits > B={self.B}"
                )
        self.log.observe(t, m, top)
        self._round = t
        return dst

    def idle(self, rounds: int = 1) -> None:
        """Consume rounds with no traffic (still logged)."""
        for _ in range(rounds):
            t = self._round + 1
            if t > self.config.max_rounds:
                raise self._round_limit()
            self.log.observe(t, 0, 0)
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
        sends n*d messages, all in one O(1) `RoundLog.observe` charge while
        records are off; one call is still `budget` rounds.  Returns a
        read-only array holding, for each node, the round it is informed in:
        the engine's round at the sources, -1 where the budget ends first.  A
        negative budget raises ValueError before any round is charged.  A
        round that informs nobody while nodes are uninformed raises its
        `flood_failure` (a disconnected snapshot or a failed build); a
        complete flood inside the budget is required unless
        `require_complete` is False (probabilistic callers).
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
        if min(sources) < 0 or max(sources) >= self.n:
            bad = next(s for s in sources if not 0 <= s < self.n)
            raise ValueError(f"flood source {bad} is outside [0, {self.n})")
        start = self._round
        if len(sources) < self.n and budget != 0:
            sent, informed, complete = self.schedule.flood_trace(sources, start + 1)
        else:  # no round can inform anyone new
            sent, informed, complete = (), np.full(self.n, -1, dtype=np.int64), True
            informed[sources] = start
            informed.setflags(write=False)
        run = len(sent) if budget is None else min(budget, len(sent))
        stalls = not complete and run != budget  # the budget reaches the round that informs nobody
        tail = 0 if budget is None or stalls else budget - run  # rounds after coverage
        fit = min(run + tail, self.config.max_rounds - start)
        bfs = min(fit, run)
        if bfs < len(sent):  # the budget or the round limit cuts the flood short
            informed = np.where(informed > start + bfs, -1, informed)
            informed.setflags(write=False)
        self._round = start + fit
        # Rounds run before an error stay charged; each after coverage sends n*d.
        run_sent = sent[:bfs]
        self.log.observe(start + 1, sum(run_sent) + (fit - bfs) * self.n * self.schedule.d, payload_bits, fit, run_sent)
        if fit < run + tail or stalls:
            if self._round == self.config.max_rounds:
                raise self._round_limit()  # as round start + fit + 1 would
            raise flood_failure(self.schedule, start + fit + 1)
        # Only a cut, a stall or a zero budget can leave a node uninformed.
        if require_complete and (bfs < len(sent) or not complete or budget == 0) and informed.min() < 0:
            raise FloodIncompleteError(f"flood informed {np.count_nonzero(informed >= 0)}/{self.n} nodes in {budget} rounds")
        return informed
