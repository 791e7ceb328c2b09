"""Evolving-graph schedules and temporal reachability.

A schedule maps each round t >= 1 to a graph snapshot on a fixed node set
[0, n).  Snapshots are pure functions of (generator spec, seed, t), so the
adversary is oblivious by construction: its randomness never touches the
algorithm's stream.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Collection, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "GraphSnapshot",
    "GraphSchedule",
    "StaticSchedule",
    "PeriodicSchedule",
    "RandomRegularSchedule",
    "PermutedSchedule",
    "DynwalkError",
    "ScheduleError",
    "ValidationReport",
    "validate_snapshot",
    "named_graph",
    "random_regular_graph",
    "FloodTrace",
    "informed_rounds",
    "flood_failure",
    "flooding_time",
    "dynamic_diameter",
    "parse_schedule_spec",
    "write_schedule_file",
    "read_schedule_file",
    "derive_seed",
]


class DynwalkError(RuntimeError):
    """Base of every error dynwalk raises for a bad input or a violated model assumption."""


class ScheduleError(DynwalkError):
    """A schedule could not produce a valid snapshot, or a flood met a disconnected one."""


RR_MAX_TRIES = 10_000  # pairing attempts `random_regular_graph` makes before it gives up
# Largest n*d a schedule may have: a snapshot holds its n*d ports as one
# n x d int64 table, 8 bytes a port, so 8 MB; `random_regular_graph` peaks
# near 48 bytes a port while it builds one, 16 of them its stubs.
MAX_PORTS = 1 << 20
# Largest n*d whose stubs `_stubs` keeps between builds (64 shapes, 16 bytes a
# port: 4 MB in all); a larger shape's stubs go with its build.
STUB_CACHE_PORTS = 1 << 12
# Largest n*n*d `dynamic_diameter` may gather: its (n, d, n) int32 take over
# all n rows at once is 4 bytes a cell, 64 MB.
MAX_DIAMETER_CELLS = 1 << 24
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Mix integer parts into one 64-bit stream seed (stable across runs)."""
    acc = 0x243F6A8885A308D3
    for p in parts:
        acc = _splitmix64(acc ^ (p & _MASK64))
    return acc


class GraphSnapshot:
    """One round's topology: a simple undirected d-regular graph on nodes
    [0, n) with d >= 1.  Any other edge list raises ValueError.

    The graph is stored once, as `nbr`: the read-only n x d int64 neighbor
    table whose row v lists v's neighbors in increasing order."""

    __slots__ = ("n", "d", "nbr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        norm = set()
        add = norm.add
        for u, v in edges:  # one pass: the first bad edge in input order raises
            if u < v and 0 <= u and v < n:
                add((u, v))
            elif v < u and 0 <= v and u < n:
                add((v, u))
            else:
                raise ValueError(f"self-loop at node {u}" if u == v else f"edge ({u},{v}) outside [0,{n})")
        # n*d = 2|E|, checked before anything sized by n is allocated
        if not norm or 2 * len(norm) % n:
            raise ValueError(f"{len(norm)} edges on {n} nodes make no d-regular graph with d >= 1")
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            rows[u].append(v)
            rows[v].append(u)
        if max(map(len, rows)) != 2 * len(norm) // n:  # the degrees sum to n*d, so they all equal d
            raise ValueError(f"snapshot degrees {sorted(set(map(len, rows)))} differ")
        for row in rows:
            row.sort()
        _set_table(self, rows)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Each edge once, as (u, v) with u < v, read from the table."""
        return frozenset((u, v) for u, row in enumerate(self.nbr.tolist()) for v in row if u < v)

    def __eq__(self, other) -> bool:
        return isinstance(other, GraphSnapshot) and self.n == other.n and self.nbr.tobytes() == other.nbr.tobytes()

    def __hash__(self) -> int:
        return hash((self.n, self.nbr.tobytes()))

    def __repr__(self) -> str:
        return f"GraphSnapshot(n={self.n}, m={self.n * self.d // 2})"


def _set_table(g: GraphSnapshot, rows) -> GraphSnapshot:
    """Store `rows`, the sorted neighbor rows of a simple d-regular graph, as
    g's read-only table; the one core every snapshot is made by.  Builders
    that know their graph to be one pass a bare `GraphSnapshot.__new__`."""
    nbr = np.asarray(rows, dtype=np.int64)
    nbr.flags.writeable = False
    g.n, g.d = nbr.shape
    g.nbr = nbr
    return g


@dataclass(frozen=True)
class ValidationReport:
    connected: bool
    bipartite: bool


def validate_snapshot(g: GraphSnapshot) -> ValidationReport:
    """Exact connectivity and 2-coloring bipartiteness checks (the degree is `g.d`)."""
    return _validate_rows(g.nbr.tolist())


def _validate_rows(adj: Sequence[Sequence[int]]) -> ValidationReport:
    """`validate_snapshot` of the graph whose row v lists v's neighbors."""
    color = [-1] * len(adj)
    color[0] = c = 0
    frontier = [0]
    seen = 1
    bipartite = True
    while frontier:  # one BFS level, all of color c, per pass
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if color[u] < 0:
                    color[u] = c ^ 1
                    nxt.append(u)
                elif color[u] == c:
                    bipartite = False
        seen += len(nxt)
        frontier = nxt
        c ^= 1
    connected = seen == len(adj)
    # A 2-coloring of one component says nothing about unreachable ones;
    # a disconnected report already fails every schedule invariant.
    return ValidationReport(connected=connected, bipartite=bipartite)


def _check_ports(n: int, d: int) -> None:
    """ScheduleError when n nodes of degree d exceed MAX_PORTS."""
    if n * d > MAX_PORTS:
        raise ScheduleError(f"n*d = {n}*{d} exceeds the limit of {MAX_PORTS} ports")


def named_graph(name: str) -> GraphSnapshot:
    """Build a standard graph from its short name: K<n>, C<n>, petersen."""
    key = name.strip().lower()
    if key == "petersen":
        edges = []
        for i in range(5):
            edges.append((i, (i + 1) % 5))        # outer cycle
            edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
            edges.append((i, 5 + i))              # spokes
        return GraphSnapshot(10, edges)
    if key.startswith("k") and key[1:].isdigit():
        n = int(key[1:])
        if n < 2:
            raise ValueError("K_n needs n >= 2")
        _check_ports(n, n - 1)
        return GraphSnapshot(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if key.startswith("c") and key[1:].isdigit():
        n = int(key[1:])
        if n < 3:
            raise ValueError("C_n needs n >= 3")
        _check_ports(n, 2)
        return GraphSnapshot(n, [(i, (i + 1) % n) for i in range(n)])
    raise ValueError(f"unknown graph name: {name!r}")


def _check_regular_shape(n: int, d: int) -> None:
    """Raise ScheduleError unless some connected non-bipartite d-regular
    graph on n nodes exists."""
    if n * d % 2 != 0:
        raise ScheduleError(f"n*d must be even, got n={n}, d={d}")
    if not 0 < d < n:
        raise ScheduleError(f"need 0 < d < n, got n={n}, d={d}")
    # A 1-regular graph is a perfect matching, connected only as K2; a
    # connected 2-regular graph on an even number of nodes is an even cycle.
    # Both are bipartite, so no number of pairing attempts finds one.
    if d == 1 or (d == 2 and n % 2 == 0):
        raise ScheduleError(f"no connected non-bipartite {d}-regular graph on n={n} nodes: "
                            f"need d >= 3, or d = 2 with n odd")
    _check_ports(n, d)


_SHUFFLE_WIDTHS = [(i + 1).bit_length() for i in range(1024)]  # bits random.shuffle draws at index i


def _shuffle(x: list, rng: random.Random) -> None:
    """Shuffle `x` in place exactly as `rng.shuffle(x)` does: the same
    Fisher-Yates swaps from the same `rng.getrandbits` calls, each redrawn
    while above i, without a method call per element."""
    getrandbits = rng.getrandbits
    widths = _SHUFFLE_WIDTHS if len(x) <= len(_SHUFFLE_WIDTHS) else [(i + 1).bit_length() for i in range(len(x))]
    for i in range(len(x) - 1, 0, -1):
        k = widths[i]
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


@lru_cache(maxsize=64)
def _stubs(n: int, d: int) -> tuple[int, ...]:
    """Each node's d stubs, node by node."""
    return tuple(v for v in range(n) for _ in range(d))


def random_regular_graph(n: int, d: int, rng: random.Random) -> GraphSnapshot:
    """Random connected non-bipartite d-regular graph.

    Configuration-model pairing: stubs violating simplicity go back into the
    pool for another shuffle, and an attempt restarts when no suitable pair
    remains.  Simple graphs that come out disconnected or bipartite are
    rejected as a whole.  Capped at `RR_MAX_TRIES` attempts in total.
    """
    _check_regular_shape(n, d)
    all_stubs = _stubs(n, d) if n * d <= STUB_CACHE_PORTS else _stubs.__wrapped__(n, d)
    for _ in range(RR_MAX_TRIES):
        adj: list[list[int]] = [[] for _ in range(n)]  # row u: u's neighbors so far, fewer than d
        stubs = list(all_stubs)
        while stubs:
            _shuffle(stubs, rng)
            leftovers: dict[int, int] = {}
            it = iter(stubs)
            for u, v in zip(it, it):
                if u > v:
                    u, v = v, u
                row = adj[u]
                if u != v and v not in row:
                    row.append(v)
                    adj[v].append(u)
                else:
                    leftovers[u] = leftovers.get(u, 0) + 1
                    leftovers[v] = leftovers.get(v, 0) + 1
            # Some pair of leftover stubs must still form a fresh edge.
            nodes = sorted(leftovers)
            if nodes and all(v in adj[u] for i, u in enumerate(nodes) for v in nodes[i + 1:]):
                break
            stubs = [v for v, c in leftovers.items() for _ in range(c)]
        else:  # a completed pairing gives every node d distinct neighbors
            report = _validate_rows(adj)
            if report.connected and not report.bipartite:
                for row in adj:
                    row.sort()
                nbr = np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=n * d).reshape(n, d)
                return _set_table(GraphSnapshot.__new__(GraphSnapshot), nbr)
    raise ScheduleError(f"no valid {d}-regular graph on {n} nodes after {RR_MAX_TRIES} tries")


class FloodTrace(NamedTuple):
    """The course of one flood (see `GraphSchedule.flood_trace`): its round
    i runs on snapshot start_round + i.  A one-source trace is memoized and
    returned as the same object on every later call."""

    sent: tuple[int, ...]  # messages sent in each round
    informed: np.ndarray  # read-only: node -> absolute round informed, start_round - 1 at sources, -1 if never
    complete: bool  # False: round start_round + len(sent) informs nobody, see `flood_failure`


class GraphSchedule:
    """Base class: deterministic map from round number to snapshot, every
    one of them d-regular for the schedule's one declared degree d >= 1."""

    # Cells of flood memo entries kept, 2n each; cleared when full.  A set
    # flood whose missing rows would exceed it is run as one row instead.
    FLOOD_MEMO_CELLS = 1 << 18
    period: int | None = None  # snapshot_at(t + period) == snapshot_at(t), when known

    def __init__(self, n: int, d: int, seed: int, spec: str):
        self.n = n
        self.d = d
        self.seed = seed
        self.spec = spec
        self._cache: dict[int, GraphSnapshot] = {}
        self._cache_cap = 512
        # (start round, source) -> [its informed_rounds row, its FloodTrace or None]
        self._memo: dict[tuple[int, int], list] = {}

    def snapshot_at(self, t: int) -> GraphSnapshot:
        if t < 1:
            raise ValueError(f"rounds are 1-indexed, got t={t}")
        snap = self._cache.get(t)
        if snap is None:
            snap = self._build(t)
            if len(self._cache) >= self._cache_cap:
                self._cache.clear()
            self._cache[t] = snap
        return snap

    def _build(self, t: int) -> GraphSnapshot:
        raise NotImplementedError

    def flood_trace(self, sources: Collection[int], start_round: int) -> FloodTrace:
        """The flood from `sources` starting on snapshot `start_round`.

        Floods use no randomness, so the trace depends on nothing else.  It
        is read from the minimum of its sources' memoized rows (see
        `_trace`), whatever budget the caller has in mind; a one-source
        trace is memoized beside its row.  Sources whose missing rows would
        not fit in FLOOD_MEMO_CELLS get one row of their own instead, from
        one BFS that starts at all of them.  A set whose rows are all
        memoized is read without deduplicating it, unless its first two
        entries are one node: it may be a set of one, whose trace is kept.
        """
        entry = self._memo.get((start_round, *sources)) if len(sources) == 1 else None
        if entry is not None and entry[1] is not None:  # a stored one-source trace
            return entry[1]
        if len(sources) > 1:
            try:  # one pass gathers the members' memoized rows
                rows = [self._memo[start_round, s][0] for s in sources]
                if rows[0] is not rows[1]:  # two distinct members: no one-source trace to keep
                    return self._trace(np.minimum.reduce(rows), start_round)
            except KeyError:
                pass
        sources = list(set(sources))
        cells = 2 * self.n
        if len(sources) * cells > self.FLOOD_MEMO_CELLS and (
            sum((start_round, s) not in self._memo for s in sources) * cells > self.FLOOD_MEMO_CELLS
        ):
            return self._trace(informed_rounds(self, [sources], start_round)[0], start_round)
        entries = self._entries(sources, start_round)
        if len(entries) > 1:
            return self._trace(np.minimum.reduce([row for row, _ in entries]), start_round)
        entry = entries[0]
        if entry[1] is None:
            entry[1] = self._trace(entry[0], start_round)
        return entry[1]

    def _entries(self, sources: Sequence[int], start_round: int) -> list[list]:
        """The memo entries [row, trace or None] of the distinct `sources`
        from snapshot `start_round`.  One `informed_rounds` BFS computes every
        missing row.  An entry counts as two rows, room for its trace."""
        entries = [self._memo.get((start_round, s)) for s in sources]
        if None in entries:
            missing = [s for s, entry in zip(sources, entries) if entry is None]
            computed = [[row, None] for row in informed_rounds(self, missing, start_round)]
            cells = 2 * self.n
            if (len(self._memo) + len(missing)) * cells > self.FLOOD_MEMO_CELLS:
                self._memo.clear()
            if len(missing) * cells <= self.FLOOD_MEMO_CELLS:
                self._memo.update(zip([(start_round, s) for s in missing], computed))
            fill = iter(computed)
            entries = [next(fill) if entry is None else entry for entry in entries]
        return entries

    def _trace(self, union: np.ndarray, start_round: int) -> FloodTrace:
        """The flood whose informed rounds are the row `union`: a flood from
        a set informs a node exactly when a flood from one of its members
        does, so a set's row is the minimum of its members' rows.

        The trace runs until every node is informed, at most n - 1 rounds,
        or to the first round that informs nobody while some node is
        uninformed: a disconnected snapshot, or one whose build raised.
        """
        n = self.n
        new = np.bincount(union, minlength=n + 2).tolist()  # nodes informed in each round
        sent = []
        have = new[0]
        for r in range(1, n + 1):
            if have == n or not new[r]:
                break
            sent.append(self.d * have)
            have += new[r]
        informed = np.add(union, start_round - 1, dtype=np.int64)
        if have < n:  # the nodes the row informs after the flood's last round
            informed[union > len(sent)] = -1
        informed.setflags(write=False)
        return FloodTrace(tuple(sent), informed, have == n)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(spec={self.spec!r}, n={self.n}, d={self.d}, seed={self.seed})"


class StaticSchedule(GraphSchedule):
    """The same snapshot every round."""

    period = 1

    def __init__(self, graph: GraphSnapshot, seed: int = 0, spec: str = "static"):
        super().__init__(graph.n, graph.d, seed, spec)
        self._graph = graph

    def snapshot_at(self, t: int) -> GraphSnapshot:
        if t < 1:
            raise ValueError(f"rounds are 1-indexed, got t={t}")
        return self._graph


class PeriodicSchedule(GraphSchedule):
    """Cycles through a finite list of snapshots."""

    def __init__(self, graphs: Sequence[GraphSnapshot], seed: int = 0, spec: str = "periodic"):
        if not graphs:
            raise ScheduleError("periodic schedule needs at least one graph")
        n, d = graphs[0].n, graphs[0].d
        if any((g.n, g.d) != (n, d) for g in graphs):  # a walk is uniform at stationarity only then
            shapes = sorted({(g.n, g.d) for g in graphs})
            raise ScheduleError(f"non-regular schedule {spec!r}: its snapshots' (n, d) are {shapes}, not one pair")
        super().__init__(n, d, seed, spec)
        self._graphs = list(graphs)
        self.period = len(graphs)

    def _build(self, t: int) -> GraphSnapshot:
        return self._graphs[(t - 1) % len(self._graphs)]


class RandomRegularSchedule(GraphSchedule):
    """A fresh random d-regular connected non-bipartite graph each round."""

    def __init__(self, n: int, d: int, seed: int, spec: str | None = None):
        _check_regular_shape(n, d)  # not at the first snapshot build
        super().__init__(n, d, seed, spec or f"rr:n={n},d={d}")

    def _build(self, t: int) -> GraphSnapshot:
        rng = random.Random(derive_seed(self.seed, t, 1))
        try:
            return random_regular_graph(self.n, self.d, rng)
        except ScheduleError as exc:
            raise ScheduleError(f"round {t}: {exc}") from exc


class PermutedSchedule(GraphSchedule):
    """Seeded random relabeling of a fixed base graph each round.

    Oblivious churn generator: regularity, connectivity, and bipartiteness
    are invariant under relabeling, while the edge set changes every round.
    """

    def __init__(self, base: GraphSnapshot, seed: int, spec: str = "perm"):
        super().__init__(base.n, base.d, seed, spec)
        self._base = base

    def _build(self, t: int) -> GraphSnapshot:
        rng = random.Random(derive_seed(self.seed, t, 2))
        perm = list(range(self.n))
        _shuffle(perm, rng)
        # Node u becomes perm[u], so row perm[u] holds the relabeled row u.
        # A relabeled simple d-regular graph is one: nothing to check.
        perm = np.array(perm, dtype=np.int64)
        nbr = np.empty_like(self._base.nbr)
        nbr[perm] = perm[self._base.nbr]
        nbr.sort(axis=1)
        return _set_table(GraphSnapshot.__new__(GraphSnapshot), nbr)


def informed_rounds(
    schedule: GraphSchedule, sources: Sequence[int | Sequence[int]], start_round: int = 1
) -> np.ndarray:
    """The one temporal BFS, run for each entry of `sources` alone: a node,
    or a list of nodes that flood together as one set.

    Row i of the returned (len(sources), n) int32 array holds, for each node,
    the round in which a flood from sources[i] informs it: 0 at a source,
    r when round r (on snapshot start_round + r - 1) informs it, and n + 1
    when no round within n does.  In round r every informed node sends
    on each of its current edges, so a node is informed when any of its
    neighbors was informed before r: one pull gather on the snapshot's
    neighbor table for all rows at once.  Rows run until all are complete or
    n rounds have passed, rounds that inform nobody included.  If a snapshot
    build raises ScheduleError, all rows stop there: that round and every
    later one inform nobody.
    """
    n = schedule.n
    rounds = np.full((len(sources), n), n + 1, dtype=np.int32)
    for i, source in enumerate(sources):
        rounds[i, source] = 0
    for r in range(1, n + 1):
        if rounds.max() <= n:  # every row is complete
            break
        try:
            nbr = schedule.snapshot_at(start_round + r - 1).nbr
        except ScheduleError:
            break
        # One round after the earliest-informed neighbor, and no earlier than
        # r, since the edge to it exists in round r only.
        reach = rounds.take(nbr.T, axis=1).min(axis=1)
        reach += 1
        np.maximum(reach, r, out=reach)
        np.minimum(rounds, reach, out=rounds)
    return rounds


def flood_failure(schedule: GraphSchedule, t: int) -> ScheduleError:
    """The error of a flood whose round t informs nobody while some node is
    uninformed: the ScheduleError that building snapshot t raises, or else a
    stall on a disconnected snapshot."""
    try:
        schedule.snapshot_at(t)
    except ScheduleError as exc:
        return exc
    return ScheduleError(f"flood stalled at round {t}: snapshot disconnected")


def flooding_time(schedule: GraphSchedule, source: int, start_round: int = 1) -> int:
    """Rounds of temporal BFS (`informed_rounds`) needed to inform all n
    nodes from `source`, starting on snapshot `start_round`.  A flood that
    stalls or meets a failed snapshot build raises its `flood_failure`."""
    sent, _, complete = schedule.flood_trace((source,), start_round)
    if not complete:
        raise flood_failure(schedule, start_round + len(sent))
    return len(sent)


def dynamic_diameter(schedule: GraphSchedule, horizon: int) -> int:
    """Max flooding time over all sources and start rounds in [1, horizon],
    from one batch of n rows per start round; ScheduleError before the first
    BFS when that batch's gather of n*n*d cells exceeds MAX_DIAMETER_CELLS."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n, d = schedule.n, schedule.d
    if n * n * d > MAX_DIAMETER_CELLS:
        raise ScheduleError(f"dynamic diameter of n={n}, d={d}: n*n*d exceeds the limit of {MAX_DIAMETER_CELLS} cells")
    best = 0
    for start in range(1, horizon + 1):
        rows = np.array([row for row, _ in schedule._entries(range(n), start)])
        rows.sort(axis=1)
        # A round missing from a row is one its flood stalls in, or never reaches.
        failed = (np.diff(rows, axis=1) > 1).any(axis=1)
        if failed.any():
            flooding_time(schedule, int(failed.argmax()), start)  # raises that source's error
        best = max(best, int(rows[:, -1].max()))
    return best


# ---------------------------------------------------------------------------
# Schedule files and spec strings
# ---------------------------------------------------------------------------

def write_schedule_file(schedule: GraphSchedule, rounds: int, path: str | Path) -> None:
    """Serialize the first `rounds` snapshots as JSON Lines with a header."""
    if rounds < 1:
        raise ValueError(f"rounds={rounds} must be at least 1")
    path = Path(path)
    with path.open("w") as fh:
        header = {"n": schedule.n, "d": schedule.d, "T": rounds}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for t in range(1, rounds + 1):
            g = schedule.snapshot_at(t)
            row = {"t": t, "edges": sorted([u, v] for u, v in g.edges)}
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_schedule_file(path: str | Path) -> list[GraphSnapshot]:
    """Read a schedule file; returns its snapshots ordered by t.

    A missing key, a value of the wrong shape, a snapshot that is not
    d-regular with d >= 1, rows whose t are not exactly 1..T, or a declared
    degree d that is not every snapshot's degree raise ScheduleError naming
    the file, and so does an n*d over MAX_PORTS (d = 1 when the header has
    none), before any snapshot is built.
    """
    path = Path(path)
    try:
        with path.open() as fh:
            lines = [line for line in fh if line.strip()]
    except OSError as exc:
        raise ScheduleError(f"cannot read schedule file {path}: {exc.strerror}") from None
    if not lines:
        raise ScheduleError(f"empty schedule file: {path}")
    try:
        header, *rows = map(json.loads, lines)
        n, d, T = header["n"], header.get("d"), header.get("T", len(rows))
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"n={n!r} is not a positive integer")
        _check_ports(n, d if isinstance(d, int) else 1)
        rows.sort(key=lambda row: row["t"])
        ts = [row["t"] for row in rows]
        graphs = [GraphSnapshot(n, [tuple(e) for e in row["edges"]]) for row in rows]
        in_order = T == len(ts) and ts == list(range(1, T + 1))
    except (KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise ScheduleError(f"malformed schedule file {path}: {type(exc).__name__}: {exc}") from None
    if not graphs:
        raise ScheduleError(f"schedule file {path} holds no snapshots")
    if not in_order:
        raise ScheduleError(f"schedule file {path} declares T={T} but its rows have t={ts}")
    if d is not None and any(g.d != d for g in graphs):
        raise ScheduleError(f"schedule file {path} declares d={d!r} but its snapshots have degree {sorted({g.d for g in graphs})}")
    return graphs


def _static_source(arg: str) -> GraphSnapshot:
    """The graph of a ``static:`` or ``perm:base=`` argument: a schedule
    file's first snapshot, or a named graph.  An argument that exists, has a
    path separator or ends in .jsonl is read as a file."""
    p = Path(arg)
    if p.exists() or p.name != arg or p.suffix == ".jsonl":
        return read_schedule_file(p)[0]
    return named_graph(arg)


def _spec_fields(spec: str, kind: str, arg: str, names: tuple[str, ...], convert) -> list:
    """The `names` fields of a ``key=value,...`` spec argument, converted;
    each name must appear exactly once, and no other key may."""
    try:
        pairs = [part.split("=", 1) for part in arg.split(",")]
        kv = {key: value.strip() for key, value in pairs}  # ValueError on a part without "="
        keys = [key for key, _ in pairs]
        bad = [key for i, key in enumerate(keys) if key not in names or key in keys[:i]]
        if bad:
            raise ScheduleError(f"malformed schedule spec {spec!r}: unknown or repeated key {bad[0]!r}")
        if not all(kv.get(name) for name in names):
            raise ValueError("missing or empty field")
        return [convert(kv[name]) for name in names]
    except ValueError:
        expected = ",".join(f"{name}=..." for name in names)
        raise ScheduleError(f"malformed schedule spec {spec!r}: expected {kind}:{expected}") from None


def parse_schedule_spec(spec: str, seed: int = 0) -> GraphSchedule:
    """Parse a generator spec string into a schedule.

    Grammar: ``static:<file|name>``, ``periodic:<file>``, ``rr:n=<n>,d=<d>``,
    ``perm:base=<file|name>``, plus ``srr:n=<n>,d=<d>`` for a static graph
    drawn once from the seed.
    """
    kind, _, arg = spec.partition(":")
    kind = kind.strip()
    arg = arg.strip()
    if kind in ("static", "periodic") and not arg:
        raise ScheduleError(f"malformed schedule spec {spec!r}: empty {kind} argument")
    if kind == "static":
        return StaticSchedule(_static_source(arg), seed=seed, spec=spec)
    if kind == "periodic":
        return PeriodicSchedule(read_schedule_file(arg), seed=seed, spec=spec)
    if kind in ("rr", "srr"):
        n, d = _spec_fields(spec, kind, arg, ("n", "d"), int)
        if kind == "rr":
            return RandomRegularSchedule(n, d, seed=seed, spec=spec)
        g = random_regular_graph(n, d, random.Random(derive_seed(seed, 0, 3)))
        return StaticSchedule(g, seed=seed, spec=spec)
    if kind == "perm":
        (base,) = _spec_fields(spec, kind, arg, ("base",), str)
        return PermutedSchedule(_static_source(base), seed=seed, spec=spec)
    raise ScheduleError(f"unknown schedule spec: {spec!r}")
