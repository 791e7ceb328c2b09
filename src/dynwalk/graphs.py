"""Evolving-graph schedules and temporal reachability.

A schedule maps each round t >= 1 to a graph snapshot on a fixed node set
[0, n).  Snapshots are pure functions of (generator spec, seed, t), so the
adversary is oblivious by construction: its randomness never touches the
algorithm's streams.
"""
from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

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
    "flood_rounds",
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
    """One round's topology: a simple undirected graph on nodes [0, n)."""

    __slots__ = ("n", "round", "edges", "adj", "_nbr", "_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], round: int = 1):
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside [0,{n})")
            norm.add((u, v) if u < v else (v, u))
        self.n = n
        self.round = round
        self.edges = frozenset(norm)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in sorted(norm):
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(a) for a in adj)
        self._nbr: list[np.ndarray | None] = [None]  # shared with with_round clones
        self._mask: list[np.ndarray | None] = [None]  # likewise

    @property
    def nbr(self) -> np.ndarray:
        """Neighbor table, built on first use: row v lists adj[v], padded up to
        the maximum degree with -1 (no node id)."""
        nbr = self._nbr[0]
        if nbr is None:
            nbr = np.full((self.n, max(map(len, self.adj), default=0)), -1, dtype=np.int64)
            for v, a in enumerate(self.adj):
                nbr[v, : len(a)] = a
            self._nbr[0] = nbr
        return nbr

    @property
    def edge_mask(self) -> np.ndarray:
        """Flat n*n boolean edge lookup, built on first use: mask[u*n + v] is
        True iff (u, v) is an edge."""
        mask = self._mask[0]
        if mask is None:
            nbr = self.nbr
            rows, cols = np.nonzero(nbr >= 0)
            mask = np.zeros(self.n * self.n, dtype=bool)
            mask[rows * self.n + nbr[rows, cols]] = True
            self._mask[0] = mask
        return mask

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether (u, v) is an edge; False when either id is outside [0, n)."""
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.edge_mask[u * self.n + v])

    def with_round(self, t: int) -> "GraphSnapshot":
        if t == self.round:
            return self
        clone = object.__new__(GraphSnapshot)
        clone.n = self.n
        clone.round = t
        clone.edges = self.edges
        clone.adj = self.adj
        clone._nbr = self._nbr
        clone._mask = self._mask
        return clone

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GraphSnapshot)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"GraphSnapshot(n={self.n}, m={len(self.edges)}, round={self.round})"


@dataclass(frozen=True)
class ValidationReport:
    connected: bool
    regular_degree: int | None
    bipartite: bool

    def satisfies(self, d: int | None = None) -> bool:
        ok = self.connected and not self.bipartite
        if d is not None:
            ok = ok and self.regular_degree == d
        return ok


def validate_snapshot(g: GraphSnapshot, d: int | None = None) -> ValidationReport:
    """Exact connectivity, degree, and 2-coloring bipartiteness checks."""
    degrees = [g.degree(v) for v in range(g.n)]
    uniform = degrees[0] if g.n > 0 and all(x == degrees[0] for x in degrees) else None

    color = [-1] * g.n
    color[0] = 0
    queue = deque([0])
    seen = 1
    bipartite = True
    while queue:
        v = queue.popleft()
        for u in g.adj[v]:
            if color[u] == -1:
                color[u] = color[v] ^ 1
                seen += 1
                queue.append(u)
            elif color[u] == color[v]:
                bipartite = False
    connected = seen == g.n
    # A 2-coloring of one component says nothing about unreachable ones;
    # a disconnected report already fails every schedule invariant.
    return ValidationReport(connected=connected, regular_degree=uniform, bipartite=bipartite)


def named_graph(name: str) -> GraphSnapshot:
    """Build a standard graph from its short name: K<n>, C<n>, petersen, star<k>."""
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
        return GraphSnapshot(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if key.startswith("c") and key[1:].isdigit():
        n = int(key[1:])
        if n < 3:
            raise ValueError("C_n needs n >= 3")
        return GraphSnapshot(n, [(i, (i + 1) % n) for i in range(n)])
    if key.startswith("star") and key[4:].isdigit():
        k = int(key[4:])
        return GraphSnapshot(k + 1, [(0, i) for i in range(1, k + 1)])
    raise ValueError(f"unknown graph name: {name!r}")


def random_regular_graph(
    n: int, d: int, rng: random.Random, max_tries: int = 10_000
) -> GraphSnapshot:
    """Random connected non-bipartite d-regular graph.

    Configuration-model pairing: stubs violating simplicity go back into the
    pool for another shuffle, and an attempt restarts when no suitable pair
    remains.  Simple graphs that come out disconnected or bipartite are
    rejected as a whole.  Capped at `max_tries` attempts in total.
    """
    if n * d % 2 != 0:
        raise ScheduleError(f"n*d must be even, got n={n}, d={d}")
    if not 0 < d < n:
        raise ScheduleError(f"need 0 < d < n, got n={n}, d={d}")

    def suitable(edges: set, leftovers: dict) -> bool:
        # Some pair of leftover stubs must still form a fresh edge.
        if not leftovers:
            return True
        nodes = list(leftovers)
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                e = (u, v) if u < v else (v, u)
                if e not in edges:
                    return True
        return False

    def try_pairing() -> set | None:
        edges: set[tuple[int, int]] = set()
        stubs = [v for v in range(n) for _ in range(d)]
        while stubs:
            leftovers: dict[int, int] = {}
            rng.shuffle(stubs)
            it = iter(stubs)
            for u, v in zip(it, it):
                if u > v:
                    u, v = v, u
                if u != v and (u, v) not in edges:
                    edges.add((u, v))
                else:
                    leftovers[u] = leftovers.get(u, 0) + 1
                    leftovers[v] = leftovers.get(v, 0) + 1
            if not suitable(edges, leftovers):
                return None
            stubs = [v for v, c in leftovers.items() for _ in range(c)]
        return edges

    for _ in range(max_tries):
        edges = try_pairing()
        if edges is None:
            continue
        g = GraphSnapshot(n, edges)
        report = validate_snapshot(g, d)
        if report.connected and not report.bipartite:
            return g
    raise ScheduleError(f"no valid {d}-regular graph on {n} nodes after {max_tries} tries")


class FloodTrace(NamedTuple):
    """The course of one flood (see `GraphSchedule.flood_trace`): its round
    i runs on snapshot start_round + i."""

    sent: tuple[int, ...]  # messages sent in each round
    informed: dict[int, int]  # node -> round informed, for each node the flood informs; read-only
    error: ScheduleError | None  # raised by the round after the last one, if any


class GraphSchedule:
    """Base class: deterministic map from round number to snapshot."""

    FLOOD_MEMO_CAP = 256  # flood traces kept (about 2.5 kB each at n = 64); cleared when full

    def __init__(self, n: int, d: int | None, seed: int, spec: str):
        self.n = n
        self.d = d
        self.seed = seed
        self.spec = spec
        self._cache: dict[int, GraphSnapshot] = {}
        self._cache_cap = 512
        self._floods: dict[tuple[int, tuple[int, ...]], FloodTrace] = {}

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
        """The `flood_rounds` BFS from `sources` starting on snapshot
        `start_round`, memoized by (start_round, sorted sources).

        Floods use no randomness, so the trace depends on nothing else.  A
        miss runs the BFS to completion, at most n - 1 rounds, or to the
        ScheduleError of a stalled flood or a failed snapshot build, which the
        trace keeps; it does so whatever budget the caller has in mind.
        """
        key = (start_round, tuple(sorted(set(sources))))  # smaller than a frozenset
        trace = self._floods.get(key)
        if trace is None:
            sent, informed, error = [], {}, None
            try:
                for t, (msgs, new) in enumerate(flood_rounds(self, sources, start_round), start_round):
                    sent.append(msgs)
                    for u in new:
                        informed[u] = t
            except ScheduleError as exc:
                error = exc.with_traceback(None)
            trace = FloodTrace(tuple(sent), informed, error)
            if len(self._floods) >= self.FLOOD_MEMO_CAP:
                self._floods.clear()
            self._floods[key] = trace
        return trace

    def __repr__(self) -> str:
        return f"{type(self).__name__}(spec={self.spec!r}, n={self.n}, d={self.d}, seed={self.seed})"


class StaticSchedule(GraphSchedule):
    """The same snapshot every round."""

    def __init__(self, graph: GraphSnapshot, seed: int = 0, spec: str = "static"):
        report = validate_snapshot(graph)
        super().__init__(graph.n, report.regular_degree, seed, spec)
        self._graph = graph

    def snapshot_at(self, t: int) -> GraphSnapshot:
        if t < 1:
            raise ValueError(f"rounds are 1-indexed, got t={t}")
        return self._graph

    @property
    def graph(self) -> GraphSnapshot:
        return self._graph


class PeriodicSchedule(GraphSchedule):
    """Cycles through a finite list of snapshots."""

    def __init__(self, graphs: Sequence[GraphSnapshot], seed: int = 0, spec: str = "periodic"):
        if not graphs:
            raise ScheduleError("periodic schedule needs at least one graph")
        n = graphs[0].n
        if any(g.n != n for g in graphs):
            raise ScheduleError("all snapshots in a schedule share one node set")
        degs = {validate_snapshot(g).regular_degree for g in graphs}
        d = degs.pop() if len(degs) == 1 else None
        super().__init__(n, d, seed, spec)
        self._graphs = list(graphs)

    def _build(self, t: int) -> GraphSnapshot:
        return self._graphs[(t - 1) % len(self._graphs)].with_round(t)


class RandomRegularSchedule(GraphSchedule):
    """A fresh random d-regular connected non-bipartite graph each round."""

    def __init__(self, n: int, d: int, seed: int, spec: str | None = None):
        super().__init__(n, d, seed, spec or f"rr:n={n},d={d}")

    def _build(self, t: int) -> GraphSnapshot:
        rng = random.Random(derive_seed(self.seed, t, 1))
        try:
            g = random_regular_graph(self.n, self.d, rng)
        except ScheduleError as exc:
            raise ScheduleError(f"round {t}: {exc}") from exc
        return g.with_round(t)


class PermutedSchedule(GraphSchedule):
    """Seeded random relabeling of a fixed base graph each round.

    Oblivious churn generator: regularity, connectivity, and bipartiteness
    are invariant under relabeling, while the edge set changes every round.
    """

    def __init__(self, base: GraphSnapshot, seed: int, spec: str = "perm"):
        report = validate_snapshot(base)
        super().__init__(base.n, report.regular_degree, seed, spec)
        self._base = base

    def _build(self, t: int) -> GraphSnapshot:
        rng = random.Random(derive_seed(self.seed, t, 2))
        perm = list(range(self.n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in self._base.edges]
        return GraphSnapshot(self.n, edges, round=t)


def flood_rounds(
    schedule: GraphSchedule, sources: Iterable[int], start_round: int = 1
) -> Iterator[tuple[int, Collection[int]]]:
    """Temporal BFS from `sources`, one round per next().

    Round r runs on snapshot start_round + r - 1: every informed node sends
    on each of its edges.  Each round yields (messages sent, nodes newly
    informed).  A round that leaves nodes uninformed but informs none raises
    ScheduleError; per-round connectivity rules that out, so every node is
    informed within n - 1 rounds, and the generator stops there.  A flood
    that runs on after that sends 2|E_t| messages per round and informs
    nobody, so a caller charges those rounds without this generator.
    """
    n = schedule.n
    informed = set(sources)
    t = start_round
    while len(informed) < n:
        adj = schedule.snapshot_at(t).adj
        sent = [u for v in informed for u in adj[v]]
        new = set(sent)
        new -= informed
        if not new:
            raise ScheduleError(f"flood stalled at round {t}: snapshot disconnected")
        informed |= new
        yield len(sent), new
        t += 1


def flooding_time(schedule: GraphSchedule, source: int, start_round: int = 1) -> int:
    """Rounds of temporal BFS (`flood_rounds`) needed to inform all n nodes
    from `source`, starting on snapshot `start_round`."""
    return sum(1 for _ in flood_rounds(schedule, (source,), start_round))


def dynamic_diameter(schedule: GraphSchedule, horizon: int) -> int:
    """Max flooding time over all sources and start rounds in [1, horizon]."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    best = 0
    for start in range(1, horizon + 1):
        for source in range(schedule.n):
            best = max(best, flooding_time(schedule, source, start))
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


def read_schedule_file(path: str | Path) -> tuple[int, int | None, list[GraphSnapshot]]:
    """Read a schedule file; returns (n, d, snapshots ordered by t)."""
    path = Path(path)
    with path.open() as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines:
        raise ScheduleError(f"empty schedule file: {path}")
    header = lines[0]
    n, d = header["n"], header.get("d")
    rows = sorted(lines[1:], key=lambda row: row["t"])
    graphs = [GraphSnapshot(n, [tuple(e) for e in row["edges"]], round=row["t"]) for row in rows]
    if not graphs:
        raise ScheduleError(f"schedule file {path} holds no snapshots")
    if len(graphs) != header.get("T", len(graphs)):
        raise ScheduleError(f"schedule file {path} declares T={header.get('T')} but has {len(graphs)} rows")
    return n, d, graphs


def _static_source(arg: str) -> GraphSnapshot:
    p = Path(arg)
    if p.exists():
        _, _, graphs = read_schedule_file(p)
        return graphs[0]
    return named_graph(arg)


def _spec_fields(spec: str, kind: str, arg: str, names: tuple[str, ...], convert) -> list:
    """The `names` fields of a ``key=value,...`` spec argument, converted."""
    try:
        kv = dict(part.split("=", 1) for part in arg.split(","))
        values = [kv[name].strip() for name in names]
        if not all(values):
            raise ValueError("empty field")
        return [convert(v) for v in values]
    except (KeyError, ValueError):
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
    if kind == "static":
        return StaticSchedule(_static_source(arg), seed=seed, spec=spec)
    if kind == "periodic":
        _, _, graphs = read_schedule_file(arg)
        return PeriodicSchedule(graphs, seed=seed, spec=spec)
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
