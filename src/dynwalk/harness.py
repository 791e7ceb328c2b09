"""Experiment driver: schedule construction, seed sweeps, statistics
aggregation, result emission, and the lemma property suite.

Seed discipline: seed i of a sweep is base + i for the algorithm, while the
adversary (schedule) seed is base XOR a fixed tag, so schedule and algorithm
randomness never share a stream.
"""
from __future__ import annotations

import csv
import datetime
import json
import math
import random
import statistics
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import pairwise
from pathlib import Path

import numpy as np

from . import gossip as gossip_mod
from . import mixing as mixing_mod
from . import oracle as oracle_mod
from .engine import CongestEngine, SimConfig
from .graphs import (
    GraphSchedule,
    RandomRegularSchedule,
    StaticSchedule,
    dynamic_diameter,
    parse_schedule_spec,
    random_regular_graph,
)
from .walks import (
    WalkParams,
    concurrent_naive_walks,
    many_random_walks,
    naive_walk,
    single_random_walk,
    visit_stats,
)

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "ADVERSARY_TAG",
    "resolve_phi",
    "resolve_tau",
    "run_experiment",
    "lemma_suite",
    "PropertyResult",
    "load_config_file",
]

ADVERSARY_TAG = 0x5EED5C8E
PHI_HORIZON = 16
TAU_HORIZON = 8

@dataclass
class ExperimentConfig:
    schedule: str
    algo: str
    tau: str = "oracle"  # "oracle" | "worstcase" | integer string
    lambda_c: float = 1.0
    k: int = 4
    seeds: int = 100
    seed_base: int = 0
    bandwidth: int | None = None
    phi: str = "oracle"  # "oracle" | integer string
    out: str = "out"
    oracle: bool = False

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo!r}; choose from {ALGORITHMS}")
        if self.seeds < 1 or self.k < 1:
            raise ValueError(f"seeds and k must be at least 1, got seeds={self.seeds}, k={self.k}")
        if self.bandwidth is not None and self.bandwidth < 1:
            raise ValueError(f"bandwidth must be none or an integer >= 1, got bandwidth={self.bandwidth}")
        if not 0 < self.lambda_c < math.inf:
            raise ValueError(f"lambda_c must be finite and positive, got lambda_c={self.lambda_c}")
        for key, words, least in (("tau", ("oracle", "worstcase"), 0), ("phi", ("oracle",), 1)):
            value = getattr(self, key)
            if value not in words and not _is_int_at_least(value, least):
                raise ValueError(f"{key} must be {' or '.join(words)} or an integer >= {least}, got {key}={value!r}")

    def adversary_seed(self) -> int:
        return self.seed_base ^ ADVERSARY_TAG

    def to_dict(self) -> dict:
        return asdict(self)


def _is_int_at_least(text, least: int) -> bool:
    try:
        return int(text) >= least
    except ValueError:
        return False


def load_config_file(path: str | Path) -> dict:
    """Flat key=value config file; '#' starts a comment."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def config_from_values(values: dict) -> ExperimentConfig:
    """Build a config from file/flag string values; an absent key takes its
    field's default, and a key that names no field raises ValueError."""
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    unknown = sorted(set(values) - set(known))
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)}; known keys: {', '.join(known)}")
    if "schedule" not in values or "algo" not in values:
        raise ValueError("config needs at least schedule= and algo=")
    return ExperimentConfig(**{key: _parse_value(key, known[key], v) for key, v in values.items()})


def _parse_value(key: str, kind: str, value):
    """One config value, converted to its field's annotated type."""
    if kind == "bool":
        return _parse_bool(key, value)
    if kind == "int | None":
        return None if value in (None, "", "none") else int(value)
    return {"str": str, "int": int, "float": float}[kind](value)


def _parse_bool(key: str, value) -> bool:
    """Config booleans: true/1/yes or false/0/no/"" (any case); bools pass."""
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no", ""):
        return False
    raise ValueError(f"{key}={value!r} is not a boolean (true/false, 1/0, yes/no)")


def _oracle_phi(schedule: GraphSchedule) -> int:
    return dynamic_diameter(schedule, schedule.period or PHI_HORIZON)


def resolve_phi(config: ExperimentConfig, schedule: GraphSchedule) -> int:
    return _oracle_phi(schedule) if config.phi == "oracle" else int(config.phi)


def resolve_tau(config: ExperimentConfig, schedule: GraphSchedule) -> int:
    if config.tau == "worstcase":
        return 2 * schedule.n * schedule.n
    if config.tau != "oracle":
        return int(config.tau)
    return oracle_mod.dynamic_mixing_bound(schedule, schedule.period or TAU_HORIZON)


@dataclass
class RunReport:
    config: dict
    aggregates: dict
    per_seed_path: str | None
    csv_path: str | None
    generated_at: str
    failures: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "generated_at": self.generated_at,
            "aggregates": self.aggregates,
            "outputs": {"per_seed": self.per_seed_path, "csv": self.csv_path},
            "failures": self.failures,
        }


def _quantiles(values: list[float]) -> dict:
    values = sorted(values)
    return {
        "median": statistics.median(values),
        "q25": values[max(0, (len(values) - 1) // 4)],
        "q75": values[min(len(values) - 1, (3 * (len(values) - 1)) // 4)],
        "min": values[0],
        "max": values[-1],
    }


def _walk_row(seed: int, res) -> dict:
    return {"seed": seed, **{key: value for key, value in vars(res).items() if key != "path"}}


def _oracle_tv(schedule, source: int, tau: int, destinations: list[int]) -> float | None:
    if schedule.n > oracle_mod.N_CAP:
        return None
    p = oracle_mod.evolve(oracle_mod.point_mass(schedule.n, source), schedule, 1, tau)
    counts = np.bincount(destinations, minlength=schedule.n) / len(destinations)
    return oracle_mod.tv_distance(counts, p)


# A sweep runs one algorithm over the seeds: sweep(config, schedule, tau, phi,
# engines), where `engines` yields one (seed, engine) pair per seed, returns
# (rows, aggregates, failures).

def _walk_sweep(walks):
    """The sweep whose seeds each run `walks(config, engine, n, tau)`, one row
    per walk.  `tv_to_oracle` compares source 0's endpoints with the live
    walk law, which is a stitched walk's law only when every round has the
    same snapshot: it is None once a walk stitched (made a segment or a
    fallback) on a schedule whose period is not 1."""

    def sweep(config, schedule, tau, phi, engines):
        rows = [_walk_row(seed, res) for seed, engine in engines for res in walks(config, engine, schedule.n, tau)]
        aggregates = {
            "rounds": _quantiles([r["rounds_used"] for r in rows]),
            "fallbacks_total": sum(r["fallbacks"] for r in rows),
        }
        if config.oracle:
            unknown = schedule.period != 1 and any(r["segment_lengths"] or r["fallbacks"] for r in rows)
            destinations = [r["destination"] for r in rows if r["source"] == 0]
            aggregates["tv_to_oracle"] = None if unknown else _oracle_tv(schedule, 0, tau, destinations)
        return rows, aggregates, []

    return sweep


def _batch(k):
    """A seed's walks: one `many_random_walks` batch from nodes j mod n, j < k(config),
    lambda sized for k(config) walks."""
    return lambda config, engine, n, tau: many_random_walks(
        engine, [j % n for j in range(k(config))],
        WalkParams.for_many(tau, engine.config.phi, k(config), config.lambda_c), record_path=False,
    )


def _gossip_sweep(config, schedule, tau, phi, engines):
    assignment = {t: [(t - 1) % schedule.n] for t in range(1, config.k + 1)}
    params = gossip_mod.resolve_gossip_params(schedule.n, config.k, tau, phi)
    rows = []
    for seed, engine in engines:
        race = gossip_mod.k_gossip_race(engine, assignment, params, tau, phi)
        rows.append({
            "n": schedule.n, "d": schedule.d, "k": config.k, "tau": tau, "phi": phi, "f": params.f,
            "rounds_rw": race.rounds_rw, "phase1_rounds": race.phase1_rounds,
            "rounds_trivial": race.rounds_trivial, "winner": race.winner,
            "coverage_rw": int(race.coverage_rw_complete), "seed": seed,
        })
    aggregates = {
        "rounds_rw": _quantiles([r["rounds_rw"] for r in rows]),
        "rounds_trivial": _quantiles([r["rounds_trivial"] for r in rows]),
        "coverage_rate": sum(r["coverage_rw"] for r in rows) / len(rows),
        "winners": {w: sum(r["winner"] == w for r in rows) for w in ("rw", "trivial")},
    }
    return rows, aggregates, []


def _mix_sweep(config, schedule, tau, phi, engines):
    bracket = None  # the oracle's (lo, hi), the same for every seed
    if config.oracle and schedule.n <= oracle_mod.N_CAP:
        epsilons = (oracle_mod.MIX_EPS, mixing_mod.epsilon_prime(schedule.n))
        bracket = tuple(oracle_mod.mixing_time_oracle(schedule, 0, eps) for eps in epsilons)
    rows = [
        {**mixing_mod.estimate_mixing_time(engine, 0, phi).to_report(0, bracket), "seed": seed}
        for seed, engine in engines
    ]
    failures = [
        f"seed {r['seed']}: tau_tilde {r['tau_tilde']} outside {bracket}"
        for r in rows if bracket and not bracket[0] <= r["tau_tilde"] <= bracket[1]
    ]
    aggregates = {key: _quantiles([r[key] for r in rows]) for key in ("tau_tilde", "total_rounds")}
    return rows, aggregates, failures


# algorithm -> (sweep, per-seed file, written as CSV when it ends in .csv and
# as JSON Lines otherwise); `lemma-suite` resolves no phi or tau and has no sweep.
SWEEPS = {
    "naive": (
        _walk_sweep(lambda config, engine, n, tau: [naive_walk(engine, 0, tau, record_path=False)]),
        "naive_per_seed.jsonl",
    ),
    "single": (_walk_sweep(_batch(lambda config: 1)), "single_per_seed.jsonl"),
    "many": (_walk_sweep(_batch(lambda config: config.k)), "many_per_seed.jsonl"),
    "gossip": (_gossip_sweep, "gossip.csv"),
    "estimate-mix": (_mix_sweep, "estimate-mix_per_seed.jsonl"),
}
ALGORITHMS = (*SWEEPS, "lemma-suite")


def run_experiment(config: ExperimentConfig, schedule: GraphSchedule | None = None) -> tuple[RunReport, int]:
    """Execute the configured algorithm over the seed sweep.

    `schedule` is the one `config.schedule` names, parsed here when not
    given.  Returns (report, exit_code): 0 pass, 1 property failure, 2 on
    config/schedule errors (raised as exceptions by lower layers).  The
    output directory is made after the sweep, so a failed one leaves none.
    """
    if schedule is None:
        schedule = parse_schedule_spec(config.schedule, seed=config.adversary_seed())
    if config.algo == "lemma-suite":
        results = lemma_suite(config.seeds, config.seed_base, census_trials=min(200, max(30, config.seeds)))
        rows = [r.to_dict() for r in results]
        failures = [r.name for r in results if not r.passed]
        aggregates = {"properties": rows, "failed": failures}
        name = "lemma_suite.jsonl"
    else:
        sweep, name = SWEEPS[config.algo]
        phi = resolve_phi(config, schedule)
        tau = resolve_tau(config, schedule)
        sim = SimConfig(bandwidth_bits=config.bandwidth, phi=phi)
        seeds = range(config.seed_base, config.seed_base + config.seeds)
        engines = ((seed, CongestEngine(schedule, replace(sim, seed=seed))) for seed in seeds)
        rows, aggregates, failures = sweep(config, schedule, tau, phi, engines)
        aggregates |= {"tau": tau, "phi": phi}

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    is_csv = path.suffix == ".csv"
    with path.open("w", newline="") as fh:
        if is_csv:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        else:
            fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    report = RunReport(
        config=config.to_dict(),
        aggregates=aggregates,
        per_seed_path=None if is_csv else str(path),
        csv_path=str(path) if is_csv else None,
        generated_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        failures=failures,
    )
    (out_dir / "report.json").write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    return report, (1 if failures else 0)


# ---------------------------------------------------------------------------
# Lemma property suite
# ---------------------------------------------------------------------------

@dataclass
class PropertyResult:
    name: str
    trials: int
    violations: int
    worst_margin: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


_SUITE_NS = [8, 10, 12, 16, 20, 24, 28, 32]
_SUITE_DS = [3, 4, 5]


def _suite_shape(rng: random.Random) -> tuple[int, int]:
    n, d = rng.choice(_SUITE_NS), rng.choice(_SUITE_DS)
    return n, (4 if (n * d) % 2 else d)


def _random_schedule(rng: random.Random) -> GraphSchedule:
    return RandomRegularSchedule(*_suite_shape(rng), seed=rng.randrange(2**48))


def _random_distribution(rng: random.Random, n: int) -> np.ndarray:
    weights = np.array([rng.random() for _ in range(n)]) + 1e-9
    return weights / weights.sum()


def _property(name: str, instances: int, seed: int, tol: float, margins) -> PropertyResult:
    """`margins(rng)` draws one instance and returns its margins; an instance
    violates when any of them exceeds tol."""
    rng = random.Random(seed)
    worst = -math.inf
    violations = 0
    for _ in range(instances):
        ms = margins(rng)
        worst = max([worst, *ms])
        violations += any(m > tol for m in ms)
    return PropertyResult(name, instances, violations, worst, violations == 0)


def _stack(schedule: GraphSchedule, rounds: int) -> np.ndarray:
    """The walk matrices of the snapshots of rounds 1..rounds, one stack."""
    return oracle_mod.transition_matrices([schedule.snapshot_at(t) for t in range(1, rounds + 1)])


def _laws(p0: np.ndarray, stack: np.ndarray) -> list[np.ndarray]:
    """p_0 .. p_T of the walk started from p0 at round 1 through the T
    matrices of `stack`, one `p @ P` per step as `oracle.walk_laws` takes."""
    laws = [np.asarray(p0, dtype=float)]
    for P in stack:
        laws.append(laws[-1] @ P)
    return laws


def _worst_lambda(stack: np.ndarray) -> float:
    """Largest |lambda_2| over the (symmetric) matrices of `stack`, from one
    batched eigvalsh: max(lambda_{n-1}, -lambda_1) of each, as `spectral_summary` reads it."""
    eigs = np.linalg.eigvalsh(stack)  # ascending along the last axis
    return float(max(eigs[:, -2].max(), -eigs[:, 0].min()))


def check_stationarity(instances: int, seed: int, tol: float = 1e-12, steps: int = 20) -> PropertyResult:
    """Uniform is exactly stationary on regular schedules."""

    def margins(rng):
        schedule = _random_schedule(rng)
        p = _laws(oracle_mod.uniform(schedule.n), _stack(schedule, steps))[-1]
        return [float(np.abs(p - 1.0 / schedule.n).max())]

    return _property("stationarity", instances, seed, tol, margins)


def check_contraction(instances: int, seed: int, tol: float = 1e-7, steps: int = 50) -> PropertyResult:
    """||p_t - u|| <= lambda^t * ||p_0 - u|| with lambda the worst snapshot
    second eigenvalue (absolute) over the steps used."""

    def margins(rng):
        schedule = _random_schedule(rng)
        p0 = _random_distribution(rng, schedule.n)
        stack = _stack(schedule, steps)
        lam = _worst_lambda(stack)
        bound = oracle_mod.l2_to_uniform(p0)
        out = []
        for p in _laws(p0, stack)[1:]:
            bound *= lam
            out.append(oracle_mod.l2_to_uniform(p) - bound)
        return out

    return _property("contraction", instances, seed, tol, margins)


def check_monotonicity(instances: int, seed: int, tol: float = 1e-7, steps: int = 50) -> PropertyResult:
    """Distance to uniform never increases step over step."""

    def margins(rng):
        schedule = _random_schedule(rng)
        p0 = oracle_mod.point_mass(schedule.n, rng.randrange(schedule.n))
        dists = [oracle_mod.l2_to_uniform(p) for p in _laws(p0, _stack(schedule, steps))]
        return [cur - prev for prev, cur in pairwise(dists)]

    return _property("monotonicity", instances, seed, tol, margins)


def check_eigen_bound(instances: int, seed: int, tol: float = 1e-7) -> PropertyResult:
    """Signed second eigenvalue is at most 1 - 1/(d*D*n), D the diameter."""

    def margins(rng):
        n, d = _suite_shape(rng)
        g = random_regular_graph(n, d, rng)
        bound = 1.0 - 1.0 / (d * dynamic_diameter(StaticSchedule(g), 1) * n)
        return [oracle_mod.spectral_summary(g).lambda2_signed - bound]

    return _property("eigen_bound", instances, seed, tol, margins)


def check_supnorm(instances: int, seed: int, tol: float = 1e-7, steps: int = 30) -> PropertyResult:
    """Sup norm of the evolving distribution never increases."""

    def margins(rng):
        schedule = _random_schedule(rng)
        p0 = _random_distribution(rng, schedule.n)
        sups = [float(np.abs(p).max()) for p in _laws(p0, _stack(schedule, steps))]
        return [cur - prev for prev, cur in pairwise(sups)]

    return _property("supnorm_nonincrease", instances, seed, tol, margins)


def check_mixing_bound(instances: int, seed: int, c: float = 3.0) -> PropertyResult:
    """Measured tau^x(1/n) <= c * ln(n) / (1 - lambda), lambda over snapshots."""

    def margins(rng):
        schedule = _random_schedule(rng)
        n = schedule.n
        tau = oracle_mod.mixing_time_oracle(schedule, rng.randrange(n), 1.0 / n)
        return [tau - c * math.log(n) / (1.0 - _worst_lambda(_stack(schedule, max(2, tau))))]

    return _property("mixing_time_bound", instances, seed, 0.0, margins)


def _census(
    name: str, schedule: GraphSchedule, trials: int, seed: int, phi: int | None,
    walks, margins, freq: float, note: str,
) -> PropertyResult:
    """Trial i runs `walks(engine, i)` on a fresh engine seeded seed + i, and
    `margins(stats)` turns its visit census into (margin, violated) pairs.
    Every pair counts; violations are tolerated up to `freq` per pair."""
    worst = -math.inf
    pairs = violations = 0
    for i in range(trials):
        engine = CongestEngine(schedule, SimConfig(seed=seed + i, bandwidth_bits=1 << 30, phi=phi))
        for margin, violated in margins(visit_stats(walks(engine, i), schedule.n)):
            pairs += 1
            worst = max(worst, margin)
            if violated:
                violations += 1
    allowed = freq * pairs
    note = f"{note}, allowed_violations={allowed:.1f}"
    return PropertyResult(name, pairs, violations, worst, violations <= allowed, note)


def check_visits_bound(
    schedule: GraphSchedule,
    k: int,
    length: int,
    trials: int,
    seed: int,
    phi: int | None = None,
) -> PropertyResult:
    """Monte-Carlo census of the walk visits bound 32*d*sqrt(k*l+1)*log2(n)+k.

    A trial violates when some node collects more visits than the bound over
    k naive walks of the given length; the tolerated frequency is 1/n + 0.02.
    The constant 32 is the paper's.  At the lemma suite's sizes the bound is
    1,300 to 9,726 visits, while k walks of length l make at most
    k*(l+1) <= 644 visits in all (no node collects more than 110 in the
    suite's runs), so there the census cannot fail.
    """
    n = schedule.n
    bound = 32.0 * schedule.d * math.sqrt(k * length + 1.0) * math.log2(n) + k
    sources = [j % n for j in range(k)]

    def margins(stats):
        peak = float(stats.visits.max())
        return [(peak - bound, peak >= bound)]

    return _census(
        f"visits_bound_k{k}_l{length}", schedule, trials, seed, phi,
        lambda engine, i: concurrent_naive_walks(engine, sources, length),
        margins, 1.0 / n + 0.02, f"bound={bound:.1f}",
    )


def check_connector_bound(
    schedule: GraphSchedule,
    tau: int,
    trials: int,
    seed: int,
    phi: int,
    lambda_c: float = 1.0,
) -> PropertyResult:
    """Stitched-walk census: a node visited t times appears as a connector at
    most t*(log2 n)^2/lambda times; violation frequency over (trial, node)
    pairs tolerated up to 1/n^2 + 0.02."""
    n = schedule.n
    params = WalkParams.for_many(tau, phi, 1, lambda_c)
    factor = (math.log2(n) ** 2) / params.lambda_walk

    def margins(stats):
        for y in np.flatnonzero(stats.visits).tolist():
            margin = stats.connector_counts[y] - int(stats.visits[y]) * factor
            yield margin, margin > 0

    return _census(
        f"connector_bound_tau{tau}", schedule, trials, seed, phi,
        lambda engine, i: [single_random_walk(engine, i % n, params)],
        margins, 1.0 / n**2 + 0.02, f"lambda={params.lambda_walk}",
    )


def lemma_suite(instances: int = 200, seed: int = 0, census_trials: int = 200) -> list[PropertyResult]:
    """Run every declared invariant at its stated sample size and tolerance."""
    results = [
        check_stationarity(instances, seed ^ 0x51),
        check_monotonicity(instances, seed ^ 0x52),
        check_contraction(instances, seed ^ 0x53),
        check_eigen_bound(instances, seed ^ 0x54),
        check_supnorm(instances, seed ^ 0x55),
        check_mixing_bound(max(20, instances // 4), seed ^ 0x56),
    ]
    c9 = parse_schedule_spec("static:C9", seed=seed ^ ADVERSARY_TAG)
    rr16 = parse_schedule_spec("srr:n=16,d=3", seed=seed ^ ADVERSARY_TAG)
    for sched, phi in ((c9, 4), (rr16, _oracle_phi(rr16))):
        for k, length in ((1, 40), (4, 40), (4, 160)):
            results.append(
                check_visits_bound(sched, k, length, census_trials, seed ^ 0x60, phi=phi)
            )
        results.append(
            check_connector_bound(sched, tau=40, trials=census_trials, seed=seed ^ 0x61, phi=phi)
        )
    return results
