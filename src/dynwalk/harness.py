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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import gossip as gossip_mod
from . import mixing as mixing_mod
from . import oracle as oracle_mod
from .engine import CongestEngine, SimConfig
from .graphs import (
    GraphSchedule,
    ScheduleError,
    StaticSchedule,
    dynamic_diameter,
    parse_schedule_spec,
    random_regular_graph,
)
from .walks import (
    WalkParams,
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
    "write_jsonl",
    "write_csv",
]

ADVERSARY_TAG = 0x5EED5C8E
PHI_HORIZON = 16
TAU_HORIZON = 8

ALGORITHMS = ("naive", "single", "many", "gossip", "estimate-mix", "lemma-suite")


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

    def adversary_seed(self) -> int:
        return self.seed_base ^ ADVERSARY_TAG

    def to_dict(self) -> dict:
        return asdict(self)


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


def save_config_file(config: ExperimentConfig, path: str | Path) -> None:
    """Write the config in its key=value file form (lossless round-trip)."""
    lines = []
    for key, value in config.to_dict().items():
        if value is None:
            value = "none"
        elif isinstance(value, bool):
            value = "true" if value else ""
        lines.append(f"{key}={value}")
    Path(path).write_text("\n".join(lines) + "\n")


def config_from_values(values: dict) -> ExperimentConfig:
    """Build a config from file/flag string values, applying defaults."""
    if "schedule" not in values or "algo" not in values:
        raise ValueError("config needs at least schedule= and algo=")
    return ExperimentConfig(
        schedule=str(values["schedule"]),
        algo=str(values["algo"]),
        tau=str(values.get("tau", "oracle")),
        lambda_c=float(values.get("lambda_c", 1.0)),
        k=int(values.get("k", 4)),
        seeds=int(values.get("seeds", 100)),
        seed_base=int(values.get("seed_base", 0)),
        bandwidth=None
        if values.get("bandwidth") in (None, "", "none")
        else int(values["bandwidth"]),
        phi=str(values.get("phi", "oracle")),
        out=str(values.get("out", "out")),
        oracle=_parse_bool("oracle", values.get("oracle", False)),
    )


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


def resolve_phi(config: ExperimentConfig, schedule: GraphSchedule) -> int:
    if config.phi != "oracle":
        return int(config.phi)
    horizon = 1 if isinstance(schedule, StaticSchedule) else PHI_HORIZON
    return dynamic_diameter(schedule, horizon)


def resolve_tau(config: ExperimentConfig, schedule: GraphSchedule) -> int:
    if config.tau == "worstcase":
        return 2 * schedule.n * schedule.n
    if config.tau != "oracle":
        return int(config.tau)
    horizon = 1 if isinstance(schedule, StaticSchedule) else TAU_HORIZON
    return oracle_mod.dynamic_mixing_bound(schedule, horizon)


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


def write_jsonl(path: Path, rows: list[dict]) -> None:
    with path.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _quantiles(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q25": None, "q75": None, "min": None, "max": None}
    values = sorted(values)
    return {
        "median": statistics.median(values),
        "q25": values[max(0, (len(values) - 1) // 4)],
        "q75": values[min(len(values) - 1, (3 * (len(values) - 1)) // 4)],
        "min": values[0],
        "max": values[-1],
    }


def _walk_row(seed: int, res) -> dict:
    return {
        "seed": seed,
        "walk_id": res.walk_id,
        "source": res.source,
        "destination": res.destination,
        "connectors": res.connectors,
        "segment_lengths": res.segment_lengths,
        "fallbacks": res.fallbacks,
        "rounds_used": res.rounds_used,
    }


def _oracle_tv(schedule, source: int, tau: int, destinations: list[int]) -> float | None:
    if schedule.n > oracle_mod.N_CAP:
        return None
    p = oracle_mod.evolve(oracle_mod.point_mass(schedule.n, source), schedule, 1, tau)
    counts = np.bincount(destinations, minlength=schedule.n) / len(destinations)
    return oracle_mod.tv_distance(counts, p)


def run_experiment(config: ExperimentConfig) -> tuple[RunReport, int]:
    """Execute the configured algorithm over the seed sweep.

    Returns (report, exit_code): 0 pass, 1 property failure, 2 on
    config/schedule errors (raised as exceptions by lower layers).
    """
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    schedule = parse_schedule_spec(config.schedule, seed=config.adversary_seed())

    if config.algo == "lemma-suite":
        results = lemma_suite(
            instances=config.seeds,
            seed=config.seed_base,
            census_trials=min(200, max(30, config.seeds)),
        )
        rows = [r.to_dict() for r in results]
        per_seed = out_dir / "lemma_suite.jsonl"
        write_jsonl(per_seed, rows)
        failures = [r.name for r in results if not r.passed]
        report = RunReport(
            config=config.to_dict(),
            aggregates={"properties": rows, "failed": failures},
            per_seed_path=str(per_seed),
            csv_path=None,
            generated_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
            failures=failures,
        )
        _write_report(out_dir, report)
        return report, (1 if failures else 0)

    phi = resolve_phi(config, schedule)
    tau = resolve_tau(config, schedule)
    sim = SimConfig(bandwidth_bits=config.bandwidth, phi=phi)

    rows: list[dict] = []
    csv_rows: list[dict] = []
    failures: list[str] = []
    for i in range(config.seeds):
        seed = config.seed_base + i
        engine = CongestEngine(schedule, replace(sim, seed=seed))
        if config.algo == "naive":
            res = naive_walk(engine, 0, tau, record_path=False)
            rows.append(_walk_row(seed, res))
        elif config.algo == "single":
            params = WalkParams.for_single(tau, phi, config.lambda_c)
            res = single_random_walk(engine, 0, params, record_path=False)
            rows.append(_walk_row(seed, res))
        elif config.algo == "many":
            sources = [j % schedule.n for j in range(config.k)]
            for res in many_random_walks(
                engine, sources, tau, lambda_c=config.lambda_c, record_path=False
            ):
                rows.append(_walk_row(seed, res))
        elif config.algo == "gossip":
            assignment = {t: [(t - 1) % schedule.n] for t in range(1, config.k + 1)}
            params = gossip_mod.resolve_gossip_params(schedule.n, config.k, tau, phi)
            race = gossip_mod.k_gossip_race(engine, assignment, params, tau, phi)
            csv_rows.append(
                {
                    "n": schedule.n,
                    "d": schedule.d,
                    "k": config.k,
                    "tau": tau,
                    "phi": phi,
                    "f": params.f,
                    "rounds_rw": race.rounds_rw,
                    "rounds_trivial": race.rounds_trivial,
                    "winner": race.winner,
                    "coverage_rw": int(race.coverage_rw_complete),
                    "seed": seed,
                }
            )
        elif config.algo == "estimate-mix":
            est = mixing_mod.estimate_mixing_time(engine, 0, phi)
            oracle_bracket = None
            if config.oracle and schedule.n <= oracle_mod.N_CAP:
                lo = oracle_mod.mixing_time_oracle(schedule, 0, oracle_mod.MIX_EPS)
                hi = oracle_mod.mixing_time_oracle(
                    schedule, 0, mixing_mod.epsilon_prime(schedule.n)
                )
                oracle_bracket = (lo, hi)
                if not lo <= est.tau_tilde <= hi:
                    failures.append(f"seed {seed}: tau_tilde {est.tau_tilde} outside {oracle_bracket}")
            row = est.to_report(0, oracle_bracket)
            row["seed"] = seed
            rows.append(row)

    aggregates: dict = {}
    per_seed_path = None
    csv_path = None
    if rows:
        per_seed_path = out_dir / f"{config.algo}_per_seed.jsonl"
        write_jsonl(per_seed_path, rows)
        if config.algo in ("naive", "single", "many"):
            aggregates["rounds"] = _quantiles([r["rounds_used"] for r in rows])
            aggregates["fallbacks_total"] = sum(r["fallbacks"] for r in rows)
            if config.oracle:
                tv = _oracle_tv(schedule, 0, tau, [r["destination"] for r in rows if r["source"] == 0])
                aggregates["tv_to_oracle"] = tv
        if config.algo == "estimate-mix":
            aggregates["tau_tilde"] = _quantiles([r["tau_tilde"] for r in rows])
            aggregates["total_rounds"] = _quantiles([r["total_rounds"] for r in rows])
    if csv_rows:
        csv_path = out_dir / "gossip.csv"
        write_csv(
            csv_path,
            ["n", "d", "k", "tau", "phi", "f", "rounds_rw", "rounds_trivial", "winner", "coverage_rw", "seed"],
            csv_rows,
        )
        aggregates["rounds_rw"] = _quantiles([r["rounds_rw"] for r in csv_rows])
        aggregates["rounds_trivial"] = _quantiles([r["rounds_trivial"] for r in csv_rows])
        aggregates["coverage_rate"] = sum(r["coverage_rw"] for r in csv_rows) / len(csv_rows)
        aggregates["winners"] = {
            "rw": sum(1 for r in csv_rows if r["winner"] == "rw"),
            "trivial": sum(1 for r in csv_rows if r["winner"] == "trivial"),
        }
    aggregates["tau"] = tau
    aggregates["phi"] = phi

    report = RunReport(
        config=config.to_dict(),
        aggregates=aggregates,
        per_seed_path=str(per_seed_path) if per_seed_path else None,
        csv_path=str(csv_path) if csv_path else None,
        generated_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        failures=failures,
    )
    _write_report(out_dir, report)
    return report, (1 if failures else 0)


def _write_report(out_dir: Path, report: RunReport) -> None:
    (out_dir / "report.json").write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")


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


def _random_schedule(rng: random.Random) -> GraphSchedule:
    from .graphs import RandomRegularSchedule

    n = rng.choice(_SUITE_NS)
    d = rng.choice(_SUITE_DS)
    if (n * d) % 2:
        d = 4
    return RandomRegularSchedule(n, d, seed=rng.randrange(2**48))


def _random_distribution(rng: random.Random, n: int) -> np.ndarray:
    weights = np.array([rng.random() for _ in range(n)]) + 1e-9
    return weights / weights.sum()


def check_stationarity(instances: int, seed: int, tol: float = 1e-12, steps: int = 20) -> PropertyResult:
    """Uniform is exactly stationary on regular schedules."""
    rng = random.Random(seed)
    worst = 0.0
    violations = 0
    for _ in range(instances):
        schedule = _random_schedule(rng)
        p = oracle_mod.evolve(oracle_mod.uniform(schedule.n), schedule, 1, steps)
        dev = float(np.abs(p - 1.0 / schedule.n).max())
        worst = max(worst, dev)
        if dev > tol:
            violations += 1
    return PropertyResult("stationarity", instances, violations, worst, violations == 0)


def check_contraction(instances: int, seed: int, tol: float = 1e-7, steps: int = 50) -> PropertyResult:
    """||p_t - u|| <= lambda^t * ||p_0 - u|| with lambda the worst snapshot
    second eigenvalue (absolute) over the steps used."""
    rng = random.Random(seed)
    worst = -math.inf
    violations = 0
    for _ in range(instances):
        schedule = _random_schedule(rng)
        n = schedule.n
        p0 = _random_distribution(rng, n)
        lam = max(
            oracle_mod.spectral_summary(schedule.snapshot_at(t)).lambda2_abs
            for t in range(1, steps + 1)
        )
        d0 = oracle_mod.l2_to_uniform(p0)
        p = p0
        bound = d0
        bad = False
        for t in range(1, steps + 1):
            p = p @ oracle_mod.transition_matrix(schedule.snapshot_at(t))
            bound *= lam
            margin = oracle_mod.l2_to_uniform(p) - bound
            worst = max(worst, margin)
            if margin > tol:
                bad = True
        violations += bad
    return PropertyResult("contraction", instances, violations, worst, violations == 0)


def check_monotonicity(instances: int, seed: int, tol: float = 1e-7, steps: int = 50) -> PropertyResult:
    """Distance to uniform never increases step over step."""
    rng = random.Random(seed)
    worst = -math.inf
    violations = 0
    for _ in range(instances):
        schedule = _random_schedule(rng)
        p = oracle_mod.point_mass(schedule.n, rng.randrange(schedule.n))
        prev = oracle_mod.l2_to_uniform(p)
        bad = False
        for t in range(1, steps + 1):
            p = p @ oracle_mod.transition_matrix(schedule.snapshot_at(t))
            cur = oracle_mod.l2_to_uniform(p)
            worst = max(worst, cur - prev)
            if cur - prev > tol:
                bad = True
            prev = cur
        violations += bad
    return PropertyResult("monotonicity", instances, violations, worst, violations == 0)


def check_eigen_bound(instances: int, seed: int, tol: float = 1e-7) -> PropertyResult:
    """Signed second eigenvalue is at most 1 - 1/(d*D*n), D the diameter."""
    rng = random.Random(seed)
    worst = -math.inf
    violations = 0
    for _ in range(instances):
        n = rng.choice(_SUITE_NS)
        d = rng.choice(_SUITE_DS)
        if (n * d) % 2:
            d = 4
        g = random_regular_graph(n, d, rng)
        diam = dynamic_diameter(StaticSchedule(g), 1)
        bound = 1.0 - 1.0 / (d * diam * n)
        margin = oracle_mod.spectral_summary(g).lambda2_signed - bound
        worst = max(worst, margin)
        if margin > tol:
            violations += 1
    return PropertyResult("eigen_bound", instances, violations, worst, violations == 0)


def check_supnorm(instances: int, seed: int, tol: float = 1e-7, steps: int = 30) -> PropertyResult:
    """Sup norm of the evolving distribution never increases."""
    rng = random.Random(seed)
    worst = -math.inf
    violations = 0
    for _ in range(instances):
        schedule = _random_schedule(rng)
        p = _random_distribution(rng, schedule.n)
        prev = float(np.abs(p).max())
        bad = False
        for t in range(1, steps + 1):
            p = p @ oracle_mod.transition_matrix(schedule.snapshot_at(t))
            cur = float(np.abs(p).max())
            worst = max(worst, cur - prev)
            if cur - prev > tol:
                bad = True
            prev = cur
        violations += bad
    return PropertyResult("supnorm_nonincrease", instances, violations, worst, violations == 0)


def check_mixing_bound(instances: int, seed: int, c: float = 3.0) -> PropertyResult:
    """Measured tau^x(1/n) <= c * ln(n) / (1 - lambda), lambda over snapshots."""
    rng = random.Random(seed)
    worst = -math.inf
    violations = 0
    for _ in range(instances):
        schedule = _random_schedule(rng)
        n = schedule.n
        source = rng.randrange(n)
        tau = oracle_mod.mixing_time_oracle(schedule, source, 1.0 / n)
        lam = max(
            oracle_mod.spectral_summary(schedule.snapshot_at(t)).lambda2_abs
            for t in range(1, max(2, tau) + 1)
        )
        bound = c * math.log(n) / (1.0 - lam)
        worst = max(worst, tau - bound)
        if tau > bound:
            violations += 1
    return PropertyResult("mixing_time_bound", instances, violations, worst, violations == 0)


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
    """
    n = schedule.n
    d = schedule.d
    bound = 32.0 * d * math.sqrt(k * length + 1.0) * math.log2(n) + k
    violations = 0
    worst = -math.inf
    from .walks import concurrent_naive_walks

    for i in range(trials):
        engine = CongestEngine(schedule, SimConfig(seed=seed + i, bandwidth_bits=1 << 30, phi=phi))
        sources = [j % n for j in range(k)]
        results = concurrent_naive_walks(engine, sources, length)
        stats = visit_stats(results, n)
        peak = float(stats.visits.max())
        worst = max(worst, peak - bound)
        if peak >= bound:
            violations += 1
    allowed = (1.0 / n + 0.02) * trials
    return PropertyResult(
        f"visits_bound_k{k}_l{length}",
        trials,
        violations,
        worst,
        violations <= allowed,
        note=f"bound={bound:.1f}, allowed_violations={allowed:.1f}",
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
    params = WalkParams.for_single(tau, phi, lambda_c)
    factor = (math.log2(n) ** 2) / params.lambda_walk
    violations = 0
    pairs = 0
    worst = -math.inf
    for i in range(trials):
        engine = CongestEngine(schedule, SimConfig(seed=seed + i, bandwidth_bits=1 << 30, phi=phi))
        res = single_random_walk(engine, i % n, params)
        stats = visit_stats([res], n)
        for y in range(n):
            t_visits = int(stats.visits[y])
            if t_visits == 0:
                continue
            pairs += 1
            margin = stats.connector_counts[y] - t_visits * factor
            worst = max(worst, margin)
            if margin > 0:
                violations += 1
    allowed = (1.0 / n**2 + 0.02) * pairs
    return PropertyResult(
        f"connector_bound_tau{tau}",
        pairs,
        violations,
        worst,
        violations <= allowed,
        note=f"lambda={params.lambda_walk}, allowed_violations={allowed:.1f}",
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
    for sched, phi in ((c9, 4), (rr16, None)):
        phi = phi if phi is not None else resolve_phi(ExperimentConfig(sched.spec, "naive"), sched)
        for k, length in ((1, 40), (4, 40), (4, 160)):
            results.append(
                check_visits_bound(sched, k, length, census_trials, seed ^ 0x60, phi=phi)
            )
        results.append(
            check_connector_bound(sched, tau=40, trials=census_trials, seed=seed ^ 0x61, phi=phi)
        )
    return results
