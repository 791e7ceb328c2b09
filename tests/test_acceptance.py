"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy statistical sweeps run at the sample sizes the criteria state; all
randomness is seed-pinned so outcomes are reproducible.  Bandwidth is ample
everywhere except the congestion-discipline criterion, which pins the
default CONGEST budget.
"""
import math
import time

import numpy as np

from conftest import AMPLE
from dynwalk.engine import CongestEngine, CongestionError, SimConfig, default_bandwidth
from dynwalk.gossip import k_gossip_race, k_gossip_rw, resolve_gossip_params
from dynwalk.graphs import PermutedSchedule, RandomRegularSchedule, dynamic_diameter, parse_schedule_spec
from dynwalk.harness import (
    ExperimentConfig,
    check_connector_bound,
    check_contraction,
    check_eigen_bound,
    check_monotonicity,
    check_stationarity,
    check_supnorm,
    check_visits_bound,
    run_experiment,
)
from dynwalk.mixing import epsilon_prime, estimate_mixing_time, spectral_gap_bounds
from dynwalk.oracle import (
    MIX_EPS,
    dynamic_mixing_bound,
    mixing_time_oracle,
    spectral_summary,
    transition_matrix,
)
from dynwalk.walks import WalkParams, many_random_walks, phase1_distribute, single_random_walk

TRIALS_C1 = 50_000


def _report(cid: str, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {cid} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _walk_equivalence(tag: str, spec: str, seed: int) -> None:
    sched = parse_schedule_spec(spec, seed=seed)
    phi = dynamic_diameter(sched, 1)
    tmix = dynamic_mixing_bound(sched, 1)
    lam = math.ceil(math.sqrt(tmix * phi))
    taus = sorted({2 * lam + 1, 4 * lam, tmix})
    P = transition_matrix(sched.snapshot_at(1))
    t0 = time.monotonic()
    worst = 0.0
    for tau in taus:
        target = np.linalg.matrix_power(P, tau)[0]
        params = WalkParams(tau=tau, lambda_walk=lam)
        counts = np.zeros(sched.n, dtype=np.int64)
        for i in range(TRIALS_C1):
            eng = CongestEngine(sched, SimConfig(seed=i, bandwidth_bits=AMPLE, phi=phi))
            counts[single_random_walk(eng, 0, params, record_path=False).destination] += 1
        tv = 0.5 * float(np.abs(counts / TRIALS_C1 - target).sum())
        worst = max(worst, tv)
        assert tv <= 0.02, f"{tag} tau={tau}: TV {tv:.4f} > 0.02"
    elapsed = time.monotonic() - t0
    _report(
        "C1", f"oracle-walk-equivalence[{tag}]",
        worst <= 0.02 and elapsed <= 600,
        f"taus={taus}, lambda={lam}, worst TV={worst:.4f}, {elapsed:.0f}s",
    )


def test_c1_k4():
    _walk_equivalence("K4", "static:K4", seed=1)


def test_c1_c9():
    _walk_equivalence("C9", "static:C9", seed=1)


def test_c1_petersen():
    _walk_equivalence("petersen", "static:petersen", seed=1)


def test_c1_random_3regular_16():
    _walk_equivalence("rr16", "srr:n=16,d=3", seed=99)


def test_c2_lemma_suite():
    checks = [
        check_contraction(200, seed=0x53, tol=1e-7),
        check_monotonicity(200, seed=0x52, tol=1e-7),
        check_eigen_bound(200, seed=0x54, tol=1e-7),
        check_supnorm(200, seed=0x55, tol=1e-7),
        check_stationarity(200, seed=0x51, tol=1e-7),
    ]
    for res in checks:
        _report("C2", res.name, res.violations == 0, f"{res.trials} instances, worst margin {res.worst_margin:.2e}")


def test_c3_visits_census():
    for tag, spec, seed, phi in (("C9", "static:C9", 1, 4), ("rr16", "srr:n=16,d=3", 99, None)):
        sched = parse_schedule_spec(spec, seed=seed)
        phi = phi if phi is not None else dynamic_diameter(sched, 1)
        for k, length in ((1, 40), (4, 40), (4, 160)):
            res = check_visits_bound(sched, k, length, trials=200, seed=31_000, phi=phi)
            freq = res.violations / res.trials
            _report(
                "C3", f"visits-bound[{tag},k={k},l={length}]",
                freq <= 1.0 / sched.n + 0.02,
                f"violations {res.violations}/200, {res.note}",
            )


def test_c4_round_complexity_shape():
    sched = parse_schedule_spec("srr:n=64,d=3", seed=7)
    phi = dynamic_diameter(sched, 1)
    taus = [2**e for e in range(6, 13)]
    medians = []
    for tau in taus:
        lam = math.ceil(math.sqrt(tau * phi))
        params = WalkParams(tau=tau, lambda_walk=lam)
        rounds = []
        for seed in range(11):
            eng = CongestEngine(sched, SimConfig(seed=seed, bandwidth_bits=AMPLE, phi=phi))
            rounds.append(single_random_walk(eng, 0, params, record_path=False).rounds_used)
        medians.append(float(np.median(rounds)))
    slope = float(np.polyfit(np.log(taus), np.log(medians), 1)[0])
    _report(
        "C4", "round-shape-slope",
        0.4 <= slope <= 0.65,
        f"phi={phi}, medians={medians}, slope={slope:.3f}",
    )
    beats = {tau: med < tau for tau, med in zip(taus, medians) if tau >= 100 * phi}
    _report("C4", "stitched-beats-naive", all(beats.values()), f"tau>=100*phi cases: {beats}")


def test_c5_k_walk_sharing():
    sched = parse_schedule_spec("srr:n=16,d=3", seed=99)
    phi = dynamic_diameter(sched, 1)
    tau, k = 160, 8
    sources = [j % sched.n for j in range(k)]
    many_rounds, single_sums = [], []
    for seed in range(30):
        eng = CongestEngine(sched, SimConfig(seed=seed, bandwidth_bits=AMPLE, phi=phi))
        many_random_walks(eng, sources, WalkParams.for_many(tau, phi, k), record_path=False)
        many_rounds.append(eng.round)
        total = 0
        params = WalkParams.for_many(tau, phi, 1)
        for j, s in enumerate(sources):
            eng = CongestEngine(sched, SimConfig(seed=seed * 100 + j, bandwidth_bits=AMPLE, phi=phi))
            total += single_random_walk(eng, s, params, record_path=False).rounds_used
        single_sums.append(total)
    med_many, med_single = float(np.median(many_rounds)), float(np.median(single_sums))
    _report(
        "C5", "shared-phase-saves-rounds",
        med_many < med_single,
        f"median many={med_many}, median 8x single={med_single}",
    )

    k4 = parse_schedule_spec("static:K4", seed=1)
    P = np.linalg.matrix_power(transition_matrix(k4.snapshot_at(1)), 8)
    srcs = [j % 4 for j in range(8)]
    dests = np.zeros((8, 4), dtype=np.int64)
    for i in range(30_000):
        eng = CongestEngine(k4, SimConfig(seed=i, bandwidth_bits=AMPLE, phi=1))
        for j, res in enumerate(many_random_walks(eng, srcs, WalkParams.for_many(8, 1, 8), record_path=False)):
            dests[j, res.destination] += 1
    worst = 0.0
    for j, s in enumerate(srcs):
        tv = 0.5 * float(np.abs(dests[j] / 30_000 - P[s]).sum())
        worst = max(worst, tv)
    _report("C5", "k-marginals", worst <= 0.03, f"worst marginal TV={worst:.4f}")


def _gossip_coverage(sched, n, k, tau, phi, trials=100):
    params = resolve_gossip_params(n, k, tau, phi)
    assignment = {t: [(t - 1) % n] for t in range(1, k + 1)}
    complete = 0
    never_exceeds = True
    for seed in range(trials):
        eng = CongestEngine(sched, SimConfig(seed=seed, bandwidth_bits=AMPLE, phi=phi))
        race = k_gossip_race(eng, assignment, params, tau, phi)
        complete += race.coverage_rw_complete
        never_exceeds &= race.race_rounds <= race.rounds_trivial
    return complete, never_exceeds


def test_c6_gossip():
    base_spec = "srr:n=64,d=3"
    static = parse_schedule_spec(base_spec, seed=7)
    perm = PermutedSchedule(static.snapshot_at(1), seed=1234)
    for tag, sched, horizon in (("static", static, 1), ("perm", perm, 16)):
        phi = dynamic_diameter(sched, horizon)
        tau = dynamic_mixing_bound(sched, 1 if tag == "static" else 8)
        for k in (4, 8):
            complete, never_exceeds = _gossip_coverage(sched, 64, k, tau, phi)
            _report(
                "C6", f"coverage[{tag},k={k}]",
                complete >= 95 and never_exceeds,
                f"complete {complete}/100, race<=trivial={never_exceeds}",
            )
    # Slope of the walk-route rounds in k (the Theorem-3 shape side of the race).
    phi = dynamic_diameter(static, 1)
    tau = dynamic_mixing_bound(static, 1)
    ks = [2, 4, 8, 16]
    medians = []
    for k in ks:
        params = resolve_gossip_params(64, k, tau, phi)
        assignment = {t: [(t - 1) % 64] for t in range(1, k + 1)}
        rounds = []
        for seed in range(8):
            eng = CongestEngine(static, SimConfig(seed=seed, bandwidth_bits=AMPLE, phi=phi))
            rounds.append(k_gossip_rw(eng, assignment, params, tau, phi).rounds)
        medians.append(float(np.median(rounds)))
    slope = float(np.polyfit(np.log(ks), np.log(medians), 1)[0])
    _report("C6", "rw-rounds-slope", 0.55 <= slope <= 0.8, f"medians={medians}, slope={slope:.3f}")


def test_c7_mixing_estimator_bracketing():
    hits = 0
    gap_ok = True
    total = 0
    details = []
    for n in (24, 32, 40, 48, 56, 64):
        for d in (6, 8, 10, 12, 14):
            total += 1
            sched = parse_schedule_spec(f"srr:n={n},d={d}", seed=1000 + n + d)
            phi = dynamic_diameter(sched, 1)
            eng = CongestEngine(sched, SimConfig(seed=5000 + total, bandwidth_bits=AMPLE, phi=phi))
            est = estimate_mixing_time(eng, 0, phi)
            lo = mixing_time_oracle(sched, 0, MIX_EPS)
            hi = mixing_time_oracle(sched, 0, epsilon_prime(n))
            if lo <= est.tau_tilde <= hi:
                hits += 1
                (glo, ghi), _ = spectral_gap_bounds(est.tau_tilde, n)
                gap = spectral_summary(sched.snapshot_at(1)).gap
                if not glo <= gap <= ghi:
                    gap_ok = False
                    details.append(f"(n={n},d={d}): gap {gap:.3f} outside [{glo:.3f},{ghi:.3f}]")
            else:
                details.append(f"(n={n},d={d}): tau~={est.tau_tilde} outside [{lo},{hi}]")
    _report(
        "C7", "estimator-bracketing",
        hits >= 0.9 * total and gap_ok,
        f"bracket hits {hits}/{total}; {'; '.join(details) if details else 'gap contained in all successes'}",
    )


def test_c8_congestion_discipline():
    lam = 2  # largest lambda honoring the budget at (16,4); see ledger
    for n, d in ((16, 4), (64, 3)):
        bandwidth = default_bandwidth(n)
        sched = RandomRegularSchedule(n, d, seed=777)
        params = WalkParams(tau=10 * lam, lambda_walk=lam)
        clean = 0
        for seed in range(100):
            eng = CongestEngine(sched, SimConfig(seed=seed, bandwidth_bits=bandwidth, phi=4))
            try:
                phase1_distribute(eng, params, record_paths=False)
                clean += 1
            except CongestionError:
                pass
        within_bound = 0
        bound = 4 * math.log(n)
        for seed in range(100):
            eng = CongestEngine(sched, SimConfig(seed=seed, bandwidth_bits=AMPLE, phi=4))
            phase1_distribute(eng, params, record_paths=False)
            max_coupons = eng.log.max_edge_bits // eng.enc.coupon_bits(lam, d)
            within_bound += max_coupons <= bound
        _report(
            "C8", f"phase1-congestion[n={n},d={d}]",
            clean >= 95 and within_bound >= 95,
            f"B={bandwidth}, clean {clean}/100, max-coupons<=4ln(n) {within_bound}/100",
        )


def test_c9_determinism(tmp_path):
    outputs = []
    for sub in ("run_a", "run_b"):
        cfg = ExperimentConfig(
            "rr:n=16,d=4", "single", tau="40", seeds=10,
            bandwidth=AMPLE, out=str(tmp_path / sub),
        )
        run_experiment(cfg)
        outputs.append((tmp_path / sub / "single_per_seed.jsonl").read_bytes())
    same_walks = outputs[0] == outputs[1]

    csvs = []
    for sub in ("g_a", "g_b"):
        cfg = ExperimentConfig(
            "srr:n=16,d=4", "gossip", tau="8", k=3, seeds=5,
            bandwidth=AMPLE, out=str(tmp_path / sub),
        )
        run_experiment(cfg)
        csvs.append((tmp_path / sub / "gossip.csv").read_bytes())
    same_csv = csvs[0] == csvs[1]
    _report("C9", "byte-identical-records", same_walks and same_csv,
            f"walk jsonl identical={same_walks}, gossip csv identical={same_csv}")
