"""The four workloads, each pinned to one acceptance criterion's instance.

A workload is set up once (schedule, phi/tau, oracle reference), then runs
trial after trial: trial i uses a fresh CongestEngine seeded `seed + i`.
`run(i)` is the timed part; `check(out)` gates one trial's output outside
the timed region; `observe` folds a checked trial into what `final_gate`
judges for the run as a whole; `wrong_outputs` builds known-wrong outputs
of the run's size that the gates must reject.  Nothing kept per trial grows
with the trial count, so peak RSS does not depend on the program's speed.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

AMPLE = 1 << 24  # bandwidth of the acceptance tests: never congests at this scale


class SetupMismatch(RuntimeError):
    """The program resolved a criterion's instance to other values than pinned."""


@dataclass
class Trial:
    ok: bool
    rounds: int = 0
    info: dict = field(default_factory=dict)
    error: str = ""


def _pin(label: str, got, want) -> None:
    if got != want:
        raise SetupMismatch(f"{label}: program gives {got}, the workload is pinned to {want}")


class Workload:
    name = ""
    count_window = 0  # traced trials whose counts must repeat exactly under one seed
    pair_block = 1    # trials per block when pairing traced and untraced blocks
    has_rounds = True

    def __init__(self, dw, seed: int):
        self.dw = dw
        self.seed = seed

    def engine(self, i: int):
        dw = self.dw
        return dw.engine.CongestEngine(
            self.schedule, dw.engine.SimConfig(seed=self.seed + i, bandwidth_bits=AMPLE, phi=self.phi)
        )

    def run(self, i: int):
        raise NotImplementedError

    def check(self, out) -> Trial:
        raise NotImplementedError

    def observe(self, trial: Trial) -> None:
        pass

    def final_gate(self) -> tuple[bool, str]:
        return True, "per-trial gates only"

    def wrong_outputs(self, n_trials: int, sample, rng: np.random.Generator) -> dict:
        """name -> known-wrong output of the run's size, made from one real
        output `sample` and judged by the same gate as real output."""
        raise NotImplementedError

    def gate_rejects(self, wrong) -> bool:
        return not self.check(wrong).ok

    def results(self, trials: list[Trial]) -> dict:
        """Outcome metrics of the trials, reported in the traced run."""
        out = {"sim_rounds_per_trial": _mean([t.rounds for t in trials]) if self.has_rounds else 0.0}
        out["stitched_trials"] = sum(t.info.get("stitched", 0) for t in trials)
        out["sum_segments"] = sum(t.info.get("segments", 0) for t in trials)
        out["sum_fallbacks"] = sum(t.info.get("fallbacks", 0) for t in trials)
        return out


def _mean(values) -> float:
    return float(sum(values)) / len(values) if values else 0.0


class StitchRR16(Workload):
    """C1's costliest case: tau = 4*lambda on srr:n=16,d=3 (seed 99)."""

    name = "stitch-rr16"
    count_window = 1000
    pair_block = 250
    sigmas = 5.0     # TV gate: this many standard deviations above the sampling noise
    noise_draws = 400

    def __init__(self, dw, seed):
        super().__init__(dw, seed)
        self.schedule = dw.graphs.parse_schedule_spec("srr:n=16,d=3", seed=99)
        cfg = dw.harness.ExperimentConfig(self.schedule.spec, "single")
        self.phi = dw.harness.resolve_phi(cfg, self.schedule)
        tmix = dw.harness.resolve_tau(cfg, self.schedule)
        self.lam = math.ceil(math.sqrt(tmix * self.phi))  # C1's lambda
        self.tau = 4 * self.lam
        _pin("stitch-rr16 (phi, lambda, tau)", (self.phi, self.lam, self.tau), (4, 6, 24))
        self.params = dw.walks.WalkParams(tau=self.tau, lambda_walk=self.lam)
        P = dw.oracle.transition_matrix(self.schedule.snapshot_at(1))
        self.target = np.linalg.matrix_power(P, self.tau)[0]
        self.law_tau23 = np.linalg.matrix_power(P, self.tau - 1)[0]
        self.n = self.schedule.n
        self.dest_counts = np.zeros(self.n, dtype=np.int64)

    def run(self, i):
        return self.dw.walks.single_random_walk(self.engine(i), 0, self.params, record_path=False)

    def check(self, res) -> Trial:
        lam, phi = self.lam, self.phi
        walked = sum(res.segment_lengths) + lam * res.fallbacks
        expected = 2 * lam + 2 * phi * len(res.segment_lengths) + lam * res.fallbacks + max(0, self.tau - walked)
        ok = 0 <= res.destination < self.n and res.rounds_used == expected
        info = {
            "dest": res.destination,
            "stitched": int(bool(res.segment_lengths) or res.fallbacks > 0),
            "segments": len(res.segment_lengths),
            "fallbacks": res.fallbacks,
        }
        err = "" if ok else f"rounds_used {res.rounds_used} != 2l+2phi*s+l*f+rest = {expected}"
        return Trial(ok, res.rounds_used, info, err)

    def observe(self, trial):
        if "dest" in trial.info:
            self.dest_counts[trial.info["dest"]] += 1

    def tv(self, counts) -> float:
        return 0.5 * float(np.abs(counts / counts.sum() - self.target).sum())

    def tv_threshold(self, N: int) -> float:
        """Upper tail of the TV between an exact N-sample and its own law."""
        rng = np.random.default_rng([self.seed % 2**32, N])
        freq = rng.multinomial(N, self.target, size=self.noise_draws) / N
        tvs = 0.5 * np.abs(freq - self.target).sum(axis=1)
        return float(tvs.mean() + self.sigmas * tvs.std())

    def _tv_gate(self, counts) -> tuple[bool, str]:
        N = int(counts.sum())
        if N == 0:
            return False, "no destinations"
        tv, thr = self.tv(counts), self.tv_threshold(N)
        return tv <= thr, f"TV {tv:.4f} vs threshold {thr:.4f} at N={N}"

    def final_gate(self):
        return self._tv_gate(self.dest_counts)

    def wrong_outputs(self, n_trials, sample, rng):
        """Destination histograms of n_trials walks drawn from wrong laws."""
        return {
            "tau=23 law": rng.multinomial(n_trials, self.law_tau23),
            "uniform law": rng.multinomial(n_trials, np.full(self.n, 1.0 / self.n)),
        }

    def gate_rejects(self, wrong) -> bool:
        return not self._tv_gate(wrong)[0]


class GossipPerm64(Workload):
    """C6's k=8 race on PermutedSchedule(srr:n=64,d=3 seed 7, perm seed 1234)."""

    name = "gossip-perm64"
    count_window = 200
    pair_block = 50
    k = 8

    def __init__(self, dw, seed):
        super().__init__(dw, seed)
        base = dw.graphs.parse_schedule_spec("srr:n=64,d=3", seed=7)
        self.schedule = dw.graphs.PermutedSchedule(base.snapshot_at(1), seed=1234)
        cfg = dw.harness.ExperimentConfig(self.schedule.spec, "gossip")
        # resolve_phi/resolve_tau use C6's horizons (16 and 8) on a dynamic schedule.
        self.phi = dw.harness.resolve_phi(cfg, self.schedule)
        self.tau = dw.harness.resolve_tau(cfg, self.schedule)
        _pin("gossip-perm64 (phi, tau)", (self.phi, self.tau), (5, 12))
        n = self.schedule.n
        self.params = dw.gossip.resolve_gossip_params(n, self.k, self.tau, self.phi)
        self.assignment = {t: [(t - 1) % n] for t in range(1, self.k + 1)}

    def run(self, i):
        return self.dw.gossip.k_gossip_race(self.engine(i), self.assignment, self.params, self.tau, self.phi)

    def check(self, race) -> Trial:
        ok = race.race_rounds <= race.rounds_trivial and race.coverage_rw_complete
        info = {
            "rw_rounds": race.rounds_rw,
            "trivial_rounds": race.rounds_trivial,
            "covered": int(race.coverage_rw_complete),
            "rw_won": int(race.winner == "rw"),
        }
        err = "" if ok else f"race {race.race_rounds} vs trivial {race.rounds_trivial}, complete={race.coverage_rw_complete}"
        return Trial(ok, race.race_rounds, info, err)

    def wrong_outputs(self, n_trials, race, rng):
        return {
            "incomplete coverage": dataclasses.replace(race, coverage_rw_complete=False),
            "race longer than trivial": dataclasses.replace(race, race_rounds=race.rounds_trivial + 1),
        }

    def results(self, trials):
        out = super().results(trials)
        for key, field_ in (("gossip.rw_rounds", "rw_rounds"), ("gossip.trivial_rounds", "trivial_rounds"),
                            ("gossip.rw_coverage_frac", "covered"), ("gossip.rw_win_frac", "rw_won")):
            out[key] = _mean([t.info[field_] for t in trials if field_ in t.info])
        return out


class MixestSRR48(Workload):
    """C7 grid point (n=48, d=8, seed 1056) with the default sample count."""

    name = "mixest-srr48"
    count_window = 8
    pair_block = 2

    def __init__(self, dw, seed):
        super().__init__(dw, seed)
        self.schedule = dw.graphs.parse_schedule_spec("srr:n=48,d=8", seed=1056)
        cfg = dw.harness.ExperimentConfig(self.schedule.spec, "estimate-mix")
        self.phi = dw.harness.resolve_phi(cfg, self.schedule)
        n = self.schedule.n
        self.bracket = (
            dw.oracle.mixing_time_oracle(self.schedule, 0, dw.oracle.MIX_EPS),
            dw.oracle.mixing_time_oracle(self.schedule, 0, dw.mixing.epsilon_prime(n)),
        )
        _pin("mixest-srr48 oracle bracket", self.bracket, (2, 23))
        _pin("mixest-srr48 K", dw.mixing.sample_count(n), 3975)

    def run(self, i):
        return self.dw.mixing.estimate_mixing_time(self.engine(i), 0, self.phi)

    def check(self, est) -> Trial:
        lo, hi = self.bracket
        ok = lo <= est.tau_tilde <= hi
        err = "" if ok else f"tau~ {est.tau_tilde} outside oracle bracket [{lo}, {hi}]"
        return Trial(ok, est.total_rounds, {"probes": len(est.probes), "hit": int(ok)}, err)

    def wrong_outputs(self, n_trials, est, rng):
        lo, hi = self.bracket
        return {
            "tau~ above bracket": dataclasses.replace(est, tau_tilde=hi + 1),
            "tau~ below bracket": dataclasses.replace(est, tau_tilde=lo - 1),
        }

    def results(self, trials):
        out = super().results(trials)
        out["mixing.probes_per_estimate"] = _mean([t.info["probes"] for t in trials if "probes" in t.info])
        out["mixing.bracket_hit_frac"] = _mean([t.info["hit"] for t in trials if "hit" in t.info])
        return out


class LemmasRR(Workload):
    """C2's five oracle checks, one fresh random-regular instance each."""

    name = "lemmas-rr"
    count_window = 40
    pair_block = 10
    has_rounds = False
    # C2's per-check seed tags (harness.lemma_suite uses the same ones)
    checks = (
        ("check_contraction", 0x53),
        ("check_monotonicity", 0x52),
        ("check_supnorm", 0x55),
        ("check_stationarity", 0x51),
        ("check_eigen_bound", 0x54),
    )

    def run(self, i):
        base = (self.seed + i) << 8
        return [getattr(self.dw.harness, fn)(1, seed=base ^ tag) for fn, tag in self.checks]

    def check(self, results) -> Trial:
        failed = [r.name for r in results if not r.passed]
        return Trial(not failed, 0, {}, f"properties failed: {failed}" if failed else "")

    def wrong_outputs(self, n_trials, good, rng):
        bad = dataclasses.replace(good[0], violations=1, passed=False)
        return {"failed PropertyResult": [bad] + good[1:]}


WORKLOADS = {w.name: w for w in (StitchRR16, GossipPerm64, MixestSRR48, LemmasRR)}
