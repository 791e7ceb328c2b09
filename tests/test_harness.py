import hashlib
import io
import json
import math
import random
import re
import statistics
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import memo_traces, write_snapshots
from dynwalk.cli import EXIT_CONFIG_ERROR, EXIT_OK, EXIT_PROPERTY_FAILURE, _build_parser, _config_from_args, main
from dynwalk import harness, oracle
from dynwalk.harness import (
    PropertyResult,
    _property,
    config_from_values,
    ADVERSARY_TAG,
    ExperimentConfig,
    check_connector_bound,
    check_contraction,
    check_eigen_bound,
    check_mixing_bound,
    check_monotonicity,
    check_stationarity,
    check_supnorm,
    check_visits_bound,
    load_config_file,
    resolve_phi,
    resolve_tau,
    run_experiment,
)
from dynwalk import DynwalkError
from dynwalk.engine import (
    CongestEngine,
    CongestionError,
    FloodIncompleteError,
    ProtocolError,
    RoundLimitError,
    SimConfig,
)
from dynwalk.graphs import (
    RandomRegularSchedule,
    ScheduleError,
    StaticSchedule,
    dynamic_diameter,
    named_graph,
    parse_schedule_spec,
    random_regular_graph,
    read_schedule_file,
    write_schedule_file,
)
from dynwalk.gossip import k_gossip_race, resolve_gossip_params
from dynwalk.mixing import EstimationError
from dynwalk.oracle import MixingCapError
from dynwalk.walks import (
    CouponsExhausted,
    WalkParams,
    concurrent_naive_walks,
    single_random_walk,
    visit_stats,
)


class TestConfig:
    def test_config_file_parse(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("schedule=static:K4\nalgo=naive  # comment\n\ntau=3\nseeds=2\n")
        values = load_config_file(path)
        assert values == {"schedule": "static:K4", "algo": "naive", "tau": "3", "seeds": "2"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("not a kv pair\n")
        with pytest.raises(ValueError):
            load_config_file(path)

    def test_adversary_seed_disjoint(self):
        cfg = ExperimentConfig("static:K4", "naive", seed_base=123)
        assert cfg.adversary_seed() == 123 ^ ADVERSARY_TAG

    @staticmethod
    def _load(path, text):
        # Every test file sets every ExperimentConfig field.
        path.write_text(text)
        values = load_config_file(path)
        assert set(values) == {f.name for f in fields(ExperimentConfig)}
        return config_from_values(values)

    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "cfg"
        cfg = self._load(path, (
            "schedule=rr:n=8,d=3\nalgo=gossip\ntau=16\nlambda_c=0.5\nk=3\nseeds=7\n"
            "seed_base=11\nbandwidth=4096\nphi=2\nout=somewhere\noracle=true\n"
        ))
        assert cfg == ExperimentConfig(
            "rr:n=8,d=3", "gossip", tau="16", lambda_c=0.5, k=3, seeds=7,
            seed_base=11, bandwidth=4096, phi="2", out="somewhere", oracle=True,
        )
        plain = self._load(path, (
            "schedule=static:K4\nalgo=naive\ntau=oracle\nlambda_c=1.0\nk=4\nseeds=100\n"
            "seed_base=0\nbandwidth=none\nphi=oracle\nout=out\noracle=\n"
        ))
        assert plain == ExperimentConfig("static:K4", "naive")

    @pytest.mark.parametrize(
        "text, value",
        [("true", True), ("1", True), ("yes", True), ("YES", True),
         ("false", False), ("0", False), ("no", False), ("", False), ("False", False)],
    )
    def test_oracle_flag_parsing(self, text, value):
        cfg = config_from_values({"schedule": "static:K4", "algo": "naive", "oracle": text})
        assert cfg.oracle is value

    def test_oracle_flag_rejects_other_text(self):
        with pytest.raises(ValueError, match="oracle"):
            config_from_values({"schedule": "static:K4", "algo": "naive", "oracle": "maybe"})

    @pytest.mark.parametrize("text, value", [("false", False), ("true", True)])
    def test_oracle_flag_through_file(self, tmp_path, text, value):
        cfg = self._load(tmp_path / "cfg", (
            "schedule=static:K4\nalgo=naive\ntau=oracle\nlambda_c=1.0\nk=4\nseeds=100\n"
            f"seed_base=0\nbandwidth=none\nphi=oracle\nout=out\noracle={text}\n"
        ))
        assert cfg == ExperimentConfig("static:K4", "naive", oracle=value)
        assert cfg.oracle is value

    def test_unknown_algo(self):
        with pytest.raises(ValueError):
            ExperimentConfig("static:K4", "frobnicate")

    @pytest.mark.parametrize("key, value", [
        ("tau", "-1"), ("tau", "1.5"), ("tau", "mixing"), ("tau", ""),
        ("phi", "0"), ("phi", "-3"), ("phi", "worstcase"), ("phi", "2.0"),
    ])
    def test_bad_tau_or_phi_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be .* or an integer >= {int(key == 'phi')}, got {key}="):
            ExperimentConfig("static:K4", "naive", **{key: value})

    def test_unknown_key_names_itself_and_the_known_ones(self):
        with pytest.raises(ValueError, match="unknown config key") as info:
            config_from_values({"schedule": "static:K4", "algo": "naive", "seed": "5"})
        message = str(info.value)
        assert "seed," not in message.split(";")[0] and "seed" in message
        assert all(f.name in message.split(";")[1] for f in fields(ExperimentConfig))

    # The README examples' report configs, written out by hand so that a
    # changed default or a changed conversion shows.
    @pytest.mark.parametrize("argv, expect", [
        ("--schedule static:petersen --algo single --tau oracle --seeds 100 --bandwidth 100000 "
         "--oracle --out out/",
         dict(algo="single", bandwidth=100000, k=4, lambda_c=1.0, oracle=True, out="out/",
              phi="oracle", schedule="static:petersen", seed_base=0, seeds=100, tau="oracle")),
        ("--schedule rr:n=16,d=4 --algo gossip --k 4 --tau 8 --bandwidth 100000 --seeds 25 "
         "--out out-gossip/",
         dict(algo="gossip", bandwidth=100000, k=4, lambda_c=1.0, oracle=False, out="out-gossip/",
              phi="oracle", schedule="rr:n=16,d=4", seed_base=0, seeds=25, tau="8")),
        ("--schedule srr:n=32,d=8 --algo estimate-mix --seeds 5 --bandwidth 100000 --oracle "
         "--out out-mix/",
         dict(algo="estimate-mix", bandwidth=100000, k=4, lambda_c=1.0, oracle=True, out="out-mix/",
              phi="oracle", schedule="srr:n=32,d=8", seed_base=0, seeds=5, tau="oracle")),
        ("--schedule static:K4 --algo lemma-suite --seeds 200 --out out-lemmas/",
         dict(algo="lemma-suite", bandwidth=None, k=4, lambda_c=1.0, oracle=False, out="out-lemmas/",
              phi="oracle", schedule="static:K4", seed_base=0, seeds=200, tau="oracle")),
    ], ids=["single", "gossip", "estimate-mix", "lemma-suite"])
    def test_readme_report_configs(self, argv, expect):
        args = _build_parser().parse_args(["run", *argv.split()])
        got = _config_from_args(args).to_dict()
        assert got == expect
        assert [type(got[k]) for k in expect] == [type(v) for v in expect.values()]

    def test_resolvers(self):
        cfg = ExperimentConfig("static:K4", "naive", tau="worstcase")
        sched = parse_schedule_spec("static:K4", seed=0)
        assert resolve_tau(cfg, sched) == 2 * 16
        assert resolve_phi(cfg, sched) == 1
        cfg2 = ExperimentConfig("static:K4", "naive", tau="7", phi="3")
        assert resolve_tau(cfg2, sched) == 7 and resolve_phi(cfg2, sched) == 3

    @pytest.mark.parametrize("spec, horizon", [
        ("static:K4", 1), ("srr:n=16,d=3", 1), ("rr:n=16,d=3", 16), ("periodic:{}", 20),
    ])
    def test_oracle_phi_horizon(self, monkeypatch, tmp_path, spec, horizon):
        # resolve_phi and the lemma suite's census take phi over one round of a
        # static schedule, over the whole period of a periodic one and over
        # PHI_HORIZON rounds of any other.
        write_schedule_file(RandomRegularSchedule(8, 3, seed=4), 20, tmp_path / "sched.jsonl")
        spec = spec.format(tmp_path / "sched.jsonl")
        seen = []
        real = harness.dynamic_diameter
        monkeypatch.setattr(harness, "dynamic_diameter", lambda s, h: seen.append(h) or real(s, h))
        resolve_phi(ExperimentConfig(spec, "naive"), parse_schedule_spec(spec, seed=0))
        assert seen == [horizon]
        seen.clear()
        monkeypatch.setattr(harness, "parse_schedule_spec", lambda _, seed: parse_schedule_spec(spec, seed=seed))
        for name in [n for n in vars(harness) if n.startswith("check_")]:
            monkeypatch.setattr(harness, name, lambda *a, **kw: None)
        harness.lemma_suite(instances=0)
        assert seen == [horizon]

    @pytest.mark.parametrize("spec, seed, phi, tau", [("rr:n=64,d=3", 0, 6, 14), ("rr:n=32,d=3", 1, 5, 24)])
    def test_replayed_schedule_measured_over_its_period(self, tmp_path, spec, seed, phi, tau):
        # The README replay: `dynwalk schedule --rounds 32` written, then run
        # as periodic:.  A prefix of 16 starts and 8 snapshots read phi 5 and
        # tau 11 on the first file, and tau 13 on the second.
        path = tmp_path / "sched.jsonl"
        write_schedule_file(parse_schedule_spec(spec, seed=seed), 32, path)
        sched = parse_schedule_spec(f"periodic:{path}", seed=0)
        cfg = ExperimentConfig(f"periodic:{path}", "single")
        assert sched.period == 32
        assert (resolve_phi(cfg, sched), resolve_tau(cfg, sched)) == (phi, tau)


class TestRunExperiment:
    def test_naive_tau_zero(self, tmp_path):
        cfg = ExperimentConfig(
            "static:K4", "naive", tau="0", seeds=1, bandwidth=1 << 20, out=str(tmp_path / "o")
        )
        report, code = run_experiment(cfg)
        assert code == EXIT_OK
        assert report.aggregates["rounds"]["median"] == 0

    def test_reproducible_outputs(self, tmp_path):
        rows = []
        for sub in ("a", "b"):
            cfg = ExperimentConfig(
                "rr:n=8,d=3", "single", tau="12", seeds=5,
                bandwidth=1 << 20, out=str(tmp_path / sub),
            )
            run_experiment(cfg)
            rows.append((tmp_path / sub / "single_per_seed.jsonl").read_bytes())
        assert rows[0] == rows[1]

    def test_aggregates_recomputable(self, tmp_path):
        cfg = ExperimentConfig(
            "srr:n=16,d=3", "single", tau="40", seeds=9,
            bandwidth=1 << 20, out=str(tmp_path / "o"),
        )
        report, _ = run_experiment(cfg)
        recs = [
            json.loads(line)
            for line in (tmp_path / "o" / "single_per_seed.jsonl").read_text().splitlines()
        ]
        assert statistics.median(r["rounds_used"] for r in recs) == report.aggregates["rounds"]["median"]

    def test_gossip_csv_rows(self, tmp_path):
        cfg = ExperimentConfig(
            "srr:n=16,d=4", "gossip", tau="8", k=2, seeds=3,
            bandwidth=1 << 20, out=str(tmp_path / "o"),
        )
        report, code = run_experiment(cfg)
        lines = (tmp_path / "o" / "gossip.csv").read_text().splitlines()
        assert lines[0] == "n,d,k,tau,phi,f,rounds_rw,phase1_rounds,rounds_trivial,winner,coverage_rw,seed"
        assert len(lines) == 4  # header + one row per seed
        assert report.aggregates["coverage_rate"] == 1.0

    def test_tv_to_oracle_of_the_readme_single_example(self, tmp_path):
        cfg = ExperimentConfig(
            "static:petersen", "single", seeds=100, bandwidth=100000, out=str(tmp_path / "o"), oracle=True,
        )
        report, code = run_experiment(cfg)
        tau = report.aggregates["tau"]
        rows = [json.loads(line) for line in (tmp_path / "o" / "single_per_seed.jsonl").read_text().splitlines()]
        counts = np.bincount([r["destination"] for r in rows], minlength=10) / len(rows)
        sched = parse_schedule_spec("static:petersen")
        law = next(islice(oracle.walk_laws(oracle.point_mass(10, 0), sched), tau, None))  # row 0 of P^tau
        assert code == EXIT_OK and tau > 0
        assert report.aggregates["tv_to_oracle"] == pytest.approx(0.5 * np.abs(counts - law).sum(), abs=1e-12)

    def test_many_sweep_rows_and_aggregates(self, tmp_path):
        cfg = ExperimentConfig(
            "rr:n=16,d=3", "many", tau="40", k=6, seeds=3, bandwidth=100000, out=str(tmp_path / "o"),
        )
        report, code = run_experiment(cfg)
        rows = [json.loads(line) for line in (tmp_path / "o" / "many_per_seed.jsonl").read_text().splitlines()]
        assert code == EXIT_OK
        assert [(r["seed"], r["walk_id"], r["source"]) for r in rows] == [(i, j, j) for i in range(3) for j in range(6)]
        rounds = sorted(r["rounds_used"] for r in rows)
        assert report.aggregates["rounds"] == {
            "median": statistics.median(rounds), "q25": rounds[17 // 4], "q75": rounds[3 * 17 // 4],
            "min": rounds[0], "max": rounds[-1],
        }
        assert report.aggregates["fallbacks_total"] == sum(r["fallbacks"] for r in rows)
        assert report.aggregates["tau"] == 40

    def test_estimate_mix_with_oracle(self, tmp_path):
        cfg = ExperimentConfig(
            "srr:n=24,d=8", "estimate-mix", seeds=1, bandwidth=1 << 20,
            out=str(tmp_path / "o"), oracle=True,
        )
        report, code = run_experiment(cfg)
        assert code == EXIT_OK and not report.failures
        row = json.loads((tmp_path / "o" / "estimate-mix_per_seed.jsonl").read_text().splitlines()[0])
        lo, hi = row["oracle_bracket"]
        assert lo <= row["tau_tilde"] <= hi

    def test_estimate_mix_oracle_bracket_computed_once(self, tmp_path, monkeypatch):
        calls = []
        mixing_time_oracle = oracle.mixing_time_oracle
        monkeypatch.setattr(
            oracle, "mixing_time_oracle", lambda *a: calls.append(a[1:]) or mixing_time_oracle(*a)
        )
        cfg = ExperimentConfig(
            "srr:n=24,d=8", "estimate-mix", seeds=3, bandwidth=1 << 20,
            out=str(tmp_path / "o"), oracle=True,
        )
        report, code = run_experiment(cfg)
        assert code == EXIT_OK and len(calls) == 2
        rows = (tmp_path / "o" / "estimate-mix_per_seed.jsonl").read_text().splitlines()
        assert len({json.dumps(json.loads(r)["oracle_bracket"]) for r in rows}) == 1


    @pytest.mark.parametrize("argv, stitched, tv", [
        ("--schedule perm:base=petersen --algo single --tau 60", True, None),
        ("--schedule rr:n=16,d=3 --algo many --k 2 --tau 40 --lambda-c 0.2", True, None),
        ("--schedule perm:base=petersen --algo naive --tau 60", False, float),
        ("--schedule rr:n=16,d=3 --algo many --k 6 --tau 40", False, float),
        ("--schedule srr:n=16,d=3 --algo single --tau 160", True, float),
        ("--schedule static:K4 --algo single --tau 40 --lambda-c 0.1", True, float),
    ], ids=["perm-stitched", "rr-stitched", "perm-naive", "rr-naive-branch", "srr-stitched", "k4-fallbacks"])
    def test_tv_to_oracle_is_none_once_a_walk_stitched_on_a_changing_schedule(self, tmp_path, argv, stitched, tv):
        # The live law is a stitched walk's law only when every round has the
        # same snapshot (period 1); perm-stitched used to report 0.333.
        out = tmp_path / "o"
        assert main(["run", *argv.split(), "--seeds", "6", "--bandwidth", "100000", "--oracle", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        rows = [json.loads(line) for line in Path(report["outputs"]["per_seed"]).read_text().splitlines()]
        assert any(r["segment_lengths"] or r["fallbacks"] for r in rows) == stitched
        got = report["aggregates"]["tv_to_oracle"]
        assert got is None if tv is None else isinstance(got, tv) and 0 <= got <= 1


# Small sweeps of every algorithm: sha256 of the per-seed file (JSON Lines,
# or gossip's CSV) and of report.json without `generated_at`, re-serialized
# with sorted keys.
SWEEP_PINS = {
    "naive": (
        "--schedule perm:base=C9 --algo naive --tau 30 --seeds 8 --bandwidth 100000 --oracle",
        "f3b5e73c3928f4609d3580e0b8cc745387f99d71a7ab7aaab66d382ed5c9f21e",
        "82e0dfdf2c4ffb3f6df91e13984d750aa0b0260215e19b6624c43a82049b41f8",
    ),
    "single-fallbacks": (
        "--schedule static:K4 --algo single --tau 40 --lambda-c 0.1 --seeds 8 --bandwidth 100000 --oracle",
        "322e6622d02dedca8488280fb889803572661181fd1d4174e4f68d97af40c3a1",
        "6b6f4143630f95bf7630ee5f21260649139f6bd865c30b14cb3a37f77aeb7784",
    ),
    "single-dynamic": (
        "--schedule rr:n=16,d=3 --algo single --tau 40 --seeds 6 --bandwidth 100000",
        "70f8501de6d9585332141be4a8b4c0a0725aa6530f78b9d5a8e0bdc40c30b2cc",
        "b45a32fb1011dff2787f1fbb63e5ce1e963a118f9575beaa0bb08eab77359842",
    ),
    "many": (
        "--schedule srr:n=16,d=3 --algo many --k 4 --tau 160 --seeds 3 --bandwidth 100000 --oracle",
        "d995807ae2ce27da2187fa18748e86fce0f2a8f8e4fa30f00aec18c543e3daac",
        "8880c62685f141aa2b8c33f88d034cd5dac11a219a821084bd1498d523b29564",
    ),
    "gossip": (
        "--schedule rr:n=16,d=4 --algo gossip --k 4 --tau 8 --seeds 5 --bandwidth 100000",
        "98e7388bf6ac753ccb26b0ca4bb0be01e6d1c7fe61360149791a6ef6554bc076",
        "a25a08e9c740cfe645b3e1e7ed1ccf134011cb85ca7543e44367bbbf8a34cc02",
    ),
    "estimate-mix": (
        "--schedule srr:n=24,d=8 --algo estimate-mix --seeds 2 --bandwidth 100000 --oracle",
        "a7149d24e251a7c9c2def3e60200b945f9ec4225af676894806e0cfca4413c42",
        "d58a314e187f8502d0629725a7b536ee976c6f89f716b1e8e7e7d2f18af39336",
    ),
    "lemma-suite": (
        "--schedule static:K4 --algo lemma-suite --seeds 2",
        "2639e65bee8acceb933261138846a7144183f4e25436d84066daa6ec6f40e8d0",
        "5a9a3b5b51a09bf12be6d6794d6ca9a84b202f8d1852caf05b7f62f523d99d94",
    ),
}


@pytest.mark.parametrize("argv, per_seed_sha, report_sha", SWEEP_PINS.values(), ids=SWEEP_PINS)
def test_sweep_pins(tmp_path, monkeypatch, capsys, argv, per_seed_sha, report_sha):
    monkeypatch.chdir(tmp_path)  # the report names its outputs by the relative --out
    assert main(["run", *argv.split(), "--out", "o"]) == EXIT_OK
    report = json.loads(Path("o/report.json").read_text())
    del report["generated_at"]
    per_seed = Path(report["outputs"]["per_seed"] or report["outputs"]["csv"]).read_bytes()
    assert hashlib.sha256(per_seed).hexdigest() == per_seed_sha
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == report_sha


class TestFloodMemoIndependence:
    """A sweep's floods hit the schedule's memo from its second seed on; the
    last seed's row equals that seed's row on a freshly parsed schedule."""

    @staticmethod
    def _cold(cfg, run):
        schedule = parse_schedule_spec(cfg.schedule, seed=cfg.adversary_seed())
        phi, tau = resolve_phi(cfg, schedule), resolve_tau(cfg, schedule)
        seed = cfg.seed_base + cfg.seeds - 1
        engine = CongestEngine(schedule, SimConfig(seed=seed, bandwidth_bits=cfg.bandwidth, phi=phi))
        assert memo_traces(schedule) == 0
        return seed, run(engine, schedule.n, phi, tau)

    def test_gossip(self, tmp_path):
        cfg = ExperimentConfig(
            "rr:n=16,d=4", "gossip", tau="8", k=4, seeds=25,
            bandwidth=100000, out=str(tmp_path / "o"),
        )
        run_experiment(cfg)
        last = (tmp_path / "o" / "gossip.csv").read_text().splitlines()[-1].split(",")

        def race(engine, n, phi, tau):
            assignment = {t: [(t - 1) % n] for t in range(1, cfg.k + 1)}
            params = resolve_gossip_params(n, cfg.k, tau, phi)
            return k_gossip_race(engine, assignment, params, tau, phi)

        seed, cold = self._cold(cfg, race)
        assert last[6:] == [
            str(cold.rounds_rw), str(cold.phase1_rounds), str(cold.rounds_trivial), cold.winner,
            str(int(cold.coverage_rw_complete)), str(seed),
        ]

    def test_single(self, tmp_path):
        cfg = ExperimentConfig(
            "rr:n=16,d=3", "single", tau="40", seeds=50,
            bandwidth=100000, out=str(tmp_path / "o"),
        )
        run_experiment(cfg)
        rows = [
            json.loads(line)
            for line in (tmp_path / "o" / "single_per_seed.jsonl").read_text().splitlines()
        ]
        assert sum(len(r["segment_lengths"]) for r in rows) == 56  # stitches, two floods each

        def walk(engine, n, phi, tau):
            params = WalkParams.for_many(tau, phi, 1, cfg.lambda_c)
            return single_random_walk(engine, 0, params, record_path=False)

        seed, cold = self._cold(cfg, walk)
        assert rows[-1] == harness._walk_row(seed, cold)


class TestLemmaChecks:
    def test_quick_suite_passes(self):
        for check in (
            check_stationarity,
            check_monotonicity,
            check_contraction,
            check_eigen_bound,
            check_supnorm,
        ):
            result = check(25, seed=7)
            assert result.passed, result
        assert check_mixing_bound(10, seed=7).passed

    def test_connector_census_full_size(self):
        # Walk-protocols invariant: nodes visited t times appear as stitch
        # points at most t*(log2 n)^2/lambda times, violation frequency
        # within 1/n^2 + 0.02 over 200 trials per configuration.
        for spec, seed, phi in (("static:C9", 1, 4), ("srr:n=16,d=3", 99, None)):
            sched = parse_schedule_spec(spec, seed=seed)
            from dynwalk.graphs import dynamic_diameter

            phi_val = phi if phi is not None else dynamic_diameter(sched, 1)
            res = check_connector_bound(sched, tau=40, trials=200, seed=41_000, phi=phi_val)
            assert res.passed, res

    def test_lemma_suite_experiment(self, tmp_path):
        cfg = ExperimentConfig("static:K4", "lemma-suite", seeds=10, out=str(tmp_path / "o"))
        report, code = run_experiment(cfg)
        assert code == EXIT_OK and not report.failures
        names = {p["name"] for p in report.aggregates["properties"]}
        assert {"stationarity", "monotonicity", "contraction", "eigen_bound",
                "supnorm_nonincrease", "mixing_time_bound"} <= names
        assert any(name.startswith("visits_bound") for name in names)
        assert any(name.startswith("connector_bound") for name in names)


@pytest.mark.parametrize("check, steps", [
    (check_stationarity, 20), (check_contraction, 50), (check_monotonicity, 50), (check_supnorm, 30),
], ids=lambda x: getattr(x, "__name__", x))
def test_lemma_check_builds_each_matrix_once(monkeypatch, check, steps):
    # One stack per instance, of its steps' snapshots; contraction reads its
    # laws and its worst |lambda_2| from that one stack.
    built = []
    real = oracle.transition_matrices
    monkeypatch.setattr(oracle, "transition_matrices", lambda graphs: built.append(len(graphs)) or real(graphs))
    for name in ("transition_matrix", "spectral_summary", "walk_laws"):
        monkeypatch.setattr(oracle, name, lambda *args: pytest.fail(f"{name} called"))
    assert check(3, seed=5).passed
    assert built == [steps] * 3


# The lemma checks as they were written before they shared one property loop
# and read their laws from `oracle.walk_laws`: each its own rng, worst margin,
# violation count and product loop. They pin the shared loop's results.

def _ref_random_schedule(rng):
    n = rng.choice([8, 10, 12, 16, 20, 24, 28, 32])
    d = rng.choice([3, 4, 5])
    if (n * d) % 2:
        d = 4
    return RandomRegularSchedule(n, d, seed=rng.randrange(2**48))


def _ref_random_distribution(rng, n):
    weights = np.array([rng.random() for _ in range(n)]) + 1e-9
    return weights / weights.sum()


def _ref_stationarity(instances, seed, tol=1e-12, steps=20):
    rng = random.Random(seed)
    worst = 0.0
    violations = 0
    for _ in range(instances):
        schedule = _ref_random_schedule(rng)
        p = oracle.evolve(oracle.uniform(schedule.n), schedule, 1, steps)
        dev = float(np.abs(p - 1.0 / schedule.n).max())
        worst = max(worst, dev)
        if dev > tol:
            violations += 1
    return PropertyResult("stationarity", instances, violations, worst, violations == 0)


def _ref_contraction(instances, seed, tol=1e-7, steps=50):
    rng = random.Random(seed)
    worst = -math.inf
    violations = 0
    for _ in range(instances):
        schedule = _ref_random_schedule(rng)
        p0 = _ref_random_distribution(rng, schedule.n)
        lam = max(
            oracle.spectral_summary(schedule.snapshot_at(t)).lambda2_abs
            for t in range(1, steps + 1)
        )
        p = p0
        bound = oracle.l2_to_uniform(p0)
        bad = False
        for t in range(1, steps + 1):
            p = p @ oracle.transition_matrix(schedule.snapshot_at(t))
            bound *= lam
            margin = oracle.l2_to_uniform(p) - bound
            worst = max(worst, margin)
            if margin > tol:
                bad = True
        violations += bad
    return PropertyResult("contraction", instances, violations, worst, violations == 0)


def _ref_monotonicity(instances, seed, tol=1e-7, steps=50):
    rng = random.Random(seed)
    worst = -math.inf
    violations = 0
    for _ in range(instances):
        schedule = _ref_random_schedule(rng)
        p = oracle.point_mass(schedule.n, rng.randrange(schedule.n))
        prev = oracle.l2_to_uniform(p)
        bad = False
        for t in range(1, steps + 1):
            p = p @ oracle.transition_matrix(schedule.snapshot_at(t))
            cur = oracle.l2_to_uniform(p)
            worst = max(worst, cur - prev)
            if cur - prev > tol:
                bad = True
            prev = cur
        violations += bad
    return PropertyResult("monotonicity", instances, violations, worst, violations == 0)


def _ref_supnorm(instances, seed, tol=1e-7, steps=30):
    rng = random.Random(seed)
    worst = -math.inf
    violations = 0
    for _ in range(instances):
        schedule = _ref_random_schedule(rng)
        p = _ref_random_distribution(rng, schedule.n)
        prev = float(np.abs(p).max())
        bad = False
        for t in range(1, steps + 1):
            p = p @ oracle.transition_matrix(schedule.snapshot_at(t))
            cur = float(np.abs(p).max())
            worst = max(worst, cur - prev)
            if cur - prev > tol:
                bad = True
            prev = cur
        violations += bad
    return PropertyResult("supnorm_nonincrease", instances, violations, worst, violations == 0)


def _ref_eigen_bound(instances, seed, tol=1e-7):
    rng = random.Random(seed)
    worst = -math.inf
    violations = 0
    for _ in range(instances):
        n = rng.choice([8, 10, 12, 16, 20, 24, 28, 32])
        d = rng.choice([3, 4, 5])
        if (n * d) % 2:
            d = 4
        g = random_regular_graph(n, d, rng)
        bound = 1.0 - 1.0 / (d * dynamic_diameter(StaticSchedule(g), 1) * n)
        margin = oracle.spectral_summary(g).lambda2_signed - bound
        worst = max(worst, margin)
        if margin > tol:
            violations += 1
    return PropertyResult("eigen_bound", instances, violations, worst, violations == 0)


def _ref_mixing_bound(instances, seed, c=3.0):
    rng = random.Random(seed)
    worst = -math.inf
    violations = 0
    for _ in range(instances):
        schedule = _ref_random_schedule(rng)
        n = schedule.n
        source = rng.randrange(n)
        tau = oracle.mixing_time_oracle(schedule, source, 1.0 / n)
        lam = max(
            oracle.spectral_summary(schedule.snapshot_at(t)).lambda2_abs
            for t in range(1, max(2, tau) + 1)
        )
        bound = c * math.log(n) / (1.0 - lam)
        worst = max(worst, tau - bound)
        if tau > bound:
            violations += 1
    return PropertyResult("mixing_time_bound", instances, violations, worst, violations == 0)


def _ref_visits_bound(schedule, k, length, trials, seed, phi=None):
    n = schedule.n
    bound = 32.0 * schedule.d * math.sqrt(k * length + 1.0) * math.log2(n) + k
    violations = 0
    worst = -math.inf
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
        f"visits_bound_k{k}_l{length}", trials, violations, worst, violations <= allowed,
        note=f"bound={bound:.1f}, allowed_violations={allowed:.1f}",
    )


def _ref_connector_bound(schedule, tau, trials, seed, phi, lambda_c=1.0):
    n = schedule.n
    params = WalkParams.for_many(tau, phi, 1, lambda_c)
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
        f"connector_bound_tau{tau}", pairs, violations, worst, violations <= allowed,
        note=f"lambda={params.lambda_walk}, allowed_violations={allowed:.1f}",
    )


class TestCensusChecksMatchLoops:
    @pytest.mark.parametrize("spec", ["static:C9", "srr:n=16,d=3"])
    def test_equal_results(self, spec):
        schedule = parse_schedule_spec(spec, seed=ADVERSARY_TAG)
        phi = dynamic_diameter(schedule, 1)
        for seed in range(3):
            for k, length in ((1, 40), (4, 40)):
                args = (schedule, k, length, 4, seed)
                assert check_visits_bound(*args, phi=phi) == _ref_visits_bound(*args, phi=phi)
            args = (schedule, 40, 4, seed, phi)
            assert check_connector_bound(*args) == _ref_connector_bound(*args)


class TestLemmaChecksMatchLoops:
    # Three instances per seed. tol=-1 makes every instance violate and
    # tol=-1e-3 some of them, so the violation rule is pinned as well as the
    # worst margin.
    @pytest.mark.parametrize("tol", [None, -1.0, -1e-3], ids=["default-tol", "tol-1", "tol-1e-3"])
    @pytest.mark.parametrize(
        "check, reference",
        [
            (check_stationarity, _ref_stationarity),
            (check_contraction, _ref_contraction),
            (check_monotonicity, _ref_monotonicity),
            (check_supnorm, _ref_supnorm),
            (check_eigen_bound, _ref_eigen_bound),
        ],
        ids=lambda f: f.__name__,
    )
    def test_equal_results(self, check, reference, tol):
        kwargs = {} if tol is None else {"tol": tol}
        for seed in range(10):
            assert check(3, seed, **kwargs) == reference(3, seed, **kwargs)

    def test_any_margin_over_tol_violates(self):
        # The margins below are not sorted, so only the any-margin rule
        # counts both instances.
        draws = iter([[0.0, 2.0, -1.0], [-3.0, -2.0, -4.0], [5.0, 0.0]])
        result = _property("p", 3, 0, 1.0, lambda rng: next(draws))
        assert result == PropertyResult("p", 3, 2, 5.0, False)

    @pytest.mark.parametrize("c", [3.0, 0.01])
    def test_mixing_bound_equal_results(self, c):
        for seed in range(10):
            assert check_mixing_bound(3, seed, c=c) == _ref_mixing_bound(3, seed, c=c)


@pytest.mark.parametrize(
    "error",
    [ScheduleError, CongestionError, RoundLimitError, FloodIncompleteError, ProtocolError,
     CouponsExhausted, EstimationError, MixingCapError],
    ids=lambda cls: cls.__name__,
)
def test_named_errors_share_one_base(error):
    # The CLI maps every DynwalkError to exit code 2.
    assert issubclass(error, DynwalkError) and issubclass(error, RuntimeError)


REGULAR_BASES = {name: named_graph(name) for name in ("K4", "C5", "C9", "petersen")}
# Node counts and degrees: ones that often make a graph, any small ones, and
# ones past every size limit.
HUGE = st.sampled_from([10**7, 10**12, 10**30])
NODES = st.one_of(st.integers(5, 12), st.integers(-1, 12), HUGE)
DEGREES = st.one_of(st.integers(2, 4), st.integers(-1, 12), HUGE)


def _edge_lists(base):
    """One snapshot's edges: the base graph's, a multiset of them (edges
    repeated or dropped, so degrees may differ), random pairs in and around
    its node range (self-loops, ids out of range), or none, with a few
    arbitrary pairs appended now and then."""
    edges = sorted(base.edges)
    pair = st.tuples(st.integers(-1, base.n), st.integers(-1, base.n))
    lists = st.one_of(
        st.just(edges), st.just(edges), st.lists(st.sampled_from(edges), max_size=len(edges) + 2),
        st.lists(pair, max_size=12), st.just([]),
    )
    extra = st.one_of(st.just([]), st.just([]), st.lists(pair, min_size=1, max_size=2))
    return st.tuples(lists, extra).map(lambda parts: parts[0] + parts[1])


@st.composite
def schedule_inputs(draw):
    """A function of a directory that returns a schedule spec: a schedule
    file it writes there, read through static:, periodic: or perm:base=, or
    an rr:/srr: shape or a K<n>/C<n> graph name.  A file's header may give n
    as 0, a negative number, true or 10^30, and any d or T."""
    kind = draw(st.sampled_from(["static:{}", "periodic:{}", "perm:base={}", "rr", "srr", "name"]))
    if kind in ("rr", "srr"):
        spec = f"{kind}:n={draw(NODES)},d={draw(DEGREES)}"
        return lambda tmp: spec
    if kind == "name":
        spec = draw(st.sampled_from(["static:{}", "perm:base={}"])).format(f"{draw(st.sampled_from('KC'))}{draw(NODES)}")
        return lambda tmp: spec
    base = REGULAR_BASES[draw(st.sampled_from(sorted(REGULAR_BASES)))]
    edge_lists = draw(st.lists(_edge_lists(base), min_size=1, max_size=3) | st.just([]))
    header = {"n": draw(st.just(base.n) | st.just(base.n) | st.sampled_from([0, -3, True, 10**30]) | st.integers(1, 10))}
    for key, value, other in (("d", base.d, st.integers(-1, 5) | st.just(10**30)), ("T", len(edge_lists), st.integers(-1, 4))):
        choice = draw(st.sampled_from(["absent", "true", "other"]))
        if choice != "absent":
            header[key] = value if choice == "true" else draw(other)
    rows = [{"t": t, "edges": [list(e) for e in edges]} for t, edges in enumerate(edge_lists, 1)]

    def write(tmp):
        path = tmp / "s.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in [header, *rows]))
        return kind.format(path)

    return write


class TestCli:
    def test_missing_required(self, capsys):
        assert main(["run", "--algo", "naive"]) == EXIT_CONFIG_ERROR

    def test_bad_schedule(self, tmp_path):
        assert main([
            "run", "--schedule", "bogus:x", "--algo", "naive", "--out", str(tmp_path / "o"),
        ]) == EXIT_CONFIG_ERROR

    @staticmethod
    def _one_line_error(capsys, code):
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        return err

    @pytest.mark.parametrize("spec", ["rr:n=16", "rr:n=x,d=3", "perm:"])
    def test_malformed_spec_exit_2(self, tmp_path, capsys, spec):
        code = main(["run", "--schedule", spec, "--algo", "naive", "--out", str(tmp_path / "o")])
        assert spec in self._one_line_error(capsys, code)

    def test_flood_incomplete_exit_2(self, tmp_path, capsys):
        # phi=1 is below rr16's flooding time, so the first stitch flood fails.
        code = main([
            "run", "--schedule", "srr:n=16,d=3", "--algo", "single", "--phi", "1",
            "--seeds", "1", "--out", str(tmp_path / "o"),
        ])
        assert "flood" in self._one_line_error(capsys, code)
        assert not (tmp_path / "o").exists()  # the sweep failed before its first write

    def test_disconnected_schedule_exit_2(self, tmp_path, capsys, triangles):
        # The gossip walks run, then the first broadcast stalls.
        path = tmp_path / "triangles.jsonl"
        write_schedule_file(triangles, 1, path)
        code = main([
            "run", "--schedule", f"periodic:{path}", "--algo", "gossip", "--k", "2", "--tau", "4",
            "--phi", "3", "--seeds", "1", "--out", str(tmp_path / "o"),
        ])
        assert "snapshot disconnected" in self._one_line_error(capsys, code)
        assert not (tmp_path / "o").exists()

    def test_phi_resolution_stall_exit_2(self, tmp_path, capsys, triangles):
        # C6 then two triangles: a flood from node 1 meets only its own
        # triangle in round 2, so resolving phi stalls before any walk.
        path = tmp_path / "c6-triangles.jsonl"
        write_snapshots(path, [named_graph("C6"), triangles.snapshot_at(1)])
        code = main([
            "run", "--schedule", f"periodic:{path}", "--algo", "naive", "--tau", "3",
            "--seeds", "1", "--out", str(tmp_path / "o"),
        ])
        assert self._one_line_error(capsys, code) == "run error: flood stalled at round 2: snapshot disconnected\n"
        assert not (tmp_path / "o").exists()

    def test_estimate_mix_bracket_miss_exit_1(self, tmp_path, capsys, monkeypatch):
        # An oracle bracket that excludes every estimate fails each seed, and
        # the report is still written.
        monkeypatch.setattr(oracle, "mixing_time_oracle", lambda *args: 10**6)
        out = tmp_path / "o"
        code = main([
            "run", "--schedule", "srr:n=24,d=8", "--algo", "estimate-mix", "--seeds", "2",
            "--bandwidth", "100000", "--oracle", "--out", str(out),
        ])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_PROPERTY_FAILURE and len(err) == 2
        for seed, line in enumerate(err):
            assert re.fullmatch(rf"FAIL: seed {seed}: tau_tilde \d+ outside \(1000000, 1000000\)", line)
        report = json.loads((out / "report.json").read_text())
        assert len(report["failures"]) == 2 and report["aggregates"]["tau_tilde"]["max"] < 10**6

    # C4 then K4 share no degree: the schedule is rejected when it is built,
    # before any round runs and before any output is written.
    @pytest.mark.parametrize("argv", [
        *(["run", "--algo", algo, "--tau", "3", "--seeds", "1"]
          for algo in ("naive", "single", "many", "gossip", "estimate-mix")),
        ["schedule", "--rounds", "3"],
    ], ids=["naive", "single", "many", "gossip", "estimate-mix", "schedule"])
    def test_non_regular_schedule_exit_2(self, tmp_path, capsys, argv):
        path = tmp_path / "mixed.jsonl"
        write_snapshots(path, [named_graph("C4"), named_graph("K4")])
        out = tmp_path / "o"
        code = main([*argv, "--schedule", f"periodic:{path}", "--out", str(out)])
        assert self._one_line_error(capsys, code).startswith("config error: non-regular schedule ")
        assert not out.exists()

    def test_mixing_cap_exit_2(self, tmp_path, capsys):
        # C8 is bipartite, so resolving tau from the oracle never mixes; the
        # output directory is made only once tau resolves.
        code = main([
            "run", "--schedule", "static:C8", "--algo", "single", "--seeds", "1",
            "--out", str(tmp_path / "o"),
        ])
        assert "cap" in self._one_line_error(capsys, code)
        assert not (tmp_path / "o").exists()

    def test_mixing_cap_of_the_oracle_bracket_exit_2(self, tmp_path, capsys):
        # With tau given, estimate-mix --oracle still asks C8 for its mixing time.
        code = main([
            "run", "--schedule", "static:C8", "--algo", "estimate-mix", "--tau", "5", "--phi", "4",
            "--seeds", "1", "--oracle", "--out", str(tmp_path / "o"),
        ])
        assert "no mixing below" in self._one_line_error(capsys, code)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("via_flags", [False, True], ids=["file-only", "file-and-flags"])
    def test_unknown_config_key_exit_2(self, tmp_path, capsys, via_flags):
        # seed= is a typo for seed_base=; it used to run seed 0 and exit 0.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("schedule=static:C5\nalgo=naive\ntau=4\nseed=5\n")
        flags = ["--seeds", "1", "--bandwidth", "100000"] if via_flags else []
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), *flags, "--out", str(out)])
        err = self._one_line_error(capsys, code)
        assert "unknown config key(s) seed;" in err and "seed_base" in err
        assert not out.exists()

    @pytest.mark.parametrize("lines", [
        ['{"d": 2, "T": 1}', '{"t": 1, "edges": [[0, 1], [1, 2], [0, 2]]}'],  # no "n"
        ['{"n": 3, "d": 2, "T": 1}', '{"edges": [[0, 1], [1, 2], [0, 2]]}'],  # no "t"
        ['{"n": 3, "d": 2, "T": 1}', '{"t": 1}'],  # no "edges"
        ['{"n": 3, "d": 2, "T": 1}', '{"t": 1, "edges": 5}'],
        ['{"n": 3, "d": 2, "T": 1}', '{"t": 1, "edges": [[0, 1, 2]]}'],
        ['{"n": 3, "d": 2, "T": 1}', '[1, [[0, 1], [1, 2], [0, 2]]]'],  # a row that is no object
        ['5', '{"t": 1, "edges": [[0, 1], [1, 2], [0, 2]]}'],  # a header that is no object
        ['{"n": 0, "d": 2, "T": 1}', '{"t": 1, "edges": []}'],
        ['{"n": "3", "d": 2, "T": 1}', '{"t": 1, "edges": [[0, 1], [1, 2], [0, 2]]}'],
        ['{"n": 3, "d": 2, "T": "1"}', '{"t": 1, "edges": [[0, 1], [1, 2], [0, 2]]}'],
        ['{"n": 3, "d": 2, "T": 1}', '{"t": "1", "edges": [[0, 1], [1, 2], [0, 2]]}'],
        ['{"n": 3, "d": 2, "T": 1}', '{"t": 1, "edges": [[0, 1], [1, 2], [0, 2]]'],  # bad JSON
        ['{"n": 3, "d": 2, "T": 2}', '{"t": 1, "edges": [[0, 1], [1, 2], [0, 2]]}',
         '{"t": 7, "edges": [[0, 1], [1, 2], [0, 2]]}'],
        ['{"n": 3, "d": 2, "T": 2}', '{"t": 2, "edges": [[0, 1], [1, 2], [0, 2]]}',
         '{"t": 2, "edges": [[0, 1], [1, 2], [0, 2]]}'],
        ['{"n": 3, "d": 2, "T": 2}', '{"t": 1, "edges": [[0, 1], [1, 2], [0, 2]]}'],
        ['{"n": 3, "d": 2}', '{"t": 0, "edges": [[0, 1], [1, 2], [0, 2]]}'],
        ['{"n": 3, "d": 5, "T": 1}', '{"t": 1, "edges": [[0, 1], [1, 2], [0, 2]]}'],  # degree 2
        ['{"n": 3, "d": "2", "T": 1}', '{"t": 1, "edges": [[0, 1], [1, 2], [0, 2]]}'],
        ['{"n": 3, "d": 2, "T": 1}', '{"t": 1, "edges": ' + "[" * 100_000 + "]" * 100_000 + '}'],  # ended in a RecursionError traceback
        ['{"n": 3, "d": 2, "T": 1000000000000}', '{"t": 1, "edges": [[0, 1], [1, 2], [0, 2]]}'],  # built a list of 10^12 expected t
    ], ids=["no-n", "no-t", "no-edges", "edges-int", "edge-triple", "row-list", "header-int",
            "n-zero", "n-text", "T-text", "t-text", "bad-json", "t-1-7", "t-2-2", "T-short", "t-0",
            "d-five", "d-text", "deep-json", "T-1e12"])
    def test_malformed_schedule_file_exit_2(self, tmp_path, capsys, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code = main([
            "run", "--schedule", f"periodic:{path}", "--algo", "naive", "--tau", "3",
            "--seeds", "1", "--bandwidth", "100000", "--out", str(tmp_path / "o"),
        ])
        err = self._one_line_error(capsys, code)
        assert err.startswith("config error: ") and str(path) in err
        assert not (tmp_path / "o").exists()
        with pytest.raises(ScheduleError, match=re.escape(str(path))):
            read_schedule_file(path)

    def test_bad_oracle_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("schedule=static:C5\nalgo=naive\noracle=maybe\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert "oracle" in self._one_line_error(capsys, code)

    @pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
    @pytest.mark.parametrize(
        "algo, field, value", [("lemma-suite", "seeds", 0), ("single", "seeds", -3), ("many", "k", 0)]
    )
    def test_empty_sweep_exit_2(self, tmp_path, capsys, via_config, algo, field, value):
        out = tmp_path / "o"
        if via_config:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"schedule=static:K4\nalgo={algo}\n{field}={value}\n")
            argv = ["run", "--config", str(cfg)]
        else:
            argv = ["run", "--schedule", "static:K4", "--algo", algo, f"--{field}", str(value)]
        code = main([*argv, "--out", str(out)])
        assert f"{field}={value}" in self._one_line_error(capsys, code)
        assert not out.exists()

    # A static: or perm: source with a path separator or a .jsonl suffix is
    # read as a file, even when it is missing; anything else is a graph name.
    @pytest.mark.parametrize("spec, named", [
        ("periodic:{tmp}/missing.jsonl", "{tmp}/missing.jsonl"),
        ("static:{tmp}/missing.jsonl", "{tmp}/missing.jsonl"),
        ("perm:base={tmp}/missing", "{tmp}/missing"), ("static:missing.jsonl", "missing.jsonl"),
        ("periodic:{tmp}", "{tmp}"), ("static:{tmp}", "{tmp}"), ("perm:base={tmp}", "{tmp}"),
        ("static:", "'static:'"), ("periodic:", "'periodic:'"), ("perm:base=", "'perm:base='"),
    ], ids=["periodic-missing", "static-missing", "perm-missing", "static-missing-relative",
            "periodic-dir", "static-dir", "perm-dir", "static-empty", "periodic-empty", "perm-empty"])
    def test_unreadable_schedule_exit_2(self, tmp_path, capsys, spec, named):
        out = tmp_path / "o"
        code = main([
            "run", "--schedule", spec.format(tmp=tmp_path), "--algo", "single", "--seeds", "1",
            "--out", str(out),
        ])
        assert named.format(tmp=tmp_path) in self._one_line_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["single", "many"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_bad_lambda_c_exit_2(self, tmp_path, capsys, algo, via_config, value):
        # inf used to exit 1 with an OverflowError; 0 and -1 silently ran with lambda = 1.
        out = tmp_path / "o"
        if via_config:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"schedule=rr:n=16,d=3\nalgo={algo}\ntau=40\nlambda_c={value}\n")
            argv = ["run", "--config", str(cfg)]
        else:
            argv = ["run", "--schedule", "rr:n=16,d=3", "--algo", algo, "--tau", "40", "--lambda-c", value]
        code = main([*argv, "--seeds", "1", "--bandwidth", "100000", "--out", str(out)])
        assert "lambda_c" in self._one_line_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("argv, text", [
        ("--algo gossip --tau 0", "gossip needs tau >= 1 and phi >= 1, got tau=0"),
        ("--algo gossip --tau=-3", "config error: tau must be oracle or worstcase or an integer >= 0, got tau='-3'"),
        ("--algo gossip --phi 0", "config error: phi must be oracle or an integer >= 1, got phi='0'"),
        ("--algo naive --tau=-1", "config error: tau must be"),
        ("--algo single --phi=-2", "config error: phi must be"),
        ("--algo single --tau 40 --lambda-c 1e308", "run error: lambda = inf is not finite"),
        ("--algo naive --bandwidth 0", "config error: bandwidth must be none or an integer >= 1, got bandwidth=0"),
        ("--algo estimate-mix --bandwidth=-5", "config error: bandwidth must be"),
    ])
    def test_bad_tau_phi_or_lambda_exit_2(self, tmp_path, capsys, argv, text):
        # Each ended in a traceback: ZeroDivisionError, TypeError (a complex
        # f), "negative dimensions are not allowed", "math domain error" or
        # OverflowError.
        out = tmp_path / "o"
        code = main(["run", "--schedule", "static:K4", *argv.split(), "--seeds", "1", "--out", str(out)])
        assert text in self._one_line_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["naive", "single", "many", "gossip"])
    @pytest.mark.parametrize("tau, text", [
        (10**30, "run error: a walk needs at least"),  # past max_rounds: RoundLimitError before any draw
        (10**400, "run error: "),  # naive: past max_rounds; stitched: lambda overflows a float
    ], ids=["1e30", "1e400"])
    def test_huge_tau_exit_2(self, tmp_path, capsys, algo, tau, text):
        # 1e30 ended in a MemoryError traceback (Phase 1 sized a list by
        # lambda ~ 1e15) and 1e400 in an OverflowError from math.sqrt.
        out = tmp_path / "o"
        code = main(["run", "--schedule", "static:K4", "--algo", algo, "--tau", str(tau), "--seeds", "1", "--out", str(out)])
        assert self._one_line_error(capsys, code).startswith(text)
        assert not out.exists()

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(["static:K4", "static:petersen", "static:C9", "srr:n=8,d=3", "rr:n=8,d=3", "perm:base=C9"]),
        algo=st.sampled_from(["naive", "single", "many", "gossip", "estimate-mix"]),
        tau=st.one_of(st.integers(-2, 40).map(str), st.sampled_from(["oracle", "worstcase"])),
        phi=st.one_of(st.integers(-1, 5).map(str), st.just("oracle")),
        lambda_c=st.one_of(st.sampled_from([1e308, 1e-300, 0.0, -1.0]), st.floats(0.05, 20.0)),
        k=st.integers(0, 6),
        seeds=st.integers(1, 3),
        seed_base=st.integers(0, 2**32),
        bandwidth=st.one_of(st.integers(-5, 0), st.integers(1, 64), st.sampled_from([100_000, 10**30])),
    )
    def test_numeric_values_exit_0_or_2(self, spec, algo, tau, phi, lambda_c, k, seeds, seed_base, bandwidth):
        # Any value returns 0 or 2 and raises nothing; a run that exits 2
        # leaves no output directory, and a bandwidth below 1 is a config error.
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main([
                    "run", f"--schedule={spec}", f"--algo={algo}", f"--tau={tau}", f"--phi={phi}",
                    f"--lambda-c={lambda_c!r}", f"--k={k}", f"--seeds={seeds}", f"--seed-base={seed_base}",
                    f"--bandwidth={bandwidth}", f"--out={out}",
                ])
            assert code in (EXIT_OK, EXIT_CONFIG_ERROR)
            assert out.exists() == (code == EXIT_OK)
            if bandwidth < 1:
                assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["rr", "srr"]),
        n=st.integers(0, 12),
        d=st.integers(-1, 12),
        command=st.sampled_from(["schedule", "run"]),
    )
    def test_regular_shapes_exit_0_or_2(self, kind, n, d, command):
        # Any shape returns 0, or 2 with one config error line and no
        # output: an impossible shape is never a traceback.
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o"
            argv = {
                "schedule": ["schedule", "--rounds=4", "--seed=3"],
                "run": ["run", "--algo=naive", "--tau=4", "--seeds=1", "--bandwidth=100000"],
            }[command]
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main([*argv, f"--schedule={kind}:n={n},d={d}", f"--out={out}"])
            assert code in (EXIT_OK, EXIT_CONFIG_ERROR)
            assert out.exists() == (code == EXIT_OK)
            if code == EXIT_CONFIG_ERROR:
                assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1

    # Each input sized a list or an array by n before any check: a MemoryError
    # traceback with exit 1, and `schedule` left an empty file behind.
    @pytest.mark.parametrize("spec, text", [
        ("rr:n=1000000000,d=3", "n*d = 1000000000*3 exceeds the limit of 1048576 ports"),
        ("srr:n=1000000000,d=3", "n*d = 1000000000*3 exceeds the limit of 1048576 ports"),
        ("static:K200000", "n*d = 200000*199999 exceeds the limit of 1048576 ports"),
        ("perm:base=C600000", "n*d = 600000*2 exceeds the limit of 1048576 ports"),
        ("periodic:{huge}", "n*d = 1000000000000*1 exceeds the limit of 1048576 ports"),
        (f"rr:n={10**30},d=3", f"n*d = {10**30}*3 exceeds the limit of 1048576 ports"),
    ], ids=["rr", "srr", "K200000", "perm-C600000", "periodic-1e12", "rr-1e30"])
    @pytest.mark.parametrize("command", ["run", "schedule"])
    def test_huge_node_count_exit_2(self, tmp_path, capsys, spec, text, command):
        huge = tmp_path / "huge.jsonl"
        huge.write_text('{"n": 1000000000000, "T": 1}\n{"t": 1, "edges": [[0, 1], [1, 2], [0, 2]]}\n')
        out = tmp_path / "o"
        argv = {
            "run": ["run", "--algo", "naive", "--tau", "3", "--phi", "2", "--seeds", "1"],
            "schedule": ["schedule", "--rounds", "1"],
        }[command]
        code = main([*argv, "--schedule", spec.format(huge=huge), "--out", str(out)])
        assert self._one_line_error(capsys, code) == f"config error: {text}\n"
        assert not out.exists()

    def test_oracle_phi_over_its_size_bound_exit_2(self, tmp_path, capsys):
        # 2400^2 * 3 cells is past the bound; n = 20000 made a 1.5 GiB (n, n) array.
        out = tmp_path / "o"
        code = main([
            "run", "--schedule", "rr:n=2400,d=3", "--algo", "naive", "--tau", "3", "--seeds", "1",
            "--out", str(out),
        ])
        err = self._one_line_error(capsys, code)
        assert err == "run error: dynamic diameter of n=2400, d=3: n*n*d exceeds the limit of 16777216 cells\n"
        assert not out.exists()

    def test_oracle_tau_over_the_dense_cap_exit_2(self, tmp_path, capsys):
        # static_mixing_time asked numpy for a 1.82 TiB identity matrix first.
        out = tmp_path / "o"
        code = main([
            "run", "--schedule", "static:C500000", "--algo", "naive", "--phi", "2", "--seeds", "1",
            "--out", str(out),
        ])
        assert self._one_line_error(capsys, code) == "run error: oracle is dense-only, n=500000 exceeds cap 512\n"
        assert not out.exists()

    @settings(max_examples=150, deadline=None)
    @given(schedule=schedule_inputs(), command=st.sampled_from(["schedule", "naive", "single", "many", "gossip"]),
           tau=st.sampled_from(["3", "12", "oracle"]), phi=st.sampled_from(["2", "oracle"]))
    def test_schedule_files_and_specs_exit_0_1_or_2(self, schedule, command, tau, phi):
        # Any schedule file or graph spec exits 0, 1 or 2 and never prints a
        # traceback; an exit 2 prints one error line and leaves no output.
        with tempfile.TemporaryDirectory() as tmp:
            spec = schedule(Path(tmp))
            out = Path(tmp) / "o"
            if command == "schedule":
                argv = ["schedule", "--rounds=2"]
            else:
                argv = ["run", f"--algo={command}", f"--tau={tau}", f"--phi={phi}", "--k=2", "--seeds=1",
                        "--bandwidth=100000"]
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main([*argv, f"--schedule={spec}", f"--out={out}"])
            assert code in (EXIT_OK, EXIT_PROPERTY_FAILURE, EXIT_CONFIG_ERROR)
            assert "Traceback" not in err.getvalue()
            assert out.exists() == (code != EXIT_CONFIG_ERROR)
            if code == EXIT_CONFIG_ERROR:
                assert err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("spec, key", [
        ("rr:n=16,d=3,x=1", "x"), ("rr:n=16,n=32,d=3", "n"), ("srr:n=16,d=3,x=1", "x"),
        ("srr:n=16,d=3,d=4", "d"), ("perm:base=C9,x=1", "x"), ("perm:base=C9,base=K4", "base"),
    ])
    def test_unknown_or_repeated_spec_key_exit_2(self, tmp_path, capsys, spec, key):
        # Each used to run: an unknown key was ignored, a repeated one took its last value.
        out = tmp_path / "o"
        code = main(["run", "--schedule", spec, "--algo", "naive", "--tau", "4", "--out", str(out)])
        assert f"{spec!r}: unknown or repeated key {key!r}" in self._one_line_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("spec, text", [
        ("rr:n=5,d=3", "n*d must be even"), ("rr:n=4,d=4", "need 0 < d < n"),
    ])
    def test_impossible_rr_shape_run_exit_2(self, tmp_path, capsys, spec, text):
        # The run used to fail at the first snapshot build, after making its
        # output directory.
        out = tmp_path / "o1"
        code = main([
            "run", "--schedule", spec, "--algo", "naive", "--tau", "5", "--seeds", "2",
            "--out", str(out),
        ])
        assert text in self._one_line_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("spec, text", [
        ("rr:n=5,d=3", "n*d must be even"), ("rr:n=4,d=4", "need 0 < d < n"),
    ])
    def test_impossible_rr_shape_schedule_exit_2(self, tmp_path, capsys, spec, text):
        # The file used to be left holding its header only.
        out = tmp_path / "s.jsonl"
        code = main(["schedule", "--schedule", spec, "--rounds", "3", "--out", str(out)])
        assert text in self._one_line_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--algo", "naive", "--tau", "5", "--seeds", "2"], ["schedule", "--rounds", "3"],
    ], ids=["run", "schedule"])
    def test_impossible_rr_shape_is_a_config_error(self, tmp_path, capsys, argv):
        # `run` used to report it as a run error, `schedule` as a config error.
        code = main([*argv, "--schedule", "rr:n=5,d=3", "--out", str(tmp_path / "o")])
        assert self._one_line_error(capsys, code).startswith("config error: ")

    def test_schedule_rounds_exit_2(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        code = main(["schedule", "--schedule", "rr:n=8,d=3", "--rounds", "0", "--out", str(out)])
        assert "rounds" in self._one_line_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["static:{}", "perm:base={}", "periodic:{}"])
    def test_header_only_schedule_file_exit_2(self, tmp_path, capsys, spec):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"n": 8, "d": 3, "T": 0}\n')
        code = main([
            "run", "--schedule", spec.format(path), "--algo", "naive", "--seeds", "1",
            "--out", str(tmp_path / "o"),
        ])
        assert str(path) in self._one_line_error(capsys, code)

    def test_small_run(self, tmp_path):
        code = main([
            "run", "--schedule", "static:C5", "--algo", "naive", "--tau", "4",
            "--seeds", "2", "--bandwidth", "100000", "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_OK
        assert (tmp_path / "o" / "report.json").exists()

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("schedule=static:C5\nalgo=naive\ntau=4\nseeds=2\nbandwidth=100000\n")
        code = main(["run", "--config", str(cfg), "--seeds", "1", "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["config"]["seeds"] == 1  # flag overrides file

    def test_schedule_subcommand(self, tmp_path):
        out = tmp_path / "s.jsonl"
        assert main([
            "schedule", "--schedule", "rr:n=8,d=3", "--rounds", "4", "--seed", "2",
            "--out", str(out),
        ]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 5
