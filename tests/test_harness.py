import json
import statistics

import pytest

from dynwalk.cli import EXIT_CONFIG_ERROR, EXIT_OK, main
from dynwalk.harness import (
    config_from_values,
    save_config_file,
    ADVERSARY_TAG,
    ExperimentConfig,
    check_connector_bound,
    check_contraction,
    check_eigen_bound,
    check_mixing_bound,
    check_monotonicity,
    check_stationarity,
    check_supnorm,
    load_config_file,
    resolve_phi,
    resolve_tau,
    run_experiment,
)
from dynwalk import DynwalkError
from dynwalk.engine import CongestionError, FloodIncompleteError, ProtocolError, RoundLimitError
from dynwalk.graphs import ScheduleError, parse_schedule_spec, write_schedule_file
from dynwalk.mixing import EstimationError
from dynwalk.oracle import MixingCapError
from dynwalk.walks import CouponsExhausted


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

    def test_roundtrip_through_file(self, tmp_path):
        cfg = ExperimentConfig(
            "rr:n=8,d=3", "gossip", tau="16", lambda_c=0.5, k=3, seeds=7,
            seed_base=11, bandwidth=4096, phi="2", out="somewhere", oracle=True,
        )
        path = tmp_path / "cfg"
        save_config_file(cfg, path)
        assert config_from_values(load_config_file(path)) == cfg
        plain = ExperimentConfig("static:K4", "naive")
        save_config_file(plain, path)
        assert config_from_values(load_config_file(path)) == plain

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

    def test_oracle_false_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("schedule=static:K4\nalgo=naive\noracle=false\n")
        cfg = config_from_values(load_config_file(path))
        assert cfg.oracle is False
        save_config_file(cfg, path)
        assert config_from_values(load_config_file(path)) == cfg
        on = ExperimentConfig("static:K4", "naive", oracle=True)
        save_config_file(on, path)
        assert config_from_values(load_config_file(path)).oracle is True

    def test_unknown_algo(self):
        with pytest.raises(ValueError):
            ExperimentConfig("static:K4", "frobnicate")

    def test_resolvers(self):
        cfg = ExperimentConfig("static:K4", "naive", tau="worstcase")
        sched = parse_schedule_spec("static:K4", seed=0)
        assert resolve_tau(cfg, sched) == 2 * 16
        assert resolve_phi(cfg, sched) == 1
        cfg2 = ExperimentConfig("static:K4", "naive", tau="7", phi="3")
        assert resolve_tau(cfg2, sched) == 7 and resolve_phi(cfg2, sched) == 3


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
        assert lines[0] == "n,d,k,tau,phi,f,rounds_rw,rounds_trivial,winner,coverage_rw,seed"
        assert len(lines) == 4  # header + one row per seed
        assert report.aggregates["coverage_rate"] == 1.0

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


@pytest.mark.parametrize(
    "error",
    [ScheduleError, CongestionError, RoundLimitError, FloodIncompleteError, ProtocolError,
     CouponsExhausted, EstimationError, MixingCapError],
    ids=lambda cls: cls.__name__,
)
def test_named_errors_share_one_base(error):
    # The CLI maps every DynwalkError to exit code 2.
    assert issubclass(error, DynwalkError) and issubclass(error, RuntimeError)


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

    def test_disconnected_schedule_exit_2(self, tmp_path, capsys, triangles):
        # The gossip walks run, then the first broadcast stalls.
        path = tmp_path / "triangles.jsonl"
        write_schedule_file(triangles, 1, path)
        code = main([
            "run", "--schedule", f"periodic:{path}", "--algo", "gossip", "--k", "2", "--tau", "4",
            "--phi", "3", "--seeds", "1", "--out", str(tmp_path / "o"),
        ])
        assert "snapshot disconnected" in self._one_line_error(capsys, code)

    # tau=3 <= 2*lambda: `single` walks naively too, and like `naive` it
    # refuses a non-regular schedule rather than walk a non-uniform chain.
    @pytest.mark.parametrize("algo", ["naive", "single"])
    def test_protocol_error_exit_2(self, tmp_path, capsys, algo):
        code = main([
            "run", "--schedule", "static:star4", "--algo", algo, "--tau", "3",
            "--seeds", "1", "--out", str(tmp_path / "o"),
        ])
        assert "non-regular" in self._one_line_error(capsys, code)

    def test_mixing_cap_exit_2(self, tmp_path, capsys):
        # C8 is bipartite, so resolving tau from the oracle never mixes.
        code = main([
            "run", "--schedule", "static:C8", "--algo", "single", "--seeds", "1",
            "--out", str(tmp_path / "o"),
        ])
        assert "cap" in self._one_line_error(capsys, code)

    def test_bad_oracle_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("schedule=static:C5\nalgo=naive\noracle=maybe\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert "oracle" in self._one_line_error(capsys, code)

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
