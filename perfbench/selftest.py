"""Self-test of the benchmark itself: its gates can fail, its wrappers reach
every call site, self times add up, count metrics are deterministic, and
BENCHMARK.json matches the code.

    python3 perfbench/selftest.py          # about a minute; exit 1 on any failure
"""
from __future__ import annotations

import json
import subprocess
import sys

import numpy as np

import run as bench_run
from layers import PER_LAYER, Instrumentation
from tracer import Tracer
from workload import REF_NOMINAL_S, Loop, host_factor, import_dynwalk, traced_run
from workloads import WORKLOADS

# Count metrics that must repeat exactly under one seed.
COUNT_METRICS = (
    "sim_rounds_per_trial",
    "engine.msgs_per_trial",
    "walks.stitches_per_trial",
    "gossip.rw_rounds",
    "mixing.probes_per_estimate",
)
# Trials per run at the committed run length, measured on a 2-core host
# (lower ends of what a --seconds 25 run completes).
RUN_TRIALS = {"stitch-rr16": 15000}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def gates(dw) -> None:
    """Every gate passes real output and rejects known-wrong output."""
    rng = np.random.default_rng(7)
    for name, cls in WORKLOADS.items():
        wl = cls(dw, seed=11)
        loop = Loop(wl)
        loop.block(3, traced=False)
        expect(loop.failed == 0, f"{name}: real trials pass their gate")
        if name == "stitch-rr16":
            continue  # a distribution gate needs a run-sized sample: checked below
        for label, wrong in wl.wrong_outputs(loop.n, loop.sample, rng).items():
            expect(wl.gate_rejects(wrong), f"{name}: gate rejects {label}")
    wl = WORKLOADS["stitch-rr16"](dw, seed=11)
    N = RUN_TRIALS["stitch-rr16"]
    expect(not wl.gate_rejects(rng.multinomial(N, wl.target)),
           f"stitch-rr16: gate passes an exact tau=24 sample at N={N}")
    for label, wrong in wl.wrong_outputs(N, None, rng).items():
        expect(wl.gate_rejects(wrong), f"stitch-rr16: gate rejects {label} (TV {wl.tv(wrong):.3f}) at N={N}")


def coverage(dw) -> None:
    """The wrappers reach the call sites a plain module patch would miss."""
    inst = Instrumentation(Tracer())
    inst.install()
    try:
        expect(inst.unreached() == [], f"no call site still bound to an original: {inst.unreached()}")
        wrapped = lambda f: hasattr(f, "__wrapped__")  # noqa: E731
        expect(wrapped(dw.gossip.many_random_walks), "gossip's by-name many_random_walks is wrapped")
        expect(wrapped(dw.mixing.many_random_walks), "mixing's by-name many_random_walks is wrapped")
        for fn in ("random_regular_graph", "single_random_walk", "naive_walk", "many_random_walks",
                   "parse_schedule_spec", "visit_stats"):
            obj = getattr(dw.harness, fn)
            expect(wrapped(obj), f"harness's by-name {fn} is wrapped")
        expect(wrapped(dw.graphs.StaticSchedule.__dict__["snapshot_at"]), "StaticSchedule.snapshot_at override is wrapped")
        default = dw.oracle.evolve.__wrapped__.__defaults__[0]
        expect(wrapped(default), "oracle.evolve's matrix_fn default is the wrapped transition_matrix")
    finally:
        inst.uninstall()
    expect(not hasattr(dw.gossip.many_random_walks, "__wrapped__")
           and not hasattr(dw.oracle.evolve.__defaults__[0], "__wrapped__"),
           "uninstall restores every original")


def identities(dw) -> None:
    """Short traced runs: identities and self-time accounting hold."""
    for name, cls in WORKLOADS.items():
        inst = Instrumentation(Tracer())
        inst.install()
        try:
            wl = cls(dw, seed=5)
            wl.count_window = max(2, min(wl.count_window, 40))
            wl.pair_block = 1
            inst.tracer.current_trial = 0
            wl.check(wl.run(0))
            out = traced_run(wl, inst, 0.0, 5)
        finally:
            inst.uninstall()
        expect(out["failed"] == 0 and out["final_gate"]["passed"], f"{name}: short traced run passes its gates")
        for check, res in out["trace_checks"].items():
            expect(res["holds"], f"{name}: {check} ({res['left']} vs {res['right']})")
        m = out["metrics"]
        expect(sorted(m) == sorted(k for k, _ in PER_LAYER), f"{name}: every per-layer metric reported")
        wall = out["trace_checks"]["layer self + unattributed == traced wall (s)"]["right"]
        share = sum(out["layer_self_s"].values()) / wall + m["trace.unattributed_frac"]
        expect(abs(share - 1.0) < 1e-9, f"{name}: layer self-time shares plus trace.unattributed_frac = {share!r}")
        if name == "stitch-rr16":
            expect(m["engine.flood.calls"] == 2 * m["walks.sample_coupon.calls"],
                   "stitch-rr16: flood calls == 2 x sample_coupon calls")
            expect(m["walks.phase1_distribute.calls"] == 1.0, "stitch-rr16: one Phase 1 per trial")
        else:
            expect(m["walks.phase1_distribute.calls"] == 0.0, f"{name}: Phase 1 never runs")


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(bench_run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=bench_run.ROOT, check=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: metrics[k]["value"] for k in COUNT_METRICS}


def determinism() -> None:
    """Count metrics repeat exactly under one seed and move under another.

    Trial i runs on engine seed `seed + i`, so nearby workload seeds share
    most of their trials; the other seed is placed past the largest window.
    """
    for name in WORKLOADS:
        a, b = traced_counts(name, 3), traced_counts(name, 3)
        expect(a == b, f"{name}: count metrics repeat under seed 3: {a}")
        if name != "lemmas-rr":  # the lemma checks run no engine, so these counts are 0
            c = traced_counts(name, 3 + 10_000)
            expect(a != c, f"{name}: count metrics differ under seed 10003: {c}")


def scaling() -> None:
    """A trial is scaled by the reference loops run last before it and first
    after it, or by the one of them that exists."""
    r = REF_NOMINAL_S
    factor = host_factor([0.0, 1.0, 5.0], np.full(3, 0.01), [0.02, 0.03, 1.02, 1.5], [2 * r, 2 * r, r, 9 * r])
    expect(np.allclose(factor, [2.0, 1.5, 9.0]), f"host factors from the adjacent reference loops: {factor}")


def benchmark_json() -> None:
    spec = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS), "BENCHMARK.json workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END, "BENCHMARK.json end_to_end")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER, "BENCHMARK.json per_layer")


def main() -> int:
    dw = import_dynwalk()
    benchmark_json()
    scaling()
    coverage(dw)
    gates(dw)
    identities(dw)
    determinism()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
