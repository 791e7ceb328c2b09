"""One workload process: set up, run one untimed warm-up trial, print READY
and the median time of a reference loop, then run the timed closed loop (one
thread, trial after trial) and print one JSON line with the run's metrics.

Started by run.py, which times the set-up from process start to READY and
scales it by the reference time (see `untraced_run`).
With --trace 1 the package's layers are wrapped before set-up; the first
`count_window` trials are all traced (their counts repeat exactly under one
seed), then traced and untraced blocks alternate to measure the overhead.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
import types
from array import array
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Trial

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
clock = time.perf_counter


def import_dynwalk() -> types.SimpleNamespace:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dynwalk
    from dynwalk import engine, gossip, graphs, harness, mixing, oracle, walks

    if Path(dynwalk.__file__).resolve().parent != src / "dynwalk":
        raise SystemExit(f"imported dynwalk from {dynwalk.__file__}, not from {src}")
    return types.SimpleNamespace(
        engine=engine, gossip=gossip, graphs=graphs, harness=harness,
        mixing=mixing, oracle=oracle, walks=walks,
    )


class Loop:
    """Runs trials; keeps their latencies, failure count and the first
    `keep` checked trials, and feeds every checked trial to the workload."""

    def __init__(self, wl, tracer=None, ledger=None, keep: int = 0):
        self.wl = wl
        self.tracer = tracer
        self.ledger = ledger
        self.keep = keep
        self.window: list[Trial] = []
        self.latency = array("d")
        self.n = 0
        self.failed = 0
        self.failures: list[str] = []
        self.sample = None

    def trial(self, traced: bool = False) -> float:
        self.n += 1
        i = self.n
        sid = None
        if traced:
            self.tracer.current_trial = i
            sid = self.tracer.open("trial")
        t0 = clock()
        try:
            out = self.wl.run(i)
            error = None
        except Exception as exc:  # a raising trial is a failed trial, not a crashed run
            out, error = None, f"trial {i} raised {exc!r}"
        dt = clock() - t0
        if traced:
            self.tracer.close(sid, failed=error is not None)
            self.ledger.close_trial()
        self.latency.append(dt)
        if error is None:
            try:
                rec = self.wl.check(out)
            except Exception as exc:
                rec = Trial(False, error=f"trial {i}: gate raised {exc!r}")
            self.sample = out
        else:
            rec = Trial(False, error=error)
        self.wl.observe(rec)
        if not rec.ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(rec.error)
        if len(self.window) < self.keep:
            self.window.append(rec)
        return dt

    def block(self, n: int, traced: bool) -> float:
        return sum(self.trial(traced) for _ in range(n))


def gates(wl, loop: Loop, seed: int) -> dict:
    final_ok, final_detail = wl.final_gate()
    rng = np.random.default_rng([seed % 2**32, 1])
    power = {}
    if loop.sample is not None:
        for name, wrong in wl.wrong_outputs(loop.n, loop.sample, rng).items():
            power[name] = bool(wl.gate_rejects(wrong))
    power_ok = bool(power) and all(power.values())
    return {
        "correct": loop.failed == 0 and final_ok and power_ok,
        "failed": loop.failed if final_ok else loop.n,
        "final_gate": {"passed": bool(final_ok), "detail": final_detail},
        "wrong_output_rejected": power,
        "failures": loop.failures,
    }


REF_SHARE = 0.1  # reference-loop time run per second of trial time
REF_NOMINAL_S = 0.75e-3  # reference-loop time that times are scaled to
CALIBRATION_REFS = 80  # reference loops run right after set-up


def reference() -> int:
    """Fixed pure-Python work whose time measures the host's current speed.

    The host moves between a base speed and bursts up to ~1.8x faster that
    last seconds to minutes; this loop's time tracks those moves (log
    correlation ~0.95 over 2 s blocks) and nothing of dynwalk runs in it,
    so a change to the program leaves it alone.
    """
    d: dict[int, int] = {}
    s = 0
    for i in range(4000):
        d[i & 1023] = d.get(i & 1023, 0) + i
        s += i % 7
    return s


def time_reference() -> float:
    t0 = clock()
    reference()
    return clock() - t0


def host_factor(starts, lat, ref_at, ref_dt) -> np.ndarray:
    """Per-trial host slowness: the mean time of the reference loops run
    last before the trial and first after it, over REF_NOMINAL_S.

    The host's speed can flip within tenths of a second, so only the two
    loops next to a trial say how fast the host ran it.
    """
    starts, ref_at, ref_dt = np.asarray(starts), np.asarray(ref_at), np.asarray(ref_dt)
    before = np.searchsorted(ref_at, starts) - 1
    after = np.searchsorted(ref_at, starts + lat)
    prev = np.where(before >= 0, ref_dt[np.maximum(before, 0)], np.nan)
    next_ = np.where(after < len(ref_dt), ref_dt[np.minimum(after, len(ref_dt) - 1)], np.nan)
    return np.nanmean([prev, next_], axis=0) / REF_NOMINAL_S


def latency_metrics(lat: np.ndarray) -> dict:
    return {
        "trials_per_s": len(lat) / float(lat.sum()),
        "trial_ms_p50": float(np.median(lat)) * 1e3,
        "trial_ms_p90": float(np.percentile(lat, 90)) * 1e3,
    }


def untraced_run(wl, seconds: float, seed: int) -> dict:
    """Closed loop for `seconds`; after each trial, the reference loop runs
    until it has taken REF_SHARE of the trial time so far.  Each trial's
    latency is divided by its host factor, so the time metrics read as if
    the host ran the reference loop in REF_NOMINAL_S throughout."""
    loop = Loop(wl)
    starts = array("d")
    ref_at, ref_dt = array("d"), array("d")
    owed = 0.0
    start = clock()
    deadline = start + seconds
    while (now := clock()) < deadline:
        starts.append(now - start)
        owed += REF_SHARE * loop.trial()
        while owed > 0:
            ref_at.append(clock() - start)
            ref_dt.append(time_reference())
            owed -= ref_dt[-1]
    g = gates(wl, loop, seed)
    n = loop.n
    lat = np.frombuffer(loop.latency)
    metrics = latency_metrics(lat / host_factor(starts, lat, ref_at, ref_dt))
    metrics["ok_frac"] = (n - g["failed"]) / n
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_ms = np.percentile(np.frombuffer(ref_dt), [10, 50, 90]) * 1e3
    unscaled = latency_metrics(lat)
    unscaled["reference_ms_p10_p50_p90"] = [float(x) for x in ref_ms]
    unscaled["references"] = len(ref_dt)
    return {"attempted": n, "metrics": metrics, "unscaled": unscaled, **g}


def traced_run(wl, inst, seconds: float, seed: int) -> dict:
    from layers import SpanStats, per_layer_metrics, trace_checks

    tracer, ledger = inst.tracer, inst.ledger
    loop = Loop(wl, tracer, ledger, keep=wl.count_window)
    start = clock()
    deadline = start + seconds
    ledger.reset()  # drop the warm-up trial's engines
    loop.block(wl.count_window, traced=True)
    window_ledger = types.SimpleNamespace(**vars(ledger))
    ratios = []
    while clock() < deadline or not ratios:
        times = {}
        for traced in ((False, True) if len(ratios) % 2 == 0 else (True, False)):
            if not traced:
                inst.uninstall()
            times[traced] = loop.block(wl.pair_block, traced)
            inst.install()
        ratios.append(times[True] / times[False])
    stats = SpanStats(tracer.frame(), range(1, wl.count_window + 1))
    results = wl.results(loop.window)
    overhead = statistics.median(ratios) - 1.0
    metrics = per_layer_metrics(stats, window_ledger, results, overhead)
    checks = trace_checks(stats, window_ledger, results)
    g = gates(wl, loop, seed)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-seed{seed}.npz"
    tracer.save(spans_path)
    return {
        "attempted": loop.n,
        "metrics": metrics,
        "trace_checks": checks,
        "layer_self_s": stats.layer_self_s(),
        "spans": len(tracer),
        "spans_file": str(spans_path.relative_to(ROOT)),
        **g,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    dw = import_dynwalk()
    inst = None
    if args.trace:
        from layers import Instrumentation
        from tracer import Tracer

        inst = Instrumentation(Tracer())
        inst.install()
    wl = WORKLOADS[args.workload](dw, args.seed)
    if inst is not None:
        inst.tracer.current_trial = 0
    wl.check(wl.run(0))  # untimed warm-up trial
    print("READY", flush=True)
    # the host's speed right after set-up, for run.py to scale setup_s by
    print(statistics.median(time_reference() for _ in range(CALIBRATION_REFS)), flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_run(wl, inst, args.seconds, args.seed)
    else:
        result = untraced_run(wl, args.seconds, args.seed)
    result["numpy"] = np.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
