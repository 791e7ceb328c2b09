"""dynwalk benchmark: one workload, untraced (end-to-end metrics) or traced
(per-layer metrics).  Prints one JSON result as its last stdout line.

    python3 perfbench/run.py --workload stitch-rr16 --seed 1 --seconds 25 --trace 0

Runs the workload in child processes with BLAS/OpenMP pinned to one thread.
Untraced, SETUP_PROBES more processes only set up, half of them before and
half after the measuring process, and setup_s is the median set-up time
over all of them.  Every set-up time is scaled to a host that runs
workload.reference in REF_NOMINAL_S, by the square root of the reference
time's ratio: between the host's fast and slow regimes, set-up time moves
about half as much as the reference loop (log-log slope 0.52 over 25
set-ups in both regimes).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workload import REF_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stitch-rr16", "gossip-perm64", "mixest-srr48", "lemmas-rr")
SETUP_PROBES = 8
CHILD_GRACE_S = 120  # a child may take this long beyond --seconds before it is killed

END_TO_END = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "setup_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)  # the child puts this checkout's src/ first itself
    return env


def run_child(args, seconds: float, setup_only: bool) -> tuple[float, float, dict | None]:
    """Start one workload process; return (set-up seconds, reference seconds
    right after set-up, result or None)."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())
    watchdog = threading.Timer(seconds + CHILD_GRACE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        ref_line = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"workload process exited with code {code} before finishing")
    ref_s = float(ref_line)
    if setup_only:
        return setup_s, ref_s, None
    lines = [ln for ln in rest.splitlines() if ln.strip()]
    return setup_s, ref_s, json.loads(lines[-1])


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (outside paths)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dynwalk" / "__init__.py").is_file():
        print(f"benchmark: no dynwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("benchmark: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        probes = 0 if args.trace else SETUP_PROBES // 2
        setups = [run_child(args, 0.0, setup_only=True)[:2] for _ in range(probes)]
        setup_s, ref_s, result = run_child(args, args.seconds, setup_only=False)
        setups.append((setup_s, ref_s))
        setups += [run_child(args, 0.0, setup_only=True)[:2] for _ in range(probes)]
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    raw = result["metrics"]
    if args.trace:
        from layers import PER_LAYER

        metrics = {name: {"value": raw[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        raw["setup_s"] = statistics.median(s * math.sqrt(REF_NOMINAL_S / ref) for s, ref in setups)
        metrics = {name: {"value": raw[name], "unit": unit} for name, unit in END_TO_END.items()}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": result.get("numpy"),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "setup_s_samples": [s for s, _ in setups],
        "setup_reference_s": [ref for _, ref in setups],
    }
    detail = {k: v for k, v in result.items() if k not in ("metrics", "numpy")}
    record = {"provenance": provenance, "detail": detail, "metrics": metrics}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps({"provenance": provenance, **detail}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
