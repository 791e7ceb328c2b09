"""dynwalk's layers as the benchmark sees them: which callables get a span,
what each probe counts, and how spans become per-layer metrics.

Every public module-level function of the measured modules is wrapped, and
so are the engine's round primitives and the schedules' snapshot methods.
Per-token helpers (the steppers' `step`, `CongestEngine.node_rng`,
`RoundLog.observe`, `Encodings`) are left bare: they run once per token
step, a span there would cost more than the work it times, and their time
shows as the self time of the span that calls them.

`dynwalk.cli` is not measured: it parses arguments and calls `harness`.
"""
from __future__ import annotations

import importlib
import inspect
import sys

import numpy as np

from tracer import SETUP_TRIAL, SpanFrame, Tracer

LAYERS = ("graphs", "engine", "walks", "gossip", "mixing", "oracle", "harness")
ENGINE_PRIMITIVES = ("exchange", "idle", "flood", "flood_until_complete")
TRIAL_SPAN = "trial"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class EngineLedger:
    """Engines touched in the current trial, harvested when the trial ends."""

    def __init__(self):
        self.engines: dict[int, object] = {}
        self.log_rounds = 0
        self.max_edge_bits = 0
        self.congestion_events = 0

    def before(self, args, kwargs):
        engine = args[0]
        self.engines[id(engine)] = engine
        return engine.log.total_msgs

    def close_trial(self) -> None:
        for engine in self.engines.values():
            self.log_rounds += engine.log.rounds
            self.max_edge_bits = max(self.max_edge_bits, engine.log.max_edge_bits)
            self.congestion_events += engine.log.congestion_events
        self.engines.clear()

    def reset(self) -> None:
        self.engines.clear()
        self.log_rounds = self.max_edge_bits = self.congestion_events = 0


def _engine_probe(ledger: EngineLedger, rounds_of):
    def after(args, kwargs, result, msgs_before):
        return rounds_of(args, kwargs, result), args[0].log.total_msgs - msgs_before

    return ledger.before, after


def _probes(ledger: EngineLedger) -> dict:
    """Span name -> (before, after) probe giving the span's counts (a, b)."""
    return {
        # a = rounds the call is charged by the API, b = messages it logged
        "engine.exchange": _engine_probe(ledger, lambda a, k, r: 1),
        "engine.idle": _engine_probe(ledger, lambda a, k, r: _arg(a, k, 1, "rounds", 1)),
        "engine.flood": _engine_probe(ledger, lambda a, k, r: _arg(a, k, 3, "budget")),
        "engine.flood_until_complete": _engine_probe(ledger, lambda a, k, r: r[0]),
        # a = coupon-rounds: n nodes * d coupons * 2 lambda rounds
        "walks.phase1_distribute": (None, lambda a, k, r, s: (
            a[0].n * a[0].schedule.d * 2 * _arg(a, k, 1, "params").lambda_walk, 0)),
        # a = token steps: walks * length
        "walks.concurrent_naive_walks": (None, lambda a, k, r, s: (
            len(_arg(a, k, 1, "sources")) * _arg(a, k, 2, "length"), 0)),
        # a = stitches, b = fallbacks
        "walks.single_random_walk": (None, lambda a, k, r, s: (len(r.segment_lengths), r.fallbacks)),
        # a = steps pushed through the schedule
        "oracle.evolve": (None, lambda a, k, r, s: (_arg(a, k, 3, "steps"), 0)),
    }


def _dynwalk_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "dynwalk" or name.startswith("dynwalk.")]


def _targets():
    """(layer, owner, attribute, original) for every callable that gets a span."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"dynwalk.{layer}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                out.append((f"{layer}.{attr}", mod, attr, obj))
    engine = importlib.import_module("dynwalk.engine")
    for attr in ENGINE_PRIMITIVES:
        out.append((f"engine.{attr}", engine.CongestEngine, attr, engine.CongestEngine.__dict__[attr]))
    graphs = importlib.import_module("dynwalk.graphs")
    for cls in vars(graphs).values():
        if isinstance(cls, type) and issubclass(cls, graphs.GraphSchedule):
            # StaticSchedule overrides snapshot_at, so each class's own copy is wrapped.
            for attr, name in (("snapshot_at", "graphs.snapshot_at"), ("_build", "graphs.snapshot_construct")):
                if attr in cls.__dict__:
                    out.append((name, cls, attr, cls.__dict__[attr]))
    return out


def _rebind_sites(originals: dict[int, object]):
    """Every place outside the defining attribute that still holds an original:
    by-name imports (`from .walks import many_random_walks`) and defaults bound
    at definition time (`evolve(..., matrix_fn=transition_matrix)`)."""
    sites = []
    for mod in _dynwalk_modules():
        for attr, obj in vars(mod).items():
            if id(obj) in originals:
                sites.append((mod, attr, obj))
        functions = [f for f in vars(mod).values() if inspect.isfunction(f)]
        for cls in vars(mod).values():
            if isinstance(cls, type) and cls.__module__ == mod.__name__:
                functions += [f for f in vars(cls).values() if inspect.isfunction(f)]
        for fn in functions:
            if fn.__defaults__ and any(id(d) in originals for d in fn.__defaults__):
                sites.append((fn, "__defaults__", fn.__defaults__))
    return sites


class Instrumentation:
    """Wrappers over dynwalk's layers; install() and uninstall() can alternate."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.ledger = EngineLedger()
        probes = _probes(self.ledger)
        self.patches = []  # (owner, attr, original, wrapper)
        self.wrapper_of: dict[int, object] = {}
        for name, owner, attr, original in _targets():
            wrapper = tracer.wrap(name, original, probes.get(name))
            self.patches.append((owner, attr, original, wrapper))
            self.wrapper_of[id(original)] = wrapper
        self._originals = {id(orig): orig for _, _, orig, _ in self.patches}
        self._undo = []
        self.installed = False

    def _swap(self, value):
        if isinstance(value, tuple):  # a function's __defaults__
            return tuple(self.wrapper_of.get(id(v), v) for v in value)
        return self.wrapper_of[id(value)]

    def install(self) -> None:
        if self.installed:
            return
        undo = []
        for owner, attr, original, wrapper in self.patches:
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, original))
        for owner, attr, value in _rebind_sites(self._originals):
            setattr(owner, attr, self._swap(value))
            undo.append((owner, attr, value))
        self._undo = undo
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []
        self.installed = False

    def unreached(self) -> list[str]:
        """Call sites still bound to an unwrapped original (empty when installed)."""
        return [
            f"{getattr(owner, '__qualname__', getattr(owner, '__name__', owner))}.{attr}"
            for owner, attr, _ in _rebind_sites(self._originals)
        ]


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Metrics every traced run prints, in order; a layer a workload never enters reads 0.
PER_LAYER = [
    ("sim_rounds_per_trial", "rounds"),
    ("walks.phase1_distribute.calls", "count"),
    ("walks.phase1_distribute.self_s", "s"),
    ("walks.phase1_distribute.us_per_coupon_round", "us"),
    ("walks.sample_coupon.calls", "count"),
    ("walks.sample_coupon.self_s", "s"),
    ("walks.single_random_walk.self_s", "s"),
    ("walks.concurrent_naive_walks.self_s", "s"),
    ("walks.concurrent_naive_walks.us_per_token_step", "us"),
    ("walks.stitches_per_trial", "count"),
    ("walks.fallbacks_per_trial", "count"),
    ("walks.stitch_ratio", "ratio"),
    ("engine.exchange.calls", "count"),
    ("engine.exchange.self_s", "s"),
    ("engine.exchange.us_per_msg", "us"),
    ("engine.flood.calls", "count"),
    ("engine.flood.rounds", "rounds"),
    ("engine.flood.us_per_round", "us"),
    ("engine.flood_until_complete.rounds", "rounds"),
    ("engine.flood_until_complete.us_per_round", "us"),
    ("engine.idle.rounds", "rounds"),
    ("engine.msgs_per_trial", "count"),
    ("engine.max_edge_bits", "bits"),
    ("engine.congestion_events", "count"),
    ("graphs.snapshot_at.calls", "count"),
    ("graphs.snapshot_at.self_s", "s"),
    ("graphs.snapshot_construct.calls", "count"),
    ("graphs.cache_hit_ratio", "ratio"),
    ("graphs.random_regular_graph.calls", "count"),
    ("graphs.random_regular_graph.us_per_call", "us"),
    ("graphs.validate_snapshot.self_s", "s"),
    ("graphs.dynamic_diameter.s", "s"),
    ("oracle.transition_matrix.calls", "count"),
    ("oracle.transition_matrix.us_per_call", "us"),
    ("oracle.spectral_summary.calls", "count"),
    ("oracle.spectral_summary.self_s", "s"),
    ("oracle.evolve.self_s", "s"),
    ("oracle.mixing_time_oracle.s", "s"),
    ("oracle.static_mixing_time.s", "s"),
    ("oracle.dynamic_mixing_bound.s", "s"),
    ("gossip.k_gossip_rw.self_s", "s"),
    ("gossip.k_gossip_trivial.self_s", "s"),
    ("gossip.rw_rounds", "rounds"),
    ("gossip.trivial_rounds", "rounds"),
    ("gossip.rw_coverage_frac", "frac"),
    ("gossip.rw_win_frac", "frac"),
    ("mixing.estimate_mixing_time.self_s", "s"),
    ("mixing.sample_endpoints.calls", "count"),
    ("mixing.sample_endpoints.self_s", "s"),
    ("mixing.uniformity_test.us_per_call", "us"),
    ("mixing.probes_per_estimate", "count"),
    ("mixing.bracket_hit_frac", "frac"),
    ("harness.resolve_phi.s", "s"),
    ("harness.resolve_tau.s", "s"),
    ("harness.check_contraction.self_s", "s"),
    ("harness.check_monotonicity.self_s", "s"),
    ("harness.check_supnorm.self_s", "s"),
    ("harness.check_stationarity.self_s", "s"),
    ("harness.check_eigen_bound.self_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
]


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


class SpanStats:
    """Per-name totals of a span frame over one set of trials."""

    def __init__(self, frame: SpanFrame, trials):
        self.frame = frame
        self.trials = np.asarray(sorted(trials), dtype=np.int32)
        self.n_trials = len(self.trials)
        self.selected = np.isin(frame.trial, self.trials)
        k = len(frame.names)
        ids = frame.name_id[self.selected]
        total = lambda w=None: np.bincount(ids, weights=w, minlength=k)  # noqa: E731
        self._calls = total()
        self._self = total(frame.self_time[self.selected])
        self._incl = total(frame.dur[self.selected])
        self._a = total(frame.a[self.selected])
        self._b = total(frame.b[self.selected])
        self._raised = total(frame.raised[self.selected])
        setup = frame.trial == SETUP_TRIAL
        self._setup = np.bincount(frame.name_id[setup], weights=frame.dur[setup], minlength=k)

    def _get(self, table, name):
        nid = self.frame.ids(name)
        return table[nid] if nid >= 0 else 0

    def calls(self, name) -> int:
        return int(self._get(self._calls, name))

    def self_s(self, name) -> float:
        return float(self._get(self._self, name))

    def incl_s(self, name) -> float:
        return float(self._get(self._incl, name))

    def a(self, name) -> int:
        return int(self._get(self._a, name))

    def b(self, name) -> int:
        return int(self._get(self._b, name))

    def raised(self, name) -> int:
        return int(self._get(self._raised, name))

    def setup_s(self, name) -> float:
        """Inclusive time of the calls made while the workload was set up."""
        return float(self._get(self._setup, name))

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer, summed over the trials (the trial span excluded)."""
        out: dict[str, float] = {}
        for nid, name in enumerate(self.frame.names):
            if name == TRIAL_SPAN:
                continue
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + float(self._self[nid])
        return out


def per_layer_metrics(stats: SpanStats, ledger: EngineLedger, results: dict, overhead_frac: float) -> dict:
    """Per-layer metrics: counts and self times per trial, us_* per unit of
    work (inclusive time), *.s for set-up calls; `results` holds the
    workload's own per-trial outcome metrics."""
    T = stats.n_trials
    per = lambda x: _ratio(x, T)  # noqa: E731
    m: dict[str, float] = {}
    m["sim_rounds_per_trial"] = results.get("sim_rounds_per_trial", 0.0)

    m["walks.phase1_distribute.calls"] = per(stats.calls("walks.phase1_distribute"))
    m["walks.phase1_distribute.self_s"] = per(stats.self_s("walks.phase1_distribute"))
    m["walks.phase1_distribute.us_per_coupon_round"] = 1e6 * _ratio(
        stats.incl_s("walks.phase1_distribute"), stats.a("walks.phase1_distribute"))
    m["walks.sample_coupon.calls"] = per(stats.calls("walks.sample_coupon"))
    m["walks.sample_coupon.self_s"] = per(stats.self_s("walks.sample_coupon"))
    m["walks.single_random_walk.self_s"] = per(stats.self_s("walks.single_random_walk"))
    m["walks.concurrent_naive_walks.self_s"] = per(stats.self_s("walks.concurrent_naive_walks"))
    m["walks.concurrent_naive_walks.us_per_token_step"] = 1e6 * _ratio(
        stats.incl_s("walks.concurrent_naive_walks"), stats.a("walks.concurrent_naive_walks"))
    stitches = stats.a("walks.single_random_walk")
    fallbacks = stats.b("walks.single_random_walk")
    m["walks.stitches_per_trial"] = per(stitches)
    m["walks.fallbacks_per_trial"] = per(fallbacks)
    m["walks.stitch_ratio"] = _ratio(stitches, stitches + fallbacks)

    m["engine.exchange.calls"] = per(stats.calls("engine.exchange"))
    m["engine.exchange.self_s"] = per(stats.self_s("engine.exchange"))
    m["engine.exchange.us_per_msg"] = 1e6 * _ratio(stats.incl_s("engine.exchange"), stats.b("engine.exchange"))
    m["engine.flood.calls"] = per(stats.calls("engine.flood"))
    m["engine.flood.rounds"] = per(stats.a("engine.flood"))
    m["engine.flood.us_per_round"] = 1e6 * _ratio(stats.incl_s("engine.flood"), stats.a("engine.flood"))
    fuc = "engine.flood_until_complete"
    m[f"{fuc}.rounds"] = per(stats.a(fuc))
    m[f"{fuc}.us_per_round"] = 1e6 * _ratio(stats.incl_s(fuc), stats.a(fuc))
    m["engine.idle.rounds"] = per(stats.a("engine.idle"))
    m["engine.msgs_per_trial"] = per(sum(stats.b(f"engine.{p}") for p in ENGINE_PRIMITIVES))
    m["engine.max_edge_bits"] = float(ledger.max_edge_bits)
    m["engine.congestion_events"] = per(ledger.congestion_events)

    snaps = stats.calls("graphs.snapshot_at")
    builds = stats.calls("graphs.snapshot_construct")
    m["graphs.snapshot_at.calls"] = per(snaps)
    m["graphs.snapshot_at.self_s"] = per(stats.self_s("graphs.snapshot_at"))
    m["graphs.snapshot_construct.calls"] = per(builds)
    m["graphs.cache_hit_ratio"] = 1.0 - _ratio(builds, snaps) if snaps else 0.0
    m["graphs.random_regular_graph.calls"] = per(stats.calls("graphs.random_regular_graph"))
    m["graphs.random_regular_graph.us_per_call"] = 1e6 * _ratio(
        stats.incl_s("graphs.random_regular_graph"), stats.calls("graphs.random_regular_graph"))
    m["graphs.validate_snapshot.self_s"] = per(stats.self_s("graphs.validate_snapshot"))
    m["graphs.dynamic_diameter.s"] = stats.setup_s("graphs.dynamic_diameter")

    m["oracle.transition_matrix.calls"] = per(stats.calls("oracle.transition_matrix"))
    m["oracle.transition_matrix.us_per_call"] = 1e6 * _ratio(
        stats.incl_s("oracle.transition_matrix"), stats.calls("oracle.transition_matrix"))
    m["oracle.spectral_summary.calls"] = per(stats.calls("oracle.spectral_summary"))
    m["oracle.spectral_summary.self_s"] = per(stats.self_s("oracle.spectral_summary"))
    m["oracle.evolve.self_s"] = per(stats.self_s("oracle.evolve"))
    for fn in ("mixing_time_oracle", "static_mixing_time", "dynamic_mixing_bound"):
        m[f"oracle.{fn}.s"] = stats.setup_s(f"oracle.{fn}")

    m["gossip.k_gossip_rw.self_s"] = per(stats.self_s("gossip.k_gossip_rw"))
    m["gossip.k_gossip_trivial.self_s"] = per(stats.self_s("gossip.k_gossip_trivial"))
    for key in ("gossip.rw_rounds", "gossip.trivial_rounds", "gossip.rw_coverage_frac", "gossip.rw_win_frac"):
        m[key] = results.get(key, 0.0)

    m["mixing.estimate_mixing_time.self_s"] = per(stats.self_s("mixing.estimate_mixing_time"))
    m["mixing.sample_endpoints.calls"] = per(stats.calls("mixing.sample_endpoints"))
    m["mixing.sample_endpoints.self_s"] = per(stats.self_s("mixing.sample_endpoints"))
    m["mixing.uniformity_test.us_per_call"] = 1e6 * _ratio(
        stats.incl_s("mixing.uniformity_test"), stats.calls("mixing.uniformity_test"))
    for key in ("mixing.probes_per_estimate", "mixing.bracket_hit_frac"):
        m[key] = results.get(key, 0.0)

    m["harness.resolve_phi.s"] = stats.setup_s("harness.resolve_phi")
    m["harness.resolve_tau.s"] = stats.setup_s("harness.resolve_tau")
    for check in ("contraction", "monotonicity", "supnorm", "stationarity", "eigen_bound"):
        m[f"harness.check_{check}.self_s"] = per(stats.self_s(f"harness.check_{check}"))

    m["trace.overhead_frac"] = overhead_frac
    wall = stats.incl_s(TRIAL_SPAN)
    m["trace.unattributed_frac"] = _ratio(stats.self_s(TRIAL_SPAN), wall)
    if list(m) != [k for k, _ in PER_LAYER]:
        raise RuntimeError("PER_LAYER and per_layer_metrics name different metrics")
    return m


def trace_checks(stats: SpanStats, ledger: EngineLedger, results: dict) -> dict:
    """Identities that show the wrappers reached every call site, and the
    self-time accounting of the traced wall time.  Each entry is
    (holds, left side, right side)."""
    checks = {}
    f = stats.frame
    stitched = results.get("stitched_trials", 0)
    checks["phase1_calls == stitched_trials"] = (stats.calls("walks.phase1_distribute"), stitched)
    sampled = stats.calls("walks.sample_coupon") - stats.raised("walks.sample_coupon")
    checks["sample_coupon_returns == sum_segments"] = (sampled, results.get("sum_segments", 0))
    checks["sample_coupon_raises == sum_fallbacks"] = (
        stats.raised("walks.sample_coupon"), results.get("sum_fallbacks", 0))
    checks["flood_calls_in_stitches == 2*sample_coupon_returns"] = (
        _children_count(stats, "walks.sample_coupon", "engine.flood"), 2 * sampled)
    api_rounds = sum(stats.a(f"engine.{p}") for p in ENGINE_PRIMITIVES)
    checks["exchange+idle+flood rounds == sum engine.log.rounds"] = (api_rounds, ledger.log_rounds)
    checks["transition_matrix calls under evolve == sum evolve steps"] = (
        _children_count(stats, "oracle.evolve", "oracle.transition_matrix"), stats.a("oracle.evolve"))
    layer_self = float(f.self_time[stats.selected & (f.name_id != f.ids(TRIAL_SPAN))].sum())
    unattributed = stats.self_s(TRIAL_SPAN)
    wall = stats.incl_s(TRIAL_SPAN)
    checks["spans nested inside their parents"] = (f.nesting_violations(), 0)
    out = {k: {"holds": bool(l == r), "left": l, "right": r} for k, (l, r) in checks.items()}
    # Float sums in another order: equal to within rounding, not bit for bit.
    out["layer self + unattributed == traced wall (s)"] = {
        "holds": abs(layer_self + unattributed - wall) <= 1e-9 * max(1.0, wall) + 1e-12 * len(f.dur),
        "left": layer_self + unattributed,
        "right": wall,
    }
    return out


def _children_count(stats: SpanStats, parent_name: str, child_name: str) -> int:
    f = stats.frame
    pid, cid = f.ids(parent_name), f.ids(child_name)
    if pid < 0 or cid < 0:
        return 0
    sel = (f.name_id == cid) & stats.selected & (f.parent >= 0)
    return int((f.name_id[f.parent[sel]] == pid).sum())


__all__ = [
    "LAYERS",
    "PER_LAYER",
    "TRIAL_SPAN",
    "EngineLedger",
    "Instrumentation",
    "SpanStats",
    "per_layer_metrics",
    "trace_checks",
]
