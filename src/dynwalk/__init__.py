"""dynwalk: CONGEST-model simulation of random-walk protocols on evolving
regular graphs, with an exact spectral oracle for desk-scale verification."""

from .engine import CongestEngine, Encodings, RoundLog, SimConfig, default_bandwidth
from .gossip import GossipParams, k_gossip_race, k_gossip_rw, k_gossip_trivial, resolve_gossip_params
from .graphs import (
    DynwalkError,
    GraphSchedule,
    GraphSnapshot,
    PeriodicSchedule,
    PermutedSchedule,
    RandomRegularSchedule,
    StaticSchedule,
    ValidationReport,
    dynamic_diameter,
    flooding_time,
    named_graph,
    parse_schedule_spec,
    random_regular_graph,
    validate_snapshot,
)
from .mixing import (
    estimate_mixing_time,
    sample_endpoints,
    spectral_gap_bounds,
    uniformity_test,
)
from .oracle import (
    SpectralSummary,
    dynamic_mixing_bound,
    evolve,
    l2_to_uniform,
    mixing_time_oracle,
    segment_matrix,
    spectral_summary,
    transition_matrix,
    tv_distance,
)
from .walks import (
    CouponTable,
    WalkBatch,
    WalkParams,
    WalkResult,
    many_random_walks,
    naive_walk,
    phase1_distribute,
    sample_coupon,
    single_random_walk,
    visit_stats,
)

__version__ = "0.1.0"
