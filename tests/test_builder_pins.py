"""Pinned outputs of the random snapshot builders.

Each digest is a sha256 over the sorted edges of a group of builds, so a
change to `random_regular_graph` or to `PermutedSchedule` that moves one
edge, or draws one word more or less from a caller's rng, fails here.

  random_regular_graph  the 24 lemma-suite shapes x seeds 0-49, each build
                        followed by the state of the rng passed in
  rr:n=16,d=3           snapshots 1-64 at seed 0
  rr:n=64,d=3           snapshots 1-64 at seed 0
  perm:base=petersen    snapshots 1-64 at seed 0
  srr:n=48,d=8          the static snapshot at seed 1056 (mixest-srr48's graph)
  perm:base=srr64       snapshots 1-64 of the relabeled srr:n=64,d=3 graph (seed 7)
                        at seed 1234 (gossip-perm64's schedule)
"""
import hashlib
import random

import pytest

from conftest import SUITE_SHAPES
from dynwalk.graphs import PermutedSchedule, parse_schedule_spec, random_regular_graph

SCHEDULE_ROUNDS = range(1, 65)


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def builder_builds():
    for n, d in SUITE_SHAPES:
        for seed in range(50):
            rng = random.Random(seed)
            g = random_regular_graph(n, d, rng)
            yield n, d, seed, sorted(g.edges), rng.getstate()


def schedule_builds(spec, seed, rounds):
    yield from snapshots(parse_schedule_spec(spec, seed=seed), rounds)


def snapshots(sched, rounds):
    for t in rounds:
        yield t, sorted(sched.snapshot_at(t).edges)


GROUPS = {
    "random_regular_graph": builder_builds,
    "rr:n=16,d=3": lambda: schedule_builds("rr:n=16,d=3", 0, SCHEDULE_ROUNDS),
    "rr:n=64,d=3": lambda: schedule_builds("rr:n=64,d=3", 0, SCHEDULE_ROUNDS),
    "perm:base=petersen": lambda: schedule_builds("perm:base=petersen", 0, SCHEDULE_ROUNDS),
    "srr:n=48,d=8": lambda: schedule_builds("srr:n=48,d=8", 1056, [1]),
    "perm:base=srr64": lambda: snapshots(
        PermutedSchedule(parse_schedule_spec("srr:n=64,d=3", seed=7).snapshot_at(1), seed=1234), SCHEDULE_ROUNDS),
}

PINS = {
    "random_regular_graph": "312d111532a5c48bab2874380ce92cc1d11fb938eaeed9912809e13c28c343f3",
    "rr:n=16,d=3": "d5f78203117aadfd344af2ca66e686c70eded71ad1cdae472175613f4d3c3d74",
    "rr:n=64,d=3": "ff5853d193fffc7c0439b5ab43422713d5107cbf8bfe2200c996e5a6927f87de",
    "perm:base=petersen": "769536b212a9c02ea310c0aa6c9ab6f0d0c2160f6389c393cfd44a7a01649c8f",
    "srr:n=48,d=8": "f6c4e0bca398a93d9841709a6de3b55401b5152a33397c876cea06a56cac29c5",
    "perm:base=srr64": "af2cf2d705153cbec8c9a12c46055d112b037bcf9f7bb40928e2955abee234a6",
}


def test_suite_has_24_shapes():
    assert len(set(SUITE_SHAPES)) == 24


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_builds_pinned(group):
    assert digest(GROUPS[group]()) == PINS[group]
