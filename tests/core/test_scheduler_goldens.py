"""Golden digests of the on-line scheduler's outputs on seeded clusters.

Each digest is a SHA-256 over the canonical repr of everything one Table 1
run produces: every slot's transmissions (sender, receiver, request id,
hop index), the delivery slots, the abandoned requests, the blacklist, the
failover events, the makespan, the slots elapsed, each request's attempt
count and the oracle's ``query_count``.  The cases cover M = 2 and 3, all
three scan orders, Bernoulli loss, retry budgets, dead-sensor detection,
k = 1 backup routes and the simulator-driven ``external_step`` interface.
A change to the fill scan or its bookkeeping that moves any slot, event or
oracle query changes a digest.

Regenerate a digest with ``case_digest(case)`` only when a change is meant
to move the schedule, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pytest

from repro.core import BernoulliLoss, OnlinePollingScheduler
from repro.mac.base import geometric_oracle
from repro.routing import compute_backup_routes, solve_min_max_load
from repro.topology import HEAD, Cluster, uniform_square


class Case(NamedTuple):
    n: int
    seed: int
    m: int
    order: str = "index"
    loss_p: float = 0.0
    retry_limit: int | None = None
    dead_after_misses: int | None = None
    backups: bool = False
    external: bool = False  # drive through external_step with head-side drops

    @property
    def id(self) -> str:
        parts = [f"n{self.n}s{self.seed}", f"M{self.m}", self.order]
        if self.loss_p:
            parts.append(f"p{self.loss_p}")
        if self.retry_limit is not None:
            parts.append(f"retry{self.retry_limit}")
        if self.dead_after_misses is not None:
            parts.append(f"dead{self.dead_after_misses}")
        if self.backups:
            parts.append("backups")
        if self.external:
            parts.append("external")
        return "-".join(parts)


CLUSTERS = ((10, 0), (30, 1), (60, 2))
ORDERS = ("index", "deep-first", "shallow-first")

CASES: list[Case] = []
for _n, _seed in CLUSTERS:
    for _m in (2, 3):
        CASES += [Case(_n, _seed, _m, order) for order in ORDERS]
        CASES.append(Case(_n, _seed, _m, loss_p=0.3))
        CASES.append(
            Case(_n, _seed, _m, "deep-first", 0.3, retry_limit=2, dead_after_misses=3)
        )
        CASES.append(
            Case(_n, _seed, _m, loss_p=0.3, retry_limit=2, dead_after_misses=3, backups=True)
        )
        CASES.append(
            Case(
                _n, _seed, _m, "shallow-first", 0.3,
                retry_limit=3, dead_after_misses=2, backups=True, external=True,
            )
        )


@lru_cache(maxsize=None)
def _routing(n: int, seed: int, m: int):
    """Packets 0–3 per sensor, the min-max plan and its k = 1 backups."""
    geo = Cluster.from_deployment(uniform_square(n, seed=seed))
    _, cluster = geometric_oracle(geo, max_group_size=m)
    packets = np.random.default_rng(seed).integers(0, 4, size=n)
    solution = solve_min_max_load(cluster.with_packets(packets))
    return geo, solution.routing_plan(), compute_backup_routes(solution, k=1)


def build_scheduler(case: Case, cls=OnlinePollingScheduler):
    """A scheduler for *case* on a fresh oracle (so ``query_count`` starts at 0)."""
    geo, plan, backups = _routing(case.n, case.seed, case.m)
    oracle, _ = geometric_oracle(geo, max_group_size=case.m)
    loss = (
        BernoulliLoss(case.loss_p, seed=case.seed)
        if case.loss_p and not case.external
        else None
    )
    return cls(
        plan,
        oracle,
        loss=loss,
        order=case.order,
        retry_limit=case.retry_limit,
        dead_after_misses=case.dead_after_misses,
        backups=backups if case.backups else None,
    )


def drive_external(scheduler, drop_p: float, seed: int, max_slots: int = 100_000) -> int:
    """Step *scheduler* as the DES MAC does; return the slots elapsed.

    Each slot's final hops reach the head unless a seeded draw, one per
    final hop in group order, drops them.
    """
    rng = np.random.default_rng(seed)
    arrived: set[int] = set()
    t = 0
    while not scheduler.all_done:
        assert t < max_slots, "external drive did not finish"
        group = scheduler.external_step(t, arrived)
        if not group and scheduler.all_done:
            break
        arrived = {
            tx.request_id
            for tx in group
            if tx.receiver == HEAD and rng.random() >= drop_p
        }
        t += 1
    return t


def run_case(case: Case, cls=OnlinePollingScheduler) -> list:
    """Run *case* to completion and return its canonical outputs."""
    scheduler = build_scheduler(case, cls)
    if case.external:
        elapsed = drive_external(scheduler, case.loss_p, case.seed)
    else:
        elapsed = scheduler.run().slots_elapsed
    return scheduler_outputs(scheduler, elapsed)


def scheduler_outputs(scheduler, slots_elapsed: int) -> list:
    """The canonical, hashable view of one finished scheduler."""
    schedule = scheduler.schedule
    return [
        [
            [(tx.sender, tx.receiver, tx.request_id, tx.hop_index) for tx in group]
            for group in schedule.slots
        ],
        sorted(schedule.delivered.items()),
        sorted(scheduler.failed),
        sorted(scheduler.blacklist),
        [
            (e.slot, e.sensor, tuple(e.old_path), tuple(e.new_path), e.reason)
            for e in scheduler.failover_events
        ],
        schedule.makespan(),
        slots_elapsed,
        sorted((r.request_id, r.attempts) for r in scheduler.pool.requests),
        scheduler.oracle.query_count,
    ]


def case_digest(case: Case) -> str:
    return hashlib.sha256(repr(run_case(case)).encode()).hexdigest()


GOLDEN = {
    "n10s0-M2-index": "d07329e012eb2440cba5540511e19b81d2caed1fc5f66f89e19c44d63fa61f2e",
    "n10s0-M2-deep-first": "46e529136a8f12b5784912a524192db512bf60a9d10c7bcda39001d433495024",
    "n10s0-M2-shallow-first": "1f7e884ae751ed0775da99b028b64ff57d28177165e3795407f8aeb7eb544f17",
    "n10s0-M2-index-p0.3": "47fe3eb45eb74273d0cdf6190b7186c7b0d1f4c60234494fcece6fb3c4bbfa3e",
    "n10s0-M2-deep-first-p0.3-retry2-dead3": "31da5b762978b8b21053bed7b1a558a74ebb47c418ed199219644305cd27e599",
    "n10s0-M2-index-p0.3-retry2-dead3-backups": "31440df54adc76bd880377222466f5f3dbc5a66eb8ad553015b3209d5a6e748d",
    "n10s0-M2-shallow-first-p0.3-retry3-dead2-backups-external": "028fd495ecc5c2ab765dc4bbc6c89e915b855c9f3bdc48366261e4f83ec304b9",
    "n10s0-M3-index": "99bbc2f2172c6fd18ed3b2ba079c0b49c33da501576c49894e42dd4af15453e3",
    "n10s0-M3-deep-first": "46e529136a8f12b5784912a524192db512bf60a9d10c7bcda39001d433495024",
    "n10s0-M3-shallow-first": "1f7e884ae751ed0775da99b028b64ff57d28177165e3795407f8aeb7eb544f17",
    "n10s0-M3-index-p0.3": "9c8e777f40b83945bfa1d35900b490a98cd00afd2c311f1ec8087e4dcda4475c",
    "n10s0-M3-deep-first-p0.3-retry2-dead3": "31da5b762978b8b21053bed7b1a558a74ebb47c418ed199219644305cd27e599",
    "n10s0-M3-index-p0.3-retry2-dead3-backups": "58d0753326c2232680cb8657d0a30806abc1cefd1681afffefb58eefb9a82bff",
    "n10s0-M3-shallow-first-p0.3-retry3-dead2-backups-external": "028fd495ecc5c2ab765dc4bbc6c89e915b855c9f3bdc48366261e4f83ec304b9",
    "n30s1-M2-index": "c51f2f5d7a1f0e50a2a5124075d32123aa6f1725938eeaa688c345062f959eab",
    "n30s1-M2-deep-first": "8fb26ffc7b2741e5816054f05752c9c03ce7ae1c4a275beadcc1e5b2fda995fa",
    "n30s1-M2-shallow-first": "c534619e45374ba0cadfd66929b38115bcdf5dccf49cd3b6781632b5f9201630",
    "n30s1-M2-index-p0.3": "b15652db856c20c2d05af5397d42000cd74e44ce75c9b6f659fb2206a42c71e3",
    "n30s1-M2-deep-first-p0.3-retry2-dead3": "31453f7810d9d2c870932c5fdfc6fadd25aa4edd8543a00b8757521f2ccb0472",
    "n30s1-M2-index-p0.3-retry2-dead3-backups": "974873e1b0f90a9ea347f59c884e55d6e19ba59a1fc3dce48f193cd5c837d04c",
    "n30s1-M2-shallow-first-p0.3-retry3-dead2-backups-external": "8feb5598f2b069d3a20bddd3d2f9eee24f6d976a9606e95609ffd51f3eae1c47",
    "n30s1-M3-index": "36d4f663288f915237cf49d0e712b2fccce295ff0590acd9189ac6f58ebbf014",
    "n30s1-M3-deep-first": "fed0f703c028917deb2fe1c302687dde83a0b9129ae34073358cc0e3788e40af",
    "n30s1-M3-shallow-first": "0cbae0cfb94792199c4594576533e0910a0dd1ef768aab01b72c4a346949f25b",
    "n30s1-M3-index-p0.3": "421863aff95e3c40bec2c6fc7a82512f562ac59e778b27cafa06f81b90fd05b7",
    "n30s1-M3-deep-first-p0.3-retry2-dead3": "c7a002ec4a7bc7690b33d4d3e2c68a924ac6c8f4fd7e6b3ea6cfc7f86dfa3e21",
    "n30s1-M3-index-p0.3-retry2-dead3-backups": "184ec55d3d20740ba95b23f5bc53c1b5187d2040b5937516d907ebf0356e826b",
    "n30s1-M3-shallow-first-p0.3-retry3-dead2-backups-external": "0e4644872f37acc78456d7092211ceed1944320ebafe7f0dc34e150ad9a8de56",
    "n60s2-M2-index": "8cce5651db2d609c9364b2ceb0355e0c335d8af6f361cd07d58c339a71afc463",
    "n60s2-M2-deep-first": "90e3f792f7fad6b16b1f1fecd16d0a92c12959cdcb2600f4fed57343cfa534ec",
    "n60s2-M2-shallow-first": "89c6b2c7620f02d313883f0e6de24700ea810932a6beaee91132e9e7efab8656",
    "n60s2-M2-index-p0.3": "64dcb75a8a8e98c2db55a1eb715dcb7b989b4175b662e5185388199e4b3c6e4f",
    "n60s2-M2-deep-first-p0.3-retry2-dead3": "c0e6a946a8bc8a201092edee5441a5fac67d89a5f20a89537ec8174f01587121",
    "n60s2-M2-index-p0.3-retry2-dead3-backups": "63fea583d4246180fe572bd8357e288bf168202465187dc19c4652c89c5ee688",
    "n60s2-M2-shallow-first-p0.3-retry3-dead2-backups-external": "9ae0607337826796d4e4a0fe16df8d9dd015287cb15813680d09e367fab41d15",
    "n60s2-M3-index": "a1d5bfab08e3302f84992a719416f8b44f2891bfdd986aa6fedcc3ad1f733cbe",
    "n60s2-M3-deep-first": "43b52b2c26ea572ff4852a2fa894279af75f06af107aeb9ec014237a93699ac9",
    "n60s2-M3-shallow-first": "e966d8454314630a469ffb9b502b500a2512dcc81a9feaf423ff7e7c7c970608",
    "n60s2-M3-index-p0.3": "302b1c2d00ab6261de70fcf81975bfe7025d5fafc16698cb34c899bffbf00a52",
    "n60s2-M3-deep-first-p0.3-retry2-dead3": "ddc66146b59d6f9956b56b5bf0b9b0f1fcb015387a9ead07bd963dce61c65997",
    "n60s2-M3-index-p0.3-retry2-dead3-backups": "6d3e1838332149441cec54795a1ba3c2a6204be455fe904b99ff8963c0be0c2f",
    "n60s2-M3-shallow-first-p0.3-retry3-dead2-backups-external": "42c7f3fd0aa2b33ab5f40fe83d28a9c59fb8666501f0bc5a7d69cc3eb2bbae8d",
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.id)
def test_scheduler_outputs_match_golden(case):
    assert case_digest(case) == GOLDEN[case.id]
