"""Live cluster harness: multi-process deployment over real sockets.

The sim worlds (``repro.discovery.chaos``) validate the protocol under a
deterministic clock; this package re-runs the same tiers -- a replicated
BDN group, advertising brokers, seeded discovery clients -- as separate
OS processes exchanging real UDP/TCP datagrams through
:class:`~repro.runtime.aio.AioRuntime`, with *process-level* fault
injection (SIGKILL crashes, SIGTERM drains, staggered rolling restarts,
load storms) and the same invariants asserted on the collected wreckage.

Entry points::

    python -m repro.cluster smoke   # one seeded run + rolling restart
    python -m repro.cluster soak    # duration-driven fault soak
"""

from repro.cluster.coordinator import ClusterError, ClusterFaultInjector, ClusterHarness
from repro.cluster.report import (
    check_invariants,
    collect_rounds,
    merge_leadership_intervals,
    merged_cluster_snapshot,
    summarize,
)
from repro.cluster.spec import ClusterSpec, derive_schedule

__all__ = [
    "ClusterError",
    "ClusterFaultInjector",
    "ClusterHarness",
    "ClusterSpec",
    "check_invariants",
    "collect_rounds",
    "derive_schedule",
    "merge_leadership_intervals",
    "merged_cluster_snapshot",
    "summarize",
]
