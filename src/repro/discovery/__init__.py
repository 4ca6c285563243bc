"""Broker discovery: the paper's primary contribution.

The pieces map one-to-one onto the paper's sections:

* :mod:`repro.discovery.advertisement` -- broker advertisements and the
  BDN-side store (sections 2.1-2.3).
* :mod:`repro.discovery.bdn` -- Broker Discovery Nodes: registration,
  request acknowledgement, and request injection into the broker
  network, including the closest+farthest strategy (sections 2, 4).
* :mod:`repro.discovery.responder` -- the broker-side half: dedup on
  request UUIDs, response policies, topic-based propagation, and UDP
  responses carrying NTP timestamps and usage metrics (sections 4, 5).
* :mod:`repro.discovery.selection` -- delay estimation from NTP
  timestamps, the weighted scoring formula, and target-set shortlisting
  (sections 6, 9).
* :mod:`repro.discovery.ping` -- the UDP ping refinement over the
  target set (section 6).
* :mod:`repro.discovery.requester` -- the client-side state machine:
  BDN sequence, timeout/max-N collection, multicast fallback, cached
  target set, retransmission (sections 3, 6, 7).
* :mod:`repro.discovery.phases` -- per-phase timing, reproducing the
  sub-activity breakdowns of Figures 2, 9 and 11.
* :mod:`repro.discovery.replication` -- BDN replication groups:
  lease-based leader election, quorum-gated log replication of the
  advertisement table, anti-entropy repair.
* :mod:`repro.discovery.faults` -- fault injection for the section 7
  scenarios.
* :mod:`repro.discovery.chaos` -- seeded randomized fault schedules
  (link cuts, partitions, kill+revive, loss storms) with invariant
  checking over a discovery workload.
"""

from repro.discovery.advertisement import (
    AdvertisementStore,
    Heartbeat,
    StoredAdvertisement,
    build_advertisement,
    start_heartbeat,
)
from repro.discovery.replication import (
    ReplicationState,
    parse_endpoint,
    try_parse_endpoint,
)
from repro.discovery.responder import REQUEST_TOPIC, DiscoveryResponder
from repro.discovery.bdn import BDN, BDN_UDP_PORT
from repro.discovery.selection import Candidate, make_candidate, select_target_set
from repro.discovery.ping import Pinger
from repro.discovery.phases import PhaseTimer, PHASE_NAMES
from repro.discovery.requester import (
    CLIENT_UDP_PORT,
    CachedTarget,
    DiscoveryClient,
    DiscoveryOutcome,
)
from repro.discovery.faults import FaultInjector
from repro.discovery.chaos import (
    CHAOS_KINDS,
    REPLICATED_CHAOS_KINDS,
    STORM_KINDS,
    ChaosAction,
    ChaosReport,
    ChaosWorld,
    apply_schedule,
    draw_schedule,
    run_chaos,
)

__all__ = [
    "AdvertisementStore",
    "StoredAdvertisement",
    "build_advertisement",
    "start_heartbeat",
    "Heartbeat",
    "REQUEST_TOPIC",
    "DiscoveryResponder",
    "BDN",
    "BDN_UDP_PORT",
    "Candidate",
    "make_candidate",
    "select_target_set",
    "Pinger",
    "PhaseTimer",
    "PHASE_NAMES",
    "CLIENT_UDP_PORT",
    "CachedTarget",
    "DiscoveryClient",
    "DiscoveryOutcome",
    "ReplicationState",
    "parse_endpoint",
    "try_parse_endpoint",
    "FaultInjector",
    "CHAOS_KINDS",
    "REPLICATED_CHAOS_KINDS",
    "STORM_KINDS",
    "ChaosAction",
    "ChaosReport",
    "ChaosWorld",
    "apply_schedule",
    "draw_schedule",
    "run_chaos",
]
