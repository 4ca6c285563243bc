"""The one checked vocabulary of event names the codebase may emit.

Every event is emitted the same way -- ``node.emit(name, ...)`` into
the world's :class:`~repro.obs.Observability` -- and is one of two
kinds, which :data:`EVENTS` records per name.  One fact has one name:
no fact is said once as a step and again as a plain event.

* **plain** (``False``): a per-node fact (``request_sent``,
  ``udp_drop``, ``bdn_lease_expired``).  It is always counted and
  logged when the sink keeps a trace.  A fact about a traced request
  (``request_sent``, ``discovery_response``, ``bdn_busy``,
  ``discover_done``, ...) passes that request's trace id and hop, and
  while the world is observing it also lands in the node's ring.
* **causal** (``True``): a step of one traced request that is no fact
  worth counting on its own -- a message's hop (``send``/``recv`` of
  pings, advertisements, Acks, arrivals at a broker), a queue
  transition, a requester phase.  It carries a trace id (the discovery
  request UUID; ``ping:<key>`` for standalone pings, ``ad:<broker>``
  for advertisements, ``group:<name>`` for replication) and a hop
  counter, lands in the emitting node's bounded ring, and exists only
  while the world is observing.

:mod:`repro.obs.timeline` merges the rings across nodes into one
request's timeline.  The causal set is deliberately tiny so a
cross-node timeline reads like a sequence diagram, not a log dump.

The sink validates a name (and that a causal one carries a trace id)
when it is emitted; a tier-1 test additionally greps
every ``.emit("name"`` call site under ``src/`` against this table, so
a typo fails CI even on a path no test drives.
"""

from __future__ import annotations

__all__ = ["EVENTS", "UnknownEventError", "is_causal"]


class UnknownEventError(ValueError):
    """An event name outside the checked registry was emitted."""


#: Event name -> is it causal?  Grouped by the module that emits it.
EVENTS: dict[str, bool] = {
    # -- causal ---------------------------------------------------------
    "send": True,  # a traced message left this node
    "recv": True,  # a traced message arrived at this node
    "inject": True,  # a BDN/responder forwarded the request toward a broker
    "dup_suppressed": True,  # a duplicate of the traced message was discarded
    "enqueue": True,  # the message entered a bounded ingress queue
    "dequeue": True,  # the message left the queue and began service
    "late": True,  # a response arrived after its run had already closed
    "phase": True,  # the requester entered a PhaseTimer phase
    # replication (trace id "group:<name>")
    "replica_commit": True,  # a replicated advertisement reached write quorum
    "repair": True,  # an anti-entropy delta was applied to the registry
    # -- plain: simnet fabric / aio runtime -------------------------------
    "udp_deliver": False,
    "udp_drop": False,
    "udp_cut": False,
    "udp_garbled": False,
    "tcp_severed": False,
    "tcp_syn_cut": False,
    "handler_error": False,
    # ingress queues
    "queue_overflow": False,
    # BDN
    "bdn_start": False,
    "bdn_stop": False,
    "bdn_announced": False,
    "bdn_busy": False,
    "bdn_unknown_message": False,
    "bdn_registered": False,
    "bdn_credential_reject": False,
    "bdn_no_brokers": False,
    "bdn_disseminate": False,
    "bdn_lease_expired": False,
    "bdn_pruned": False,
    "bdn_announce_malformed": False,
    "bdn_autoregistered": False,
    # BDN replication groups
    "election_started": False,
    "election_won": False,
    "leader_stepdown": False,
    "lease_granted": False,
    "lease_denied": False,
    "replica_stale_term": False,
    "replica_gap": False,
    "anti_entropy_truncated": False,
    "bdn_caught_up": False,
    "bdn_cold_restart": False,
    "bdn_catchup_refused": False,
    # registration heartbeat
    "heartbeat_rehomed": False,
    "heartbeat_broadcast": False,
    # discovery requester
    "client_stop": False,
    "discover_start": False,
    "rediscover_start": False,
    "watch_broker_lost": False,
    "request_sent": False,
    "request_retransmit": False,
    "request_retransmit_budgeted": False,
    "request_next_bdn": False,
    "request_rung_retry": False,
    "request_multicast": False,
    "request_cached_targets": False,
    "retry_denied": False,
    "bdn_skipped_retry_after": False,
    "bdn_skipped_breaker": False,
    "bdn_busy_received": False,
    "leader_hint_update": False,
    "leader_hint_jump": False,
    "response_received": False,
    "collection_extended": False,
    "collection_done": False,
    "candidate_excluded": False,
    "discover_done": False,
    "discover_failed": False,
    # discovery responder
    "responder_stop": False,
    "responder_drain": False,
    "registration_withdrawn": False,
    "discovery_bad_payload": False,
    "discovery_policy_reject": False,
    "discovery_response_suppressed": False,
    "discovery_response": False,
    # substrate
    "broker_start": False,
    "broker_stop": False,
    "link_up": False,
    "link_accepted": False,
    "link_down": False,
    "link_retry": False,
    "client_gone": False,
    "client_registered": False,
    "client_connected": False,
    "client_disconnected": False,
    "reliable_bad_seq": False,
    "reliable_bad_request": False,
}


def is_causal(event: str) -> bool:
    """Whether ``event`` is a causal name; unknown names raise."""
    try:
        return EVENTS[event]
    except KeyError:
        raise UnknownEventError(
            f"unknown event {event!r}; register it in repro.obs.events"
        ) from None
