"""Broker advertisements and the BDN-side store.

Sections 2.1-2.3 of the paper: brokers *may* advertise with one or more
BDNs (registration is optional and non-uniform); an advertisement
carries hostname, transports+ports, logical address and optional
geography/institution; dissemination is either **direct** (to the BDNs
in the broker's configuration file) or **topic-based** (published on a
public topic such as ``Services/BrokerDiscoveryNodes/BrokerAdvertisement``
that BDNs subscribe to); and a BDN may *ignore* advertisements outside
its interest (e.g. "a BDN in the US may be interested only in broker
additions in North America").

**Leases** extend the paper's registration scheme for partition and
churn tolerance: an advertisement may carry a TTL, brokers renew it by
re-advertising on one heartbeat (:func:`start_heartbeat`), and a BDN
evicts entries whose lease lapsed -- so a broker that died or was
partitioned away stops being handed to requesters after at most one
TTL, instead of lingering until ping-based pruning notices.  The same
heartbeat serves a plain BDN and a replicated group: it learns from the
group's :class:`~repro.core.messages.AdvertisementAck` which member
leads, and renews there only.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

from repro.core.codec import encode_message
from repro.core.config import Endpoint
from repro.core.messages import AdvertisementAck, BrokerAdvertisement, Event
from repro.discovery.replication import try_parse_endpoint
from repro.substrate.broker import BROKER_TCP_PORT, BROKER_UDP_PORT, Broker

__all__ = [
    "AD_TOPIC",
    "BDN_ANNOUNCE_TOPIC",
    "WITHDRAW_TTL",
    "build_advertisement",
    "advertise_direct",
    "advertise_on_topic",
    "withdraw_registration",
    "start_heartbeat",
    "Heartbeat",
    "enable_bdn_autoregistration",
    "StoredAdvertisement",
    "AdvertisementStore",
]

#: The public topic every BDN subscribes to (paper section 2.3).
AD_TOPIC = "Services/BrokerDiscoveryNodes/BrokerAdvertisement"

#: The topic a newly added (private) BDN announces itself on
#: (paper section 2.4: "the private BDN must advertise its services to
#: brokers within the broker network").
BDN_ANNOUNCE_TOPIC = "Services/BrokerDiscoveryNodes/Announce"


def build_advertisement(
    broker: Broker, region: str = "", institution: str = "", ttl: float = 0.0
) -> BrokerAdvertisement:
    """Construct a broker's advertisement from its live state.

    ``ttl`` is the lease duration in seconds (0 = never expires, the
    pre-lease behaviour; one-shot registrations keep that default so a
    broker that advertises once is not silently forgotten).
    """
    if ttl < 0:
        raise ValueError(f"ttl must be non-negative, got {ttl}")
    # A broker whose sink is observing marks its advertisements so BDN
    # registration shows up under the "ad:<broker_id>" trace id.
    return BrokerAdvertisement(
        trace_flag=broker.observing,
        broker_id=broker.name,
        hostname=broker.host,
        transports=(("tcp", BROKER_TCP_PORT), ("udp", BROKER_UDP_PORT)),
        logical_address=f"/{broker.site}/{broker.name}",
        region=region or _region_hint(broker),
        institution=institution or broker.site,
        issued_at=broker.utc(),
        ttl=ttl,
    )


def _region_hint(broker: Broker) -> str:
    # Site naming convention: European paper site is "cardiff".
    return "europe" if broker.site == "cardiff" else "north-america"


def advertise_direct(
    broker: Broker, bdn_endpoint: Endpoint, region: str = "", ttl: float = 0.0
) -> BrokerAdvertisement:
    """Send the broker's advertisement straight to one BDN over UDP.

    The first dissemination form of section 2.3 ("sending this
    advertisement directly to the BDNs that are listed in the broker's
    configuration file").  Like any datagram it may be lost; section 7
    notes the scheme tolerates lost advertisements.
    """
    ad = build_advertisement(broker, region=region, ttl=ttl)
    if ad.trace_flag:
        broker.emit("send", f"ad:{broker.name}", kind="BrokerAdvertisement", bdn=bdn_endpoint)
    broker.send_udp(bdn_endpoint, ad)
    return ad


#: Lease length of a withdrawal advertisement.  There is no explicit
#: withdrawal message on the wire; a draining broker re-advertises with
#: a lease so short it has lapsed by the time any BDN reads it, which
#: overwrites the live registration through the ordinary direct-register
#: path.  Strictly positive (ttl=0 means "never expires").
WITHDRAW_TTL = 1e-6


def withdraw_registration(
    broker: Broker, bdn_endpoints, region: str = ""
) -> int:
    """Withdraw the broker's registration from every listed BDN.

    Sent directly to each group member rather than through replication:
    the direct-register path accepts unconditionally, whereas the
    replicated newest-lease-wins merge would reject a shorter lease.
    Returns the number of withdrawal datagrams sent (UDP: any of them
    may be lost, in which case the old lease simply expires on its own).
    """
    sent = 0
    for bdn_endpoint in bdn_endpoints:
        advertise_direct(broker, bdn_endpoint, region=region, ttl=WITHDRAW_TTL)
        sent += 1
    if sent:
        broker.emit("registration_withdrawn", bdns=sent)
    return sent


def advertise_on_topic(broker: Broker, region: str = "", ttl: float = 0.0) -> BrokerAdvertisement:
    """Publish the broker's advertisement on the public topic.

    The second dissemination form of section 2.3: every BDN attached to
    the broker network (via :meth:`repro.discovery.bdn.BDN.attach_to_network`)
    receives it through normal pub/sub routing.
    """
    ad = build_advertisement(broker, region=region, ttl=ttl)
    event = Event(
        uuid=broker.ids(),
        topic=AD_TOPIC,
        payload=encode_message(ad),
        source=broker.name,
        issued_at=broker.utc(),
    )
    broker.publish_local(event)
    return ad


#: The first beat goes out this many times in all, ``BURST_SPACING``
#: seconds apart, until any BDN acks: a lone lost registration must not
#: leave a broker invisible until its next renewal (section 7).
BURST = 3
BURST_SPACING = 0.5

#: Unacknowledged beats a heartbeat homed on a leader tolerates before it
#: renews at every endpoint again.
REHOME_MISSES = 2


def start_heartbeat(
    broker: Broker,
    bdn_endpoints,
    interval: float = 30.0,
    region: str = "",
    ttl: float | None = None,
) -> "Heartbeat":
    """Register with the listed BDNs and keep the lease renewed.

    Advertisements ride UDP and "may also be lost in transit to the
    BDNs" (section 7), so the rule is:

    * the first beat goes to every endpoint, repeated up to
      :data:`BURST` times in all, :data:`BURST_SPACING` seconds apart,
      until any BDN acks;
    * each later beat, every ``interval`` seconds, renews the lease at
      every endpoint -- or, once an
      :class:`~repro.core.messages.AdvertisementAck` names a leader,
      at that leader only (it replicates the write to its group);
    * an ack naming a different leader re-homes the heartbeat at once,
      and after :data:`REHOME_MISSES` unacknowledged beats it renews at
      every endpoint again, so some member keeps the lease alive.

    Only a replicated BDN acks, so against plain BDNs every beat goes
    to every endpoint.  A renewal also registers the broker again with
    a BDN that dropped it (cold restart, lapsed lease, prune).

    ``ttl`` defaults to three intervals, so the lease survives two
    consecutive lost beats; pass ``ttl=0`` for a non-expiring
    registration.  A dead (or revived) broker pauses (resumes) the
    heartbeat: each beat checks ``broker.alive``.

    Installs the broker's :class:`AdvertisementAck` handler; cancel the
    returned :class:`Heartbeat` to stop and remove it.
    """
    if interval <= 0:
        raise ValueError(f"heartbeat interval must be positive, got {interval}")
    lease = 3.0 * interval if ttl is None else ttl
    hb = Heartbeat(broker, tuple(bdn_endpoints), lease, region)
    broker.add_udp_handler(AdvertisementAck, hb._on_ack)
    hb._burst()
    runtime = broker.runtime
    hb._timers = [runtime.schedule(i * BURST_SPACING, hb._burst) for i in range(1, BURST)]
    hb._timers.append(runtime.call_every(interval, hb._beat))
    return hb


class Heartbeat:
    """Live state of one broker's registration heartbeat."""

    __slots__ = (
        "broker",
        "endpoints",
        "lease",
        "region",
        "leader",
        "acked",
        "cancelled",
        "rehomes",
        "_unacked",
        "_timers",
    )

    def __init__(
        self, broker: Broker, endpoints: tuple[Endpoint, ...], lease: float, region: str
    ) -> None:
        self.broker = broker
        self.endpoints = endpoints
        self.lease = lease
        self.region = region
        #: The endpoint renewed exclusively (None = every endpoint).
        self.leader: Endpoint | None = None
        #: Whether any BDN has acked (ends the startup burst).
        self.acked = False
        self.cancelled = False
        self.rehomes = 0
        self._unacked = 0
        self._timers: list = []

    def _send(self, endpoints) -> None:
        for endpoint in endpoints:
            advertise_direct(self.broker, endpoint, region=self.region, ttl=self.lease)

    def _burst(self) -> None:
        if self.broker.alive and not self.acked:
            self._send(self.endpoints)

    def _beat(self) -> None:
        if not self.broker.alive:
            return
        if self.leader is not None:
            self._unacked += 1
            if self._unacked > REHOME_MISSES:
                self.broker.emit("heartbeat_broadcast", misses=self._unacked - 1)
                self.leader = None
        self._send(self.endpoints if self.leader is None else (self.leader,))

    def _on_ack(self, ack: AdvertisementAck, src: Endpoint) -> None:
        if ack.broker_id != self.broker.name:
            return
        self.acked = True
        self._unacked = 0
        hinted = try_parse_endpoint(ack.leader_hint)
        if hinted is None or hinted not in self.endpoints or hinted == self.leader:
            return
        self.rehomes += 1
        self.leader = hinted
        self.broker.emit("heartbeat_rehomed", leader=str(hinted))
        # Renew with the new leader at once: a takeover mid-lease must
        # not cost a full interval of exposure.
        self._send((hinted,))

    def cancel(self) -> None:
        """Stop every beat still pending and remove the ack handler; idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        for timer in self._timers:
            timer.cancel()
        self._timers = []
        self.broker.remove_udp_handler(AdvertisementAck)


def enable_bdn_autoregistration(broker: Broker, region: str = "") -> None:
    """React to BDN announcements by (re-)advertising with the new BDN.

    Section 2.4: when a private BDN "advertise[s] its services to
    brokers within the broker network", "individual brokers may have
    the option to re-advertise their information at this newly added
    BDN".  Installing this handler opts the broker in: whenever a BDN
    announcement event arrives (an :class:`~repro.core.messages.Ack`
    whose ``acked_by`` encodes ``host:port``), the broker sends its
    advertisement straight to the announced endpoint.
    """

    def on_announce(event: Event, from_peer: str | None) -> None:
        if not broker.alive or not broker.config.advertise:
            return
        try:
            host, port_text = event.payload.decode().rsplit(":", 1)
            endpoint = Endpoint(host, int(port_text))
        except (ValueError, UnicodeDecodeError):
            broker.emit("bdn_announce_malformed", uuid=event.uuid)
            return
        advertise_direct(broker, endpoint, region=region)
        broker.emit("bdn_autoregistered", bdn=endpoint)

    broker.add_control_handler(BDN_ANNOUNCE_TOPIC, on_announce)


@dataclass(frozen=True, slots=True)
class StoredAdvertisement:
    """An advertisement plus BDN-side bookkeeping.

    ``expires_at`` is the lease deadline on the *BDN's* sim clock
    (receipt time + TTL; infinity for lease-less advertisements) --
    expiry is judged by the receiver so broker/BDN clock skew cannot
    prematurely kill a lease.
    """

    advertisement: BrokerAdvertisement
    received_at: float
    expires_at: float = math.inf

    @property
    def broker_id(self) -> str:
        return self.advertisement.broker_id

    @property
    def udp_endpoint(self) -> Endpoint:
        """Where the advertised broker receives datagrams."""
        port = self.advertisement.port_for("udp")
        return Endpoint(self.advertisement.hostname, port if port is not None else BROKER_UDP_PORT)

    def is_expired(self, now: float) -> bool:
        """Whether the lease has lapsed at time ``now``."""
        return now >= self.expires_at


class AdvertisementStore:
    """A BDN's table of registered brokers.

    Parameters
    ----------
    interest_regions:
        If non-empty, advertisements from other regions are ignored
        (the section 2.3 interest filter).
    """

    def __init__(self, interest_regions: frozenset[str] = frozenset()) -> None:
        self.interest_regions = interest_regions
        self._ads: dict[str, StoredAdvertisement] = {}
        self.ignored = 0
        self.leases_expired = 0
        # Sorted-key view, rebuilt lazily after any key-set change, so
        # the readers of all() -- injection="all" fan-out, lease sweeps,
        # replication digests -- do not pay an O(n log n) sort per call.
        self._sorted_ids: list[str] | None = None

    def __len__(self) -> int:
        return len(self._ads)

    def __contains__(self, broker_id: str) -> bool:
        return broker_id in self._ads

    def accept(self, ad: BrokerAdvertisement, now: float) -> bool:
        """Store ``ad`` unless the interest filter rejects it.

        Re-advertisement by the same broker replaces the prior entry
        (brokers "may have the option to re-advertise", section 2.4),
        which is also how a heartbeat renews a lease.  Returns True if
        stored.
        """
        if self.interest_regions and ad.region not in self.interest_regions:
            self.ignored += 1
            return False
        expires = now + ad.ttl if ad.ttl > 0 else math.inf
        if ad.broker_id not in self._ads:
            self._sorted_ids = None
        self._ads[ad.broker_id] = StoredAdvertisement(
            advertisement=ad, received_at=now, expires_at=expires
        )
        return True

    def accept_if_newer(self, ad: BrokerAdvertisement, now: float) -> bool:
        """Store ``ad`` only if it is another renewal whose lease outlives
        the current entry.

        The merge rule of replication and anti-entropy repair.  A renewal
        is named by its broker's stamp (``issued_at``, compared for
        equality only -- a broker's clock may step back once at NTP
        sync), and the renewal already held is never booked again, even
        lapsed: a second copy arrives one transit later and would only
        push the deadline out by that transit.  Between different
        renewals the newest lease wins, keyed by broker id: a delayed
        replica of an old heartbeat must never roll back a fresher
        renewal, and an expired or missing entry always loses.  Returns
        True if stored.
        """
        existing = self._ads.get(ad.broker_id)
        if existing is not None:
            if existing.advertisement.issued_at == ad.issued_at:
                return False
            incoming_expires = now + ad.ttl if ad.ttl > 0 else math.inf
            if existing.expires_at >= incoming_expires and not existing.is_expired(now):
                return False
        return self.accept(ad, now)

    def clear(self) -> None:
        """Forget every registration (a cold restart's empty table)."""
        self._ads.clear()
        self._sorted_ids = None

    def remove(self, broker_id: str) -> bool:
        """Drop a broker's registration (e.g. after repeated ping failures)."""
        if self._ads.pop(broker_id, None) is None:
            return False
        self._sorted_ids = None
        return True

    def get(self, broker_id: str) -> StoredAdvertisement | None:
        """Look up one registration (expired entries included until evicted)."""
        return self._ads.get(broker_id)

    def all(self, now: float | None = None) -> list[StoredAdvertisement]:
        """Stored advertisements, ordered by broker id.

        With ``now`` given, entries whose lease has lapsed are filtered
        out -- the read path every dissemination decision must use, so
        a stale broker is never handed to a requester even between
        eviction sweeps.
        """
        ids = self._sorted_ids
        if ids is None:
            ids = self._sorted_ids = sorted(self._ads)
        ads = self._ads
        if now is None:
            return [ads[k] for k in ids]
        return [ads[k] for k in ids if not ads[k].is_expired(now)]

    def broker_ids(self, now: float | None = None) -> list[str]:
        """Registered broker ids, sorted (lease-filtered when ``now`` given)."""
        return [s.broker_id for s in self.all(now)]

    def evict_expired(self, now: float) -> list[str]:
        """Remove every entry whose lease lapsed; returns the evicted ids."""
        expired = sorted(k for k, s in self._ads.items() if s.is_expired(now))
        for broker_id in expired:
            del self._ads[broker_id]
        if expired:
            self._sorted_ids = None
        self.leases_expired += len(expired)
        return expired
