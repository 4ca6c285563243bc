"""Fault injection for the section 7 scenarios.

The paper claims the scheme "needs only 1 functioning BDN to work" and
"could work even if none of the BDNs within the system are functioning"
(multicast fallback, cached target set), and that it "sustains loss of
both the discovery requests ... and discovery responses".

:class:`FaultInjector` provides the levers the fault-tolerance tests,
the chaos harness and the ablation benchmarks pull: killing/reviving
BDNs and brokers at chosen times, request storms, loss storms (globally
or per link), cutting and healing individual links, and partitioning
the fabric into isolated groups.  It tells time and arms faults through
the :class:`~repro.runtime.api.Runtime` contract alone.  A fabric fault
opens a window in the runtime's :class:`~repro.runtime.hosts.Hosts`
fault table at its start and closes it at its end, so node faults,
request storms, cuts and partitions work on either runtime; injected
loss needs the simulated fabric, and a loss storm armed on another
runtime raises :class:`~repro.core.errors.TransportError` at the call.
Every call checks its host names when it is made, not when it fires.

Fault windows on one target overlap cleanly: a target stays faulted
while any window on it is open.  A node killed twice stays down until
both kills are revived, and that revive is cold if either was; a link
cut twice stays cut until both cuts heal; partitions open at once
intersect; the most recently started loss storm on a slot governs.
"""

from __future__ import annotations

from collections import Counter

from repro.core.config import Endpoint
from repro.core.errors import TransportError
from repro.core.messages import DiscoveryRequest
from repro.discovery.bdn import BDN
from repro.runtime.api import Runtime
from repro.simnet.loss import LossModel
from repro.substrate.broker import Broker

__all__ = ["FaultInjector"]

#: Source host and port of storm datagrams; the port is deliberately
#: never bound, so any acks/busies/responses the flood provokes vanish
#: like replies to a spoofed source address would.
_STORM_HOST = "storm.injector"
_STORM_PORT = 7999


class FaultInjector:
    """Schedules failures against a running runtime.

    Parameters
    ----------
    network:
        The runtime faults are armed on: a simulated
        :class:`~repro.simnet.network.Network` or an
        :class:`~repro.runtime.aio.AioRuntime`.
    """

    def __init__(self, network: Runtime) -> None:
        self.network = network
        self.injected: list[tuple[float, str, str]] = []
        # Open kill windows per node; a node recovers when its last
        # window closes.  Nodes in ``_cold`` come back cold: one of
        # their windows said so.  (Fabric windows live in network.hosts.)
        self._open: Counter = Counter()
        self._cold: set = set()
        # Monotone id for request-storm uuids (must never collide with a
        # real client's request uuids).
        self._storm_seq = 0

    def _log(self, kind: str, target: str) -> None:
        self.injected.append((self.network.now, kind, target))

    # ------------------------------------------------------------------
    # Node failures
    # ------------------------------------------------------------------
    def kill_bdn(self, bdn: BDN, at: float | None = None) -> None:
        """Stop a BDN now or at runtime time ``at``."""
        self._when(lambda: self._kill(bdn, "kill_bdn"), at)

    def revive_bdn(self, bdn: BDN, at: float | None = None, cold: bool = False) -> None:
        """Bring a stopped BDN back, warm or cold.

        The default (warm) restart keeps the advertisement store, like
        a process restart with a warm disk cache.  ``cold=True`` models
        a host replacement: :meth:`BDN.clear_registry` wipes the store,
        lease bookkeeping, liveness RTTs and the dedup cache before the
        node starts, so the registry must be repopulated by heartbeats
        -- or, in a replication group, by anti-entropy catch-up (the
        node refuses discovery requests with a leader hint until it has
        caught up).
        """
        self._when(lambda: self._revive(bdn, "revive_bdn", cold), at)

    def kill_broker(self, broker: Broker, at: float | None = None) -> None:
        """Stop a broker now or at runtime time ``at``."""
        self._when(lambda: self._kill(broker, "kill_broker"), at)

    def revive_broker(self, broker: Broker, at: float | None = None) -> None:
        """Bring a stopped broker back (subscriptions and persistent
        neighbour list survive; persistent links re-establish on their
        retry cadence)."""
        self._when(lambda: self._revive(broker, "revive_broker"), at)

    def _kill(self, node: BDN | Broker, kind: str) -> None:
        self._open[node] += 1
        node.stop()
        self._log(kind, node.name)

    def _revive(self, node: BDN | Broker, kind: str, cold: bool = False) -> None:
        if cold:
            self._cold.add(node)
        self._open[node] -= 1
        if self._open[node] > 0:
            return  # another kill window on it is still open
        del self._open[node]
        cold = node in self._cold
        self._cold.discard(node)
        if node.alive:
            return  # already back
        if cold:
            node.clear_registry()
            kind += "_cold"
        node.start()
        self._log(kind, node.name)

    # ------------------------------------------------------------------
    # Overload
    # ------------------------------------------------------------------
    def request_storm(
        self,
        target: Endpoint,
        rate: float,
        start: float,
        duration: float,
    ) -> int:
        """Flood ``target`` with discovery requests for a window.

        ``rate`` requests per (virtual) second, evenly spaced, each with
        a fresh uuid and incrementing attempt-0 so dedup offers no
        shelter.  The flood's requester endpoint is never bound, so
        whatever the target answers is charged to the fabric and then
        dropped -- the storm is pure offered load, the way a scripted
        client herd (or an attacker) looks from the receiving side.
        Returns the number of datagrams scheduled.
        """
        if rate <= 0:
            raise ValueError("rate must be positive")
        if duration <= 0:
            raise ValueError("duration must be positive")
        try:
            self.network.register_host(_STORM_HOST, site="storm-site", realm=None)
        except TransportError:
            pass  # already registered by an earlier storm
        src = Endpoint(_STORM_HOST, _STORM_PORT)
        n = int(rate * duration)
        for i in range(n):
            self._storm_seq += 1
            request = DiscoveryRequest(
                uuid=f"storm-{self._storm_seq}",
                requester_host=_STORM_HOST,
                requester_port=_STORM_PORT,
            )
            self.network.schedule_at(start + i / rate, self.network.send_udp, src, target, request)
        self.network.schedule_at(start, self._log, "request_storm_start", f"{target}@{rate:g}/s")
        self.network.schedule_at(start + duration, self._log, "request_storm_end", str(target))
        return n

    # ------------------------------------------------------------------
    # Loss storms
    # ------------------------------------------------------------------
    def loss_storm(self, model: LossModel, start: float, duration: float) -> None:
        """Lay ``model`` over the whole fabric for a window (see
        :meth:`_storm` for overlapping storms)."""
        self._storm(None, model, start, duration, "loss_storm", None)

    def link_loss_storm(
        self, host_a: str, host_b: str, model: LossModel, start: float, duration: float
    ) -> None:
        """Lay ``model`` over one link for a window; it governs there over
        any fabric-wide storm."""
        link = self.network.hosts.link(host_a, host_b)
        self._storm(link, model, start, duration, "link_loss_storm", f"{host_a}|{host_b}")

    def _storm(
        self, slot, model: LossModel, start: float, duration: float, kind: str, target
    ) -> None:
        """Arm one loss storm on ``slot`` (``None``: the whole fabric).

        While any storm on the slot is open the most recently started
        one governs; the fabric's own :attr:`~repro.simnet.network.Network.loss`
        is never overwritten, so nothing is captured or restored.  A log
        entry names the link, or for a global storm the model in force
        once the storm has started or ended.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if self.network.kind != "sim":
            raise TransportError(
                f"{kind} injects loss, which only the simulated fabric models "
                f"(a {self.network.kind} runtime's loss is real)"
            )
        hosts = self.network.hosts
        token = object()

        def begin() -> None:
            hosts.storm(slot, token, model)
            self._log(f"{kind}_start", target or type(model).__name__)

        def end() -> None:
            hosts.calm(slot, token)
            in_force = hosts.storm_loss(None)
            if in_force is None:
                in_force = self.network.loss
            self._log(f"{kind}_end", target or type(in_force).__name__)

        self.network.schedule_at(start, begin)
        self.network.schedule_at(start + duration, end)

    # ------------------------------------------------------------------
    # Link faults and partitions
    # ------------------------------------------------------------------
    def fail_link(self, host_a: str, host_b: str, at: float | None = None) -> None:
        """Cut the link between two hosts now or at time ``at``."""
        hosts = self.network.hosts
        link = hosts.link(host_a, host_b)

        def do() -> None:
            hosts.cut(link)
            self._log("fail_link", f"{host_a}|{host_b}")

        self._when(do, at)

    def heal_link(self, host_a: str, host_b: str, at: float | None = None) -> None:
        """Close one cut on a link; it heals when no cut on it is open."""
        hosts = self.network.hosts
        link = hosts.link(host_a, host_b)

        def do() -> None:
            if hosts.mend(link):
                self._log("heal_link", f"{host_a}|{host_b}")

        self._when(do, at)

    def partition(self, *groups, at: float | None = None) -> None:
        """Split the fabric into isolated host groups until :meth:`heal`
        is called with the same groups.

        Hosts in no group form one implicit group.  Partitions open at
        the same time intersect: two hosts can talk only if every open
        partition puts them on the same side.
        """
        hosts = self.network.hosts
        frozen = hosts.groups(groups)

        def do() -> None:
            hosts.partition(frozen)
            self._log("partition", ";".join(",".join(g) for g in frozen))

        self._when(do, at)

    def heal(self, *groups, at: float | None = None) -> None:
        """Dissolve the open partition with these groups (cut links and
        other partitions stay).  ValueError if no such partition is open."""
        hosts = self.network.hosts
        frozen = hosts.groups(groups)

        def do() -> None:
            hosts.heal(frozen)
            self._log("heal", "partition")

        self._when(do, at)

    def _when(self, fn, at: float | None) -> None:
        if at is None:
            fn()
        else:
            self.network.schedule_at(at, fn)
