"""Fault injection for the section 7 scenarios.

The paper claims the scheme "needs only 1 functioning BDN to work" and
"could work even if none of the BDNs within the system are functioning"
(multicast fallback, cached target set), and that it "sustains loss of
both the discovery requests ... and discovery responses".

:class:`FaultInjector` provides the levers the fault-tolerance tests,
the chaos harness and the ablation benchmarks pull: killing/reviving
BDNs and brokers at chosen times, swapping the network's loss model
mid-run (loss storms, globally or per link), cutting and healing
individual links, and partitioning the fabric into isolated groups.
"""

from __future__ import annotations

from repro.core.config import Endpoint
from repro.core.errors import TransportError
from repro.core.messages import DiscoveryRequest
from repro.simnet.loss import LossModel
from repro.simnet.network import Network
from repro.discovery.bdn import BDN
from repro.substrate.broker import Broker

__all__ = ["FaultInjector"]

#: Source port of storm datagrams; deliberately never bound, so any
#: acks/busies/responses the flood provokes vanish like replies to a
#: spoofed source address would.
_STORM_PORT = 7999


class FaultInjector:
    """Schedules failures against a running simulation.

    Parameters
    ----------
    network:
        The fabric whose loss model may be swapped.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.injected: list[tuple[float, str, str]] = []
        # Active global loss storms, in onset order, plus the model to
        # restore once the last one ends.  Keyed bookkeeping (not a
        # save/restore pair per storm) so overlapping storms that are
        # not strictly nested still unwind to the right model.
        self._storms: list[list] = []
        self._pre_storm_loss: LossModel | None = None
        # Same per link: {link pair: (active storm entries, prior override)}.
        self._link_storms: dict[tuple[str, str], list[list]] = {}
        self._pre_storm_link_loss: dict[tuple[str, str], LossModel | None] = {}
        # Monotone id for request-storm uuids (must never collide with a
        # real client's request uuids).
        self._storm_seq = 0

    def _log(self, kind: str, target: str) -> None:
        self.injected.append((self.network.sim.now, kind, target))

    # ------------------------------------------------------------------
    # Node failures
    # ------------------------------------------------------------------
    def kill_bdn(self, bdn: BDN, at: float | None = None) -> None:
        """Stop a BDN now or at virtual time ``at``."""

        def do() -> None:
            bdn.stop()
            self._log("kill_bdn", bdn.name)

        self._when(do, at)

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

        def do() -> None:
            if bdn.alive:
                return  # overlapping kill/revive windows; already back
            if cold:
                bdn.clear_registry()
            bdn.start()
            self._log("revive_bdn_cold" if cold else "revive_bdn", bdn.name)

        self._when(do, at)

    def kill_broker(self, broker: Broker, at: float | None = None) -> None:
        """Stop a broker now or at virtual time ``at``."""

        def do() -> None:
            broker.stop()
            self._log("kill_broker", broker.name)

        self._when(do, at)

    def revive_broker(self, broker: Broker, at: float | None = None) -> None:
        """Bring a stopped broker back (subscriptions and persistent
        neighbour list survive; persistent links re-establish on their
        retry cadence)."""

        def do() -> None:
            if broker.alive:
                return  # overlapping kill/revive windows; already back
            broker.start()
            self._log("revive_broker", broker.name)

        self._when(do, at)

    # ------------------------------------------------------------------
    # Overload
    # ------------------------------------------------------------------
    def request_storm(
        self,
        target: Endpoint,
        rate: float,
        start: float,
        duration: float,
        source_host: str = "storm.injector",
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
            self.network.register_host(source_host, site="storm-site", realm=None)
        except TransportError:
            pass  # already registered by an earlier storm
        src = Endpoint(source_host, _STORM_PORT)
        n = int(rate * duration)
        for i in range(n):
            self._storm_seq += 1
            request = DiscoveryRequest(
                uuid=f"storm-{self._storm_seq}",
                requester_host=source_host,
                requester_port=_STORM_PORT,
            )
            self.network.sim.schedule_at(
                start + i / rate, self.network.send_udp, src, target, request
            )
        self.network.sim.schedule_at(
            start, self._log, "request_storm_start", f"{target}@{rate:g}/s"
        )
        self.network.sim.schedule_at(
            start + duration, self._log, "request_storm_end", str(target)
        )
        return n

    # ------------------------------------------------------------------
    # Network degradation
    # ------------------------------------------------------------------
    def set_loss(self, model: LossModel, at: float | None = None) -> None:
        """Swap the fabric's datagram loss model."""

        def do() -> None:
            self.network.loss = model
            self._log("set_loss", type(model).__name__)

        self._when(do, at)

    def loss_storm(self, model: LossModel, start: float, duration: float) -> None:
        """Apply ``model`` for a window, then restore the prior model.

        The model to restore is captured when the first storm *starts*,
        not when a storm is scheduled, so a storm composes with loss
        changes made before its window opens.  Overlapping storms are
        tracked as a set: while any storm is active the most recently
        started one governs, and only when the last one ends does the
        pre-storm model come back -- interleaved (non-nested) windows
        unwind correctly instead of resurrecting an ended storm.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        entry = [model]  # unique identity token for this storm

        def begin() -> None:
            if not self._storms:
                self._pre_storm_loss = self.network.loss
            self._storms.append(entry)
            self.network.loss = model
            self._log("loss_storm_start", type(model).__name__)

        def end() -> None:
            self._storms.remove(entry)
            if self._storms:
                self.network.loss = self._storms[-1][0]
            else:
                self.network.loss = self._pre_storm_loss
                self._pre_storm_loss = None
            self._log("loss_storm_end", type(self.network.loss).__name__)

        self._when(begin, at=start)
        self._when(end, at=start + duration)

    # ------------------------------------------------------------------
    # Link faults and partitions
    # ------------------------------------------------------------------
    def fail_link(self, host_a: str, host_b: str, at: float | None = None) -> None:
        """Cut the link between two hosts now or at time ``at``."""

        def do() -> None:
            self.network.fail_link(host_a, host_b)
            self._log("fail_link", f"{host_a}|{host_b}")

        self._when(do, at)

    def heal_link(self, host_a: str, host_b: str, at: float | None = None) -> None:
        """Restore a previously cut link."""

        def do() -> None:
            self.network.heal_link(host_a, host_b)
            self._log("heal_link", f"{host_a}|{host_b}")

        self._when(do, at)

    def partition(self, *groups, at: float | None = None) -> None:
        """Split the fabric into isolated host groups (replaces any
        existing partition)."""
        frozen = [list(g) for g in groups]

        def do() -> None:
            self.network.partition(*frozen)
            self._log("partition", ";".join(",".join(g) for g in frozen))

        self._when(do, at)

    def heal(self, at: float | None = None) -> None:
        """Dissolve the current partition (cut links stay cut)."""

        def do() -> None:
            self.network.heal_partition()
            self._log("heal", "partition")

        self._when(do, at)

    def set_link_loss(
        self, host_a: str, host_b: str, model: LossModel, at: float | None = None
    ) -> None:
        """Override the loss model on one link."""

        def do() -> None:
            self.network.set_link_loss(host_a, host_b, model)
            self._log("set_link_loss", f"{host_a}|{host_b}")

        self._when(do, at)

    def clear_link_loss(self, host_a: str, host_b: str, at: float | None = None) -> None:
        """Remove a per-link loss override."""

        def do() -> None:
            self.network.clear_link_loss(host_a, host_b)
            self._log("clear_link_loss", f"{host_a}|{host_b}")

        self._when(do, at)

    def link_loss_storm(
        self, host_a: str, host_b: str, model: LossModel, start: float, duration: float
    ) -> None:
        """Degrade one link for a window, then restore its prior state.

        Overlapping storms on the same link are tracked like global
        storms: the most recently started active one governs, and the
        pre-storm override (or its absence) comes back only when the
        last storm on that link ends.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        key = (min(host_a, host_b), max(host_a, host_b))
        entry = [model]

        def begin() -> None:
            active = self._link_storms.setdefault(key, [])
            if not active:
                self._pre_storm_link_loss[key] = self.network.link_loss(host_a, host_b)
            active.append(entry)
            self.network.set_link_loss(host_a, host_b, model)
            self._log("link_loss_storm_start", f"{host_a}|{host_b}")

        def end() -> None:
            active = self._link_storms[key]
            active.remove(entry)
            if active:
                self.network.set_link_loss(host_a, host_b, active[-1][0])
            else:
                previous = self._pre_storm_link_loss.pop(key)
                if previous is None:
                    self.network.clear_link_loss(host_a, host_b)
                else:
                    self.network.set_link_loss(host_a, host_b, previous)
            self._log("link_loss_storm_end", f"{host_a}|{host_b}")

        self._when(begin, at=start)
        self._when(end, at=start + duration)

    def _when(self, fn, at: float | None) -> None:
        if at is None:
            fn()
        else:
            self.network.sim.schedule_at(at, fn)
