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
the :class:`~repro.runtime.api.Runtime` contract alone, so node faults
and request storms work on either runtime; loss storms, link cuts and
partitions change the simulated fabric's fault state.

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

#: Source port of storm datagrams; deliberately never bound, so any
#: acks/busies/responses the flood provokes vanish like replies to a
#: spoofed source address would.
_STORM_PORT = 7999


def _link(host_a: str, host_b: str) -> tuple[str, str]:
    """A link's key: its host pair in sorted order."""
    return (min(host_a, host_b), max(host_a, host_b))


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
        # Open kill and cut windows per target (a node, or a link's host
        # pair); the target recovers when its last window closes.  Nodes
        # in ``_cold`` come back cold: one of their windows said so.
        self._open: Counter = Counter()
        self._cold: set = set()
        # Open partitions, in onset order, each a tuple of host groups.
        self._partitions: list[tuple[tuple[str, ...], ...]] = []
        # Open loss storms per slot -- ``None`` for the global model, a
        # host pair for one link -- in onset order, with the model to
        # restore once the last one ends: {slot: (prior, {token: model})}.
        self._storms: dict[tuple[str, str] | None, tuple[LossModel | None, dict]] = {}
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
        if not self._closes_last(node):
            return  # another kill window on it is still open
        cold = node in self._cold
        self._cold.discard(node)
        if node.alive:
            return  # already back
        if cold:
            node.clear_registry()
            kind += "_cold"
        node.start()
        self._log(kind, node.name)

    def _closes_last(self, target) -> bool:
        """Close one open window on ``target``; whether none is left."""
        if self._open[target] > 1:
            self._open[target] -= 1
            return False
        del self._open[target]
        return True

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
            self.network.schedule_at(start + i / rate, self.network.send_udp, src, target, request)
        self.network.schedule_at(start, self._log, "request_storm_start", f"{target}@{rate:g}/s")
        self.network.schedule_at(start + duration, self._log, "request_storm_end", str(target))
        return n

    # ------------------------------------------------------------------
    # Loss storms
    # ------------------------------------------------------------------
    def loss_storm(self, model: LossModel, start: float, duration: float) -> None:
        """Apply ``model`` to the whole fabric for a window, then restore
        the prior model (see :meth:`_storm` for overlapping storms)."""
        self._storm(None, model, start, duration, "loss_storm", None)

    def link_loss_storm(
        self, host_a: str, host_b: str, model: LossModel, start: float, duration: float
    ) -> None:
        """Degrade one link for a window, then restore its prior override
        (or its absence)."""
        target = f"{host_a}|{host_b}"
        self._storm(_link(host_a, host_b), model, start, duration, "link_loss_storm", target)

    def _storm(
        self, slot, model: LossModel, start: float, duration: float, kind: str, target
    ) -> None:
        """Arm one loss storm on ``slot`` (``None``: the global model).

        The model to restore is captured when the slot's first storm
        *starts*, not when a storm is scheduled, so a storm composes
        with loss changes made before its window opens.  While any storm
        on the slot is open the most recently started one governs, and
        the prior model comes back only when the last one ends, so
        interleaved (non-nested) windows unwind correctly.  A log entry
        names the link, or for a global storm the model that took over.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        token = object()

        def begin() -> None:
            if slot not in self._storms:
                self._storms[slot] = (self._loss(slot), {})
            self._storms[slot][1][token] = model
            self._set_loss(slot, model)
            self._log(f"{kind}_start", target or type(model).__name__)

        def end() -> None:
            prior, open_storms = self._storms[slot]
            del open_storms[token]
            if open_storms:
                self._set_loss(slot, next(reversed(open_storms.values())))
            else:
                del self._storms[slot]
                self._set_loss(slot, prior)
            self._log(f"{kind}_end", target or type(self.network.loss).__name__)

        self.network.schedule_at(start, begin)
        self.network.schedule_at(start + duration, end)

    def _loss(self, slot) -> LossModel | None:
        return self.network.loss if slot is None else self.network.link_loss(*slot)

    def _set_loss(self, slot, model: LossModel | None) -> None:
        if slot is None:
            self.network.loss = model
        elif model is None:
            self.network.clear_link_loss(*slot)
        else:
            self.network.set_link_loss(*slot, model)

    # ------------------------------------------------------------------
    # Link faults and partitions
    # ------------------------------------------------------------------
    def fail_link(self, host_a: str, host_b: str, at: float | None = None) -> None:
        """Cut the link between two hosts now or at time ``at``."""

        def do() -> None:
            self._open[_link(host_a, host_b)] += 1
            self.network.fail_link(host_a, host_b)
            self._log("fail_link", f"{host_a}|{host_b}")

        self._when(do, at)

    def heal_link(self, host_a: str, host_b: str, at: float | None = None) -> None:
        """Close one cut on a link; it heals when no cut on it is open."""

        def do() -> None:
            if self._closes_last(_link(host_a, host_b)):
                self.network.heal_link(host_a, host_b)
                self._log("heal_link", f"{host_a}|{host_b}")

        self._when(do, at)

    def partition(self, *groups, at: float | None = None) -> None:
        """Split the fabric into isolated host groups until :meth:`heal`
        is called with the same groups.

        Hosts in no group form one implicit group.  Partitions open at
        the same time intersect: two hosts can talk only if every open
        partition puts them on the same side.
        """
        frozen = tuple(tuple(g) for g in groups)
        hosts = [h for g in frozen for h in g]
        if len(set(hosts)) != len(hosts):
            raise TransportError(f"a host appears in several groups of {frozen}")

        def do() -> None:
            self._partitions.append(frozen)
            self._enforce_partitions()
            self._log("partition", ";".join(",".join(g) for g in frozen))

        self._when(do, at)

    def heal(self, *groups, at: float | None = None) -> None:
        """Dissolve the open partition with these groups (cut links and
        other partitions stay).  ValueError if no such partition is open."""
        frozen = tuple(tuple(g) for g in groups)

        def do() -> None:
            self._partitions.remove(frozen)
            self._enforce_partitions()
            self._log("heal", "partition")

        self._when(do, at)

    def _enforce_partitions(self) -> None:
        """Install the intersection of the open partitions on the fabric:
        hosts share a group iff they share a side in every partition."""
        if not self._partitions:
            self.network.heal_partition()
            return
        sides = [{h: i for i, g in enumerate(p) for h in g} for p in self._partitions]
        groups: dict[tuple, list[str]] = {}
        for host in dict.fromkeys(h for side in sides for h in side):
            groups.setdefault(tuple(side.get(host) for side in sides), []).append(host)
        self.network.partition(*groups.values())

    def _when(self, fn, at: float | None) -> None:
        if at is None:
            fn()
        else:
            self.network.schedule_at(at, fn)
