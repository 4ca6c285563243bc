"""The host table, multicast groups and fault table both runtimes share.

A host has a *site* (the simulated fabric's latency key) and a *realm*
(the multicast scope; defaults to the site).  A multicast reaches only
the group members in the sender's realm -- in the paper's testbed
"multicast was disabled for network traffic outside the lab" -- and a
host registered with ``multicast_enabled=False`` may neither join a
group nor send to one.

The same table holds every open fabric fault window, once: a count of
open cuts per link (a sorted host pair); the open partitions, where two
hosts talk only if every one puts them on the same side (hosts in no
group share an implicit one); and loss storms per slot (``None``: the
whole fabric, or one link), where the latest open storm governs.
:meth:`Hosts.reachable` answers "is this host pair cut off now?".

:class:`~repro.simnet.network.Network` and
:class:`~repro.runtime.aio.AioRuntime` each own one :class:`Hosts` and
bind its methods as their own.  Each keeps only what needs its socket
table: joining requires a UDP binding, unbinding calls
:meth:`Hosts.leave_all`, ``multicast`` sends one datagram per
:meth:`Hosts.audience` member, and ``send_udp`` drops a datagram across
a cut or a partition.  Only the fabric passes ``on_fault`` (it drops its
path cache and severs connections across a cut) and reads storms.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.config import Endpoint
from repro.core.errors import TransportError, UnknownHostError

if TYPE_CHECKING:
    from repro.simnet.loss import LossModel

Link = tuple[str, str]
Groups = tuple[tuple[str, ...], ...]

__all__ = ["Host", "Hosts"]


@dataclass(frozen=True, slots=True)
class Host:
    site: str
    realm: str
    multicast_enabled: bool


class Hosts:
    """Host -> site/realm registry, multicast group membership, fault table."""

    def __init__(self, on_fault: Callable[[], None] | None = None) -> None:
        self._hosts: dict[str, Host] = {}
        self._groups: dict[str, set[Endpoint]] = {}
        # Sorted in-realm members per (group, realm), dropped on any
        # membership change: a fan-out is resolved once, not per send.
        self._audience: dict[tuple[str, str], tuple[Endpoint, ...]] = {}
        # The fault table: open cuts per link, open partitions in onset
        # order (each its groups and host -> side), open loss storms per
        # slot in onset order ({slot: {token: model}}).
        self._cuts: Counter[Link] = Counter()
        self._partitions: list[tuple[Groups, dict[str, int]]] = []
        self._storms: dict[Link | None, dict[object, LossModel]] = {}
        self._on_fault = on_fault
        #: Whether a cut or a partition is open (storms do not count): a
        #: runtime with no path cache asks :meth:`reachable` only then.
        self.split = False

    def register(
        self,
        host: str,
        site: str,
        realm: str | None = None,
        multicast_enabled: bool = True,
    ) -> None:
        """Attach ``host`` to ``site`` and ``realm`` (default: the site)."""
        if host in self._hosts:
            raise TransportError(f"host {host!r} already registered")
        self._hosts[host] = Host(site, realm if realm is not None else site, multicast_enabled)

    def info(self, host: str) -> Host:
        """The registration of ``host``; raises :class:`UnknownHostError`."""
        info = self._hosts.get(host)
        if info is None:
            raise UnknownHostError(f"unknown host {host!r}")
        return info

    def site_of(self, host: str) -> str:
        """Site a host was registered with."""
        return self.info(host).site

    def realm_of(self, host: str) -> str:
        """Multicast/security realm a host was registered with."""
        return self.info(host).realm

    def multicast_enabled(self, host: str) -> bool:
        """Whether ``host`` may use multicast at all."""
        return self.info(host).multicast_enabled

    def _capable(self, host: str) -> Host:
        info = self.info(host)
        if not info.multicast_enabled:
            raise TransportError(f"multicast disabled on host {host!r}")
        return info

    def join(self, group: str, endpoint: Endpoint) -> None:
        """Add ``endpoint`` to ``group``; its host must be multicast-enabled."""
        self._capable(endpoint.host)
        self._groups.setdefault(group, set()).add(endpoint)
        self._audience.clear()

    def leave(self, group: str, endpoint: Endpoint) -> None:
        """Remove ``endpoint`` from ``group`` (idempotent)."""
        members = self._groups.get(group)
        if members is not None and endpoint in members:
            members.remove(endpoint)
            self._audience.clear()

    def leave_all(self, endpoint: Endpoint) -> None:
        """Remove ``endpoint`` from every group (idempotent)."""
        for group in self._groups:
            self.leave(group, endpoint)

    def members(self, group: str) -> frozenset[Endpoint]:
        """Current members of ``group`` (all realms)."""
        return frozenset(self._groups.get(group, ()))

    def audience(self, src: Endpoint, group: str) -> tuple[Endpoint, ...]:
        """Sorted members of ``group`` in the sender's realm, sender included
        (raises :class:`TransportError` if ``src`` may not multicast)."""
        realm = self._capable(src.host).realm
        key = (group, realm)
        members = self._audience.get(key)
        if members is None:
            members = self._audience[key] = tuple(
                m for m in sorted(self._groups.get(group, ())) if self._hosts[m.host].realm == realm
            )
        return members

    # ------------------------------------------------------------------
    # Fault table
    # ------------------------------------------------------------------
    def link(self, host_a: str, host_b: str) -> Link:
        """A link's key: two registered hosts, in sorted order."""
        self.info(host_a)
        self.info(host_b)
        return (host_a, host_b) if host_a <= host_b else (host_b, host_a)

    def groups(self, groups: Iterable[Iterable[str]]) -> Groups:
        """``groups`` as a partition's key: registered hosts, each in one group."""
        frozen = tuple(tuple(group) for group in groups)
        hosts = [host for group in frozen for host in group]
        for host in hosts:
            self.info(host)
        if len(set(hosts)) != len(hosts):
            raise TransportError(f"a host appears in several groups of {frozen}")
        return frozen

    def reachable(self, host_a: str, host_b: str) -> bool:
        """Whether traffic passes between two hosts: no cut is open on
        their link and every open partition puts them on one side.  A
        host always reaches itself; loss does not affect reachability."""
        link = self.link(host_a, host_b)
        if host_a == host_b:
            return True
        if link in self._cuts:
            return False
        return all(side.get(host_a) == side.get(host_b) for _, side in self._partitions)

    def cut(self, link: Link) -> None:
        """Open one cut window on ``link`` (a key from :meth:`link`)."""
        self._cuts[link] += 1
        self._changed()

    def mend(self, link: Link) -> bool:
        """Close one cut window on ``link``; whether none is left open."""
        if self._cuts[link] > 1:
            self._cuts[link] -= 1
            return False
        del self._cuts[link]
        self._changed()
        return True

    def partition(self, groups: Groups) -> None:
        """Open a partition (``groups`` from :meth:`groups`)."""
        self._partitions.append((groups, {h: i for i, group in enumerate(groups) for h in group}))
        self._changed()

    def heal(self, groups: Groups) -> None:
        """Close the earliest open partition with these groups (cuts and
        other partitions stay); ValueError if none is open."""
        for index, (open_groups, _side) in enumerate(self._partitions):
            if open_groups == groups:
                del self._partitions[index]
                self._changed()
                return
        raise ValueError(f"no open partition has the groups {groups}")

    def storm(self, slot: Link | None, token: object, model: LossModel) -> None:
        """Open the loss storm ``token`` on ``slot`` (``None``: every link)."""
        self._storms.setdefault(slot, {})[token] = model
        self._changed()

    def calm(self, slot: Link | None, token: object) -> None:
        """Close the loss storm ``token`` on ``slot``."""
        open_storms = self._storms[slot]
        del open_storms[token]
        if not open_storms:
            del self._storms[slot]
        self._changed()

    def storm_loss(self, slot: Link | None) -> LossModel | None:
        """The model of the most recently started open storm on ``slot``."""
        open_storms = self._storms.get(slot)
        return next(reversed(open_storms.values())) if open_storms else None

    def _changed(self) -> None:
        self.split = bool(self._cuts or self._partitions)
        if self._on_fault is not None:
            self._on_fault()
