"""The host table and realm-scoped multicast groups both runtimes share.

A host has a *site* (the simulated fabric's latency key) and a *realm*
(the multicast scope; defaults to the site).  A multicast reaches only
the group members in the sender's realm -- in the paper's testbed
"multicast was disabled for network traffic outside the lab" -- and a
host registered with ``multicast_enabled=False`` may neither join a
group nor send to one.

:class:`~repro.simnet.network.Network` and
:class:`~repro.runtime.aio.AioRuntime` each own one :class:`Hosts` and
bind its methods as their own.  Each keeps only what needs its socket
table: joining requires a UDP binding, unbinding calls
:meth:`Hosts.leave_all`, and ``multicast`` sends one datagram per
:meth:`Hosts.audience` member.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import Endpoint
from repro.core.errors import TransportError, UnknownHostError

__all__ = ["Host", "Hosts"]


@dataclass(frozen=True, slots=True)
class Host:
    site: str
    realm: str
    multicast_enabled: bool


class Hosts:
    """Host -> site/realm registry plus multicast group membership."""

    def __init__(self) -> None:
        self._hosts: dict[str, Host] = {}
        self._groups: dict[str, set[Endpoint]] = {}
        # Sorted in-realm members per (group, realm), dropped on any
        # membership change: a fan-out is resolved once, not per send.
        self._audience: dict[tuple[str, str], tuple[Endpoint, ...]] = {}

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
