"""One builder for a discovery world on any runtime, closed by one call
(docs/PROTOCOL.md "Worlds": who builds through it, the seeding rule and
what ``close()`` leaves)."""

from __future__ import annotations

import numpy as np

from repro.discovery.advertisement import advertise_direct
from repro.discovery.bdn import BDN
from repro.discovery.requester import DiscoveryClient
from repro.discovery.responder import DiscoveryResponder
from repro.substrate.broker import Broker
from repro.substrate.builder import BrokerNetwork

__all__ = ["World"]


class World:
    """BDNs, brokers with their responders, and clients on one runtime.

    ``runtime`` is a :class:`~repro.substrate.builder.BrokerNetwork`
    (its simulator and fabric; brokers are added and started through it)
    or any :class:`~repro.runtime.api.Runtime`.  Node generators are
    drawn in the order nodes are added from the network's master
    generator, or from ``default_rng(seed)`` for a world handed a
    runtime, unless ``rng=`` hands one in.  ``obs`` goes to every BDN
    and client, and to the brokers of a world handed a runtime; a
    ``BrokerNetwork``'s brokers speak into ``net.obs``.  The ``add_*``
    methods build; :meth:`start` starts what is built.
    """

    def __init__(self, runtime, seed: int = 0, obs=None) -> None:
        self.net = runtime if isinstance(runtime, BrokerNetwork) else None
        if self.net is not None:
            self.runtime, self._root = self.net.network, self.net.master_rng
        else:
            self.runtime, self._root = runtime, np.random.default_rng(seed)
        self.obs = obs
        self.bdns: list[BDN] = []
        self.brokers: list[Broker] = []
        self.responders: dict[str, DiscoveryResponder] = {}
        self.clients: list[DiscoveryClient] = []

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self._root.integers(0, 2**63))

    @property
    def sim(self):
        return self.runtime.sim

    @property
    def bdn(self) -> BDN | None:
        return self.bdns[0] if self.bdns else None

    @property
    def client(self) -> DiscoveryClient:
        return self.clients[0]

    def add_bdn(self, name: str, host: str, rng: np.random.Generator | None = None, **kw) -> BDN:
        """A BDN; ``kw`` are the node's own (``config``, ``site``, ``realm``)."""
        rng = self._rng() if rng is None else rng
        self.bdns.append(BDN(name, host, self.runtime, rng, obs=self.obs, **kw))
        return self.bdns[-1]

    def add_broker(
        self, name: str, host: str | None = None, site: str | None = None, **kw
    ) -> Broker:
        """A broker and its responder; ``host`` defaults to ``"<name>.<site>"``
        and ``kw`` are the node's own (``realm``, ``config``, ``multicast_enabled``)."""
        host = host if host is not None else f"{name}.{site}"
        if self.net is not None:
            broker = self.net.add_broker(name, site, host=host, **kw)
        else:
            broker = Broker(name, host, self.runtime, self._rng(), site=site, obs=self.obs, **kw)
        self.responders[name] = DiscoveryResponder(broker)
        self.brokers.append(broker)
        return broker

    def add_client(
        self, name: str, host: str, rng: np.random.Generator | None = None, **kw
    ) -> DiscoveryClient:
        """A client; ``kw`` are the node's own (``config``, ``site``, ``realm``)."""
        rng = self._rng() if rng is None else rng
        self.clients.append(DiscoveryClient(name, host, self.runtime, rng, obs=self.obs, **kw))
        return self.clients[-1]

    def nodes(self) -> tuple:
        return (*self.bdns, *self.brokers, *self.clients)

    def start(self) -> None:
        """Start every node built so far, BDNs first, then brokers, then clients."""
        for node in self.nodes():
            node.start()

    def advertise(self) -> None:
        """Register every broker directly with the first BDN."""
        for broker in self.brokers:
            advertise_direct(broker, self.bdn.udp_endpoint)

    def _stop(self) -> None:
        brokers = self.net.brokers.values() if self.net is not None else self.brokers
        for node in (*self.clients, *self.responders.values(), *brokers, *self.bdns):
            node.stop()

    def close(self) -> None:
        """Stop every client, responder (and heartbeat), broker and BDN.

        On the simulator, then fire what is left until nothing is
        pending: each cancelled ``call_every`` series' one queued tick,
        datagrams in flight and link retries that find their broker
        stopped.  With every node stopped that residue is finite (the
        simulator must hold no series of its own); a node a pending
        fault revives meanwhile is stopped again.
        """
        self._stop()
        sim = getattr(self.runtime, "sim", None)
        while sim is not None and sim.pending:
            sim.step()
            self._stop()
