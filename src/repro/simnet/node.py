"""Base class for protocol processes.

Brokers, BDNs and discovery clients all extend :class:`Node`.  A node
owns a host (registered with the runtime's transport), a drifting
clock, an NTP service, and a deterministic UUID generator.
Construction follows the paper's node-initialisation story: the NTP
service is started at node start and takes 3-5 seconds to compute
offsets.

Nodes are sans-IO: they speak only through the
:class:`repro.runtime.api.Runtime` surface, so the same node classes
run under the discrete-event simulator and under real asyncio sockets.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import Endpoint
from repro.core.errors import UnknownHostError
from repro.core.ids import IdGenerator
from repro.runtime.api import Runtime, as_runtime
from repro.simnet.clock import Clock, NTPService

__all__ = ["Node"]


class Node:
    """A protocol process bound to one host.

    Parameters
    ----------
    name:
        Unique human-readable node name (broker id, client id, ...).
    host:
        Hostname, already registered (or registered here) with the
        transport.
    network:
        The runtime this node communicates through -- a
        :class:`~repro.runtime.api.Runtime`, or a bare simulated
        :class:`~repro.simnet.network.Network` (adapted automatically).
    rng:
        Node-private randomness; derive one per node from the master
        seed so nodes are statistically independent but reproducible.
    site / realm:
        If ``host`` is not yet registered with the transport, it is
        registered with these values (``site`` required in that case).
    multicast_enabled:
        Forwarded to host registration.
    obs:
        Optional :class:`repro.obs.Observability`, the world's event
        sink: everything the node has to say goes through :meth:`emit`
        into it.  ``None`` (the default) keeps every emission site at a
        single ``is not None`` branch.  :attr:`observing` is whether
        the sink keeps causal events: only then does the node flag its
        wire messages, keep a flight ring and publish engine metrics.
    """

    def __init__(
        self,
        name: str,
        host: str,
        network: object,
        rng: np.random.Generator,
        site: str | None = None,
        realm: str | None = None,
        multicast_enabled: bool = True,
        obs=None,
    ) -> None:
        self.name = name
        self.host = host
        self.runtime: Runtime = as_runtime(network)
        self.rng = rng
        self.obs = obs
        self.observing = obs is not None and obs.observing
        if self.observing:
            obs.recorder(name)  # an idle node still shows its (empty) ring
        try:
            self.runtime.site_of(host)
        except UnknownHostError:
            if site is None:
                raise ValueError(
                    f"host {host!r} is not registered and no site was given"
                ) from None
            self.runtime.register_host(
                host, site, realm=realm, multicast_enabled=multicast_enabled
            )
        self.clock = Clock.random(self.runtime, rng)
        self.ntp = NTPService(self.runtime, self.clock, rng)
        self.ids = IdGenerator(np.random.default_rng(rng.integers(0, 2**63)))
        self._started = False

    @property
    def site(self) -> str:
        """The site this node's host belongs to."""
        return self.runtime.site_of(self.host)

    @property
    def realm(self) -> str:
        """The realm this node's host belongs to."""
        return self.runtime.realm_of(self.host)

    def endpoint(self, port: int) -> Endpoint:
        """An endpoint on this node's host."""
        return Endpoint(self.host, port)

    def utc(self) -> float:
        """NTP-corrected UTC timestamp from this node's clock."""
        return self.ntp.utc()

    def start(self) -> None:
        """Start the node: kicks off NTP synchronisation.

        Subclasses override to bind ports / open links, and must call
        ``super().start()``.  Idempotent.
        """
        if self._started:
            return
        self._started = True
        self.ntp.start()

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has run."""
        return self._started

    def emit(self, event: str, trace_id: str = "", hop: int = 0, **detail: object) -> None:
        """Say what happened, if anyone listens.

        An event about a traced request passes that request's trace id
        (and hop); the sink, if there is one, decides what is kept
        (:meth:`repro.obs.Observability.emit`).
        """
        if self.obs is not None:
            self.obs.emit(event, self.name, trace_id, hop, **detail)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} @ {self.host}>"
