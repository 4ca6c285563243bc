"""Runtime layer: one protocol core, pluggable schedulers/transports.

Engines import the contract from :mod:`repro.runtime.api`; worlds pick
an implementation -- a :class:`~repro.simnet.network.Network` (the
simulated fabric is its own runtime) for deterministic discrete-event
simulation or :class:`~repro.runtime.aio.AioRuntime` for real asyncio
sockets -- via :func:`create_runtime` or by constructing one directly.
Both keep their hosts and multicast groups in one
:class:`~repro.runtime.hosts.Hosts`.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.api import Handler, Link, Runtime, Scheduler, TimerHandle, Transport, as_runtime

__all__ = [
    "Handler",
    "Link",
    "Runtime",
    "Scheduler",
    "TimerHandle",
    "Transport",
    "as_runtime",
    "create_runtime",
]


def create_runtime(kind: str, **kwargs: Any) -> Runtime:
    """Build a runtime by configured kind (``"sim"`` or ``"aio"``).

    ``sim`` forwards ``kwargs`` to :class:`~repro.simnet.network.Network`
    (``sim=``, ``latency=``, ``loss=``, ...) and returns that fabric, or
    returns ``network=`` itself; ``aio`` forwards to
    :class:`~repro.runtime.aio.AioRuntime` (``bind_ip=``, ``port_plan=``).
    """
    if kind == "sim":
        network = kwargs.pop("network", None)
        if network is None:
            from repro.simnet.network import Network
            from repro.simnet.simulator import Simulator

            kwargs.setdefault("sim", Simulator())
            network = Network(**kwargs)
        elif kwargs:
            raise TypeError(f"unexpected arguments with explicit network: {sorted(kwargs)}")
        return network
    if kind == "aio":
        from repro.runtime.aio import AioRuntime

        return AioRuntime(**kwargs)
    raise ValueError(f"unknown runtime kind {kind!r} (expected 'sim' or 'aio')")
