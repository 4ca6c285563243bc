"""Runtime layer: one protocol core, pluggable schedulers/transports.

Engines import the contract from :mod:`repro.runtime.api`; worlds pick
an implementation -- :class:`~repro.runtime.sim.SimRuntime` for
deterministic discrete-event simulation or
:class:`~repro.runtime.aio.AioRuntime` for real asyncio sockets -- via
:func:`create_runtime` or by constructing one directly.
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
    (``sim=``, ``latency=``, ``loss=``, ...) and returns the shared
    adapter for that fabric; ``aio`` forwards to
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
        return as_runtime(network)
    if kind == "aio":
        from repro.runtime.aio import AioRuntime

        return AioRuntime(**kwargs)
    raise ValueError(f"unknown runtime kind {kind!r} (expected 'sim' or 'aio')")
