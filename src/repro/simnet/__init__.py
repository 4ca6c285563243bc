"""Discrete-event network simulator.

This package substitutes for the paper's physical WAN testbed (Table 1).
It provides:

* :mod:`repro.simnet.simulator` -- the event loop: a priority queue of
  timestamped callbacks with deterministic FIFO tie-breaking.
* :mod:`repro.simnet.clock` -- per-node drifting clocks plus the NTP
  time service the paper relies on (offsets computed 3-5 s after start,
  residual error within 1-20 ms).
* :mod:`repro.simnet.latency` -- one-way delay models: a site-to-site
  latency matrix with jitter and a bandwidth term for message size.
* :mod:`repro.simnet.loss` -- packet loss models; UDP loss grows with
  router hop count, exactly the property the paper exploits ("if the
  responses were to traverse over multiple router hops the chances that
  the packets would be lost would be higher").
* :mod:`repro.simnet.network` -- the fabric, which is also the sim
  runtime: UDP datagrams, TCP-like reliable connections with setup
  cost, and realm-scoped multicast over a shared
  :class:`~repro.runtime.hosts.Hosts` table.
* :mod:`repro.simnet.node` -- base class for simulated processes
  (brokers, BDNs, clients).

Everything is driven by explicit ``numpy.random.Generator`` instances,
so a single master seed reproduces an entire experiment bit-for-bit.
"""

from repro.simnet.simulator import Simulator, ScheduledEvent
from repro.simnet.clock import Clock, NTPService
from repro.simnet.latency import LatencyModel, MatrixLatencyModel, UniformLatencyModel
from repro.simnet.loss import LossModel, NoLoss, UniformLoss, PerHopLoss
from repro.simnet.network import Network, Connection
from repro.simnet.node import Node

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "Clock",
    "NTPService",
    "LatencyModel",
    "MatrixLatencyModel",
    "UniformLatencyModel",
    "LossModel",
    "NoLoss",
    "UniformLoss",
    "PerHopLoss",
    "Network",
    "Connection",
    "Node",
]
