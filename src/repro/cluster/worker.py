"""One cluster worker process: ``python -m repro.cluster.worker``.

Each worker boots exactly one tier role from a shared
:class:`~repro.cluster.spec.ClusterSpec`:

* ``bdn:<j>`` -- one member of the replicated BDN group (``--cold``
  restarts with a cleared registry, forcing the catch-up protocol);
* ``broker:<i>`` -- a broker + :class:`DiscoveryResponder` maintaining a
  registration heartbeat with the BDN tier (homed on its leader);
* ``load`` -- every discovery client, replaying its seeded schedule.

Workers dial the coordinator's TCP control port, announce ``ready``,
then obey newline-delimited JSON commands (``start_load``, ``storm``,
``drain``, ``stop``).  **SIGTERM is a graceful drain**: a broker stops
accepting new requests, finishes in-flight responses, withdraws its BDN
registration, and exits 0 -- the lifecycle the rolling-restart fault
injector and the drain tests rely on.

Every :data:`TELEMETRY_INTERVAL` seconds the worker sends a
``telemetry`` frame up the control channel: its whole registry
snapshot, a ``wall_offset`` that rebases its clock onto the shared wall
clock, and its role's record (:meth:`Worker.record`: the counters,
queue keys and leadership intervals both verdicts read).  Nothing comes
back for a frame: the next one replaces it.  After its drain the worker
sends one last frame marked ``"final": true``, which is its exit
report: it adds the flight-recorder rings, the recorded load rounds,
transport errors, datagram counters, ``pid``, ``cold`` and, with
``spec.profiled(role)``, the
:class:`~repro.obs.profiling.SamplingProfiler`'s collapsed stacks.
SIGKILL is the crash path: no final frame, which the coordinator
records as a lost report.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time

import numpy as np

from repro.cluster.report import round_record
from repro.cluster.spec import (
    BROKER_HEARTBEAT,
    BROKER_LEASE_TTL,
    DRAIN_DEADLINE,
    ClusterSpec,
)
from repro.core.invariants import bdn_evidence, failed, queue_record, recorded
from repro.core.messages import DiscoveryRequest
from repro.discovery.bdn import BDN
from repro.discovery.requester import CLIENT_UDP_PORT, DiscoveryClient
from repro.discovery.responder import DiscoveryResponder
from repro.obs import Observability
from repro.obs.export import telemetry_snapshot
from repro.obs.profiling import SamplingProfiler
from repro.runtime.aio import AioRuntime
from repro.substrate.broker import Broker

__all__ = ["main"]

_POLL = 0.02

#: Seconds between two streamed telemetry frames.
TELEMETRY_INTERVAL = 1.0


class Worker:
    def __init__(
        self,
        spec: ClusterSpec,
        role: str,
        cold: bool,
        incarnation: int = 0,
    ) -> None:
        self.spec = spec
        self.role = role
        self.cold = cold
        self.incarnation = incarnation
        self.kind, _, index_text = role.partition(":")
        self.index = int(index_text) if index_text else 0
        self.rt = AioRuntime(bind_ip=spec.bind_ip, port_plan=spec.port_plan(role))
        self.obs = Observability.for_runtime(self.rt)
        self.rt.attach_observability(self.obs)
        spec.register_hosts(self.rt)
        spec.apply_mappings(self.rt)
        # str hash() is salted per process; index into the fixed role
        # list instead so reruns draw identical node randomness.
        root = np.random.default_rng(spec.seed * 7919 + spec.roles().index(role))
        self.rng = lambda: np.random.default_rng(root.integers(0, 2**63))
        self.bdn: BDN | None = None
        self.broker: Broker | None = None
        self.responder: DiscoveryResponder | None = None
        self.clients: list[DiscoveryClient] = []
        self.rounds: list[dict] = []
        self.aborted_rounds = 0
        self.storm_factor = 1.0
        self.surge_sent = 0
        self.surge_task: asyncio.Task | None = None
        self.drain_requested = asyncio.Event()
        self.load_tasks: list[asyncio.Task] = []
        self.writer: asyncio.StreamWriter | None = None
        self.telemetry_task: asyncio.Task | None = None
        self.profiler: SamplingProfiler | None = (
            SamplingProfiler(rate_hz=spec.profile_rate) if spec.profiled(role) else None
        )

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------
    def boot(self) -> None:
        spec = self.spec
        if self.kind == "bdn":
            self.bdn = BDN(
                spec.bdn_name(self.index),
                spec.bdn_host(self.index),
                self.rt,
                self.rng(),
                config=spec.bdn_config(),
                obs=self.obs,
            )
            if self.cold:
                self.bdn.clear_registry()
            self.bdn.start()
        elif self.kind == "broker":
            self.broker = Broker(
                spec.broker_name(self.index),
                spec.broker_host(self.index),
                self.rt,
                self.rng(),
                obs=self.obs,
            )
            self.responder = DiscoveryResponder(self.broker)
            self.broker.start()
            self.responder.attach_heartbeat(
                spec.bdn_endpoints(),
                interval=BROKER_HEARTBEAT,
                ttl=BROKER_LEASE_TTL,
            )
        elif self.kind == "load":
            for k in range(spec.n_clients):
                client = DiscoveryClient(
                    spec.client_name(k),
                    spec.client_host(k),
                    self.rt,
                    self.rng(),
                    config=spec.client_config(),
                    obs=self.obs,
                )
                client.start()
                self.clients.append(client)
        else:
            raise ValueError(f"unknown role {self.role!r}")

    def nodes(self):
        return [n for n in (self.bdn, self.broker, *self.clients) if n is not None]

    # ------------------------------------------------------------------
    # Load generation
    # ------------------------------------------------------------------
    async def _run_client(self, k: int) -> None:
        client = self.clients[k]
        schedule = self.spec.client_schedule(k)
        for round_index, gap in enumerate(schedule):
            if self.drain_requested.is_set():
                self.aborted_rounds += len(schedule) - round_index
                return
            await asyncio.sleep(gap / max(self.storm_factor, 1e-9))
            future: asyncio.Future = asyncio.get_event_loop().create_future()

            def complete(outcome, future=future):
                if not future.done():
                    future.set_result(outcome)

            started_at = self.rt.now
            client.discover(complete)
            outcome = await future
            aborted = self.drain_requested.is_set() and not outcome.success
            record = round_record(client.name, round_index, outcome, aborted)
            self.rounds.append({**record, "started_at": started_at})

    async def start_load(self) -> None:
        loop = asyncio.get_event_loop()
        self.load_tasks = [
            loop.create_task(self._run_client(k)) for k in range(len(self.clients))
        ]

        async def report_done() -> None:
            await asyncio.gather(*self.load_tasks, return_exceptions=True)
            await self.send(
                {
                    "type": "load_done",
                    "rounds": len(recorded(self.rounds)),
                    "failures": len(failed(self.rounds)),
                    "aborted": self.aborted_rounds,
                }
            )

        loop.create_task(report_done())

    def storm(self, factor: float, duration: float) -> None:
        self.storm_factor = max(1.0, float(factor))

        def calm() -> None:
            self.storm_factor = 1.0

        self.rt.schedule(float(duration), calm)
        if self.clients and (self.surge_task is None or self.surge_task.done()):
            self.surge_task = asyncio.get_event_loop().create_task(
                self._storm_surge(self.storm_factor, float(duration))
            )

    async def _storm_surge(self, factor: float, duration: float) -> None:
        """Open-loop request surge: raw discovery requests at the BDN tier.

        The schedule clients are closed-loop -- each awaits its outcome
        before the next round, so dividing their gaps can never push a
        BDN ingress queue past capacity.  A storm therefore also fires
        the offered rate the schedule *implies*
        (``factor x clients / mean_gap``) as fire-and-forget datagrams
        no client waits on: admission control sheds the excess politely,
        and with admission disabled this is exactly the queue-overflow
        drill the SLO monitor must catch mid-run.  Responses come back
        to the first client's endpoint with unknown UUIDs and are
        counted as late there.
        """
        client = self.clients[0]
        credentials = self.spec.client_config().credentials
        rate = factor * len(self.clients) / max(self.spec.mean_gap, 1e-6)
        tick = 0.02
        bdns = self.spec.bdn_endpoints()
        end = self.rt.now + duration
        carry = 0.0
        while self.rt.now < end and not self.drain_requested.is_set():
            await asyncio.sleep(tick)
            carry += rate * tick
            burst, carry = int(carry), carry - int(carry)
            for _ in range(burst):
                request = DiscoveryRequest(
                    uuid=f"storm:{self.incarnation}:{self.surge_sent}",
                    requester_host=client.host,
                    requester_port=CLIENT_UDP_PORT,
                    credentials=credentials,
                    realm=client.realm,
                    issued_at=client.utc(),
                )
                for bdn in bdns:
                    self.rt.send_udp(client.udp_endpoint, bdn, request)
                self.surge_sent += 1

    # ------------------------------------------------------------------
    # Streaming telemetry
    # ------------------------------------------------------------------
    def record(self) -> dict:
        """This role's record: what every frame carries and both verdicts read."""
        # Every handler failure the runtime caught, evicted ones included.
        stats: dict = {"handler_errors": len(self.rt.errors) + self.rt.errors_dropped}
        if self.bdn is not None:
            bdn = self.bdn
            stats.update(
                name=bdn.name,
                requests_received=bdn.requests_received,
                requests_shed=bdn.requests_shed,
                requests_refused_catchup=bdn.requests_refused_catchup,
                stale_targets=bdn.stale_targets,
                intervals=[list(row) for row in (
                    bdn.replication.leadership_intervals if bdn.replication else []
                )],
                # No ingress queue means no queue keys, not healthy zeros:
                # the exit verdict and the monitor both flag their absence.
                **queue_record(bdn_evidence([bdn]).queues[bdn.name]),
            )
        if self.responder is not None:
            stats.update(
                name=self.broker.name,
                requests_processed=self.responder.requests_processed,
                responses_sent=self.responder.responses_sent,
                responses_suppressed=self.responder.responses_suppressed,
                pending_responses=self.responder.pending_responses,
                withdrawals_sent=self.responder.withdrawals_sent,
            )
        if self.clients:
            breakers: dict[str, str] = {}
            for client in self.clients:
                for bdn, state in client.breaker_states().items():
                    breakers[f"{client.name}:{bdn}"] = state
            stats.update(
                rounds=len(recorded(self.rounds)),
                failures=len(failed(self.rounds)),
                aborted=self.aborted_rounds,
                surge_sent=self.surge_sent,
                breaker_states=breakers,
                clients={
                    c.name: {
                        "busy_received": c.busy_received,
                        "retries_denied": c.retries_denied,
                        "bdn_skips": c.bdn_skips,
                        "breaker_trips": c.breaker_trips,
                        "leader_hint_updates": c.leader_hint_updates,
                    }
                    for c in self.clients
                },
            )
        return stats

    async def send_telemetry(self, final: bool = False) -> None:
        """One frame: the whole registry snapshot plus this role's record.

        The ``final`` frame, sent once after the drain, is the exit
        report: it adds what only an exit needs.
        """
        frame = {
            "type": "telemetry",
            "role": self.role,
            "incarnation": self.incarnation,
            "now": self.rt.now,
            "wall_offset": time.time() - self.rt.now,
            "metrics": self.obs.registry.snapshot(),
            "stats": self.record(),
        }
        if final:
            frame.update(
                final=True,
                pid=os.getpid(),
                cold=self.cold,
                rings=telemetry_snapshot(self.obs)["rings"],
                rounds=self.rounds,
                errors=list(self.rt.errors),
                errors_dropped=self.rt.errors_dropped,
                datagrams={
                    "sent": self.rt.datagrams_sent,
                    "delivered": self.rt.datagrams_delivered,
                    "dropped": self.rt.datagrams_dropped,
                },
            )
            if self.profiler is not None:
                frame["profile"] = self.profiler.report()
        await self.send(frame)

    async def telemetry_loop(self) -> None:
        while not self.drain_requested.is_set():
            await asyncio.sleep(TELEMETRY_INTERVAL)
            if self.drain_requested.is_set():
                return
            await self.send_telemetry()

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Graceful exit: finish in-flight work, withdraw, stop."""
        if self.drain_requested.is_set():
            return
        self.drain_requested.set()
        if self.telemetry_task is not None:
            self.telemetry_task.cancel()
            self.telemetry_task = None
        if self.surge_task is not None:
            self.surge_task.cancel()
            self.surge_task = None
        if self.profiler is not None:
            self.profiler.stop()
        deadline = self.rt.now + DRAIN_DEADLINE
        if self.responder is not None:
            self.responder.drain(withdraw_endpoints=self.spec.bdn_endpoints())
            while self.responder.pending_responses and self.rt.now < deadline:
                await asyncio.sleep(_POLL)
            self.responder.stop()
        if self.broker is not None:
            self.broker.stop()
        if self.bdn is not None:
            self.bdn.stop()  # steps down if leader: the successor can win now
        if self.load_tasks:
            await asyncio.wait(self.load_tasks, timeout=DRAIN_DEADLINE)
            for task in self.load_tasks:
                task.cancel()
        for client in self.clients:
            client.stop()

    # ------------------------------------------------------------------
    # Control channel
    # ------------------------------------------------------------------
    async def send(self, message: dict) -> None:
        if self.writer is None:
            return
        try:
            self.writer.write((json.dumps(message) + "\n").encode("utf-8"))
            await self.writer.drain()
        except (ConnectionError, OSError):  # coordinator gone: keep draining
            self.writer = None

    async def control_loop(self, reader: asyncio.StreamReader, stop: asyncio.Event) -> None:
        while not stop.is_set():
            try:
                line = await reader.readline()
            except (ConnectionError, OSError):
                line = b""
            if not line:
                # Coordinator hung up: treat as a drain request so an
                # orphaned worker never outlives the run.
                stop.set()
                return
            try:
                command = json.loads(line)
            except json.JSONDecodeError:
                continue
            cmd = command.get("cmd")
            if cmd == "start_load":
                await self.start_load()
            elif cmd == "storm":
                self.storm(command.get("factor", 4.0), command.get("duration", 2.0))
            elif cmd in ("drain", "stop"):
                stop.set()
                return


async def run(
    spec: ClusterSpec,
    role: str,
    cold: bool,
    control_port: int,
    incarnation: int = 0,
) -> int:
    worker = Worker(spec, role, cold, incarnation=incarnation)
    worker.boot()
    await worker.rt.ready()
    for node in worker.nodes():
        node.ntp.sync_now()
    if worker.profiler is not None:
        worker.profiler.start()  # samples this (event-loop) thread

    stop = asyncio.Event()
    loop = asyncio.get_event_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    reader, writer = await asyncio.open_connection(spec.bind_ip, control_port)
    worker.writer = writer
    await worker.send({"type": "ready", "role": role, "pid": os.getpid()})
    control = loop.create_task(worker.control_loop(reader, stop))
    worker.telemetry_task = loop.create_task(worker.telemetry_loop())

    await stop.wait()
    await worker.drain()
    await worker.send_telemetry(final=True)
    control.cancel()
    # close() flushes what drain() left buffered: the final frame is
    # the exit report, and a process that exits mid-write loses it.
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    await worker.rt.aclose()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True, help="path to the ClusterSpec JSON")
    parser.add_argument("--role", required=True, help="bdn:<j> | broker:<i> | load")
    parser.add_argument("--control-port", type=int, required=True)
    parser.add_argument("--cold", action="store_true", help="restart with a cleared registry")
    parser.add_argument(
        "--incarnation", type=int, default=0, help="respawn count, stamped on telemetry frames"
    )
    args = parser.parse_args(argv)
    spec = ClusterSpec.load(args.spec)
    return asyncio.run(
        run(
            spec,
            args.role,
            args.cold,
            args.control_port,
            incarnation=args.incarnation,
        )
    )


if __name__ == "__main__":
    sys.exit(main())
