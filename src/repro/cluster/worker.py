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
injector and the drain tests rely on.  SIGKILL is the crash path: no
report is written, which the collector records as a lost incarnation.

The exit report carries the process's telemetry snapshot plus a
``wall_offset`` so :func:`repro.obs.cluster.merge_process_snapshots`
can rebase all per-process flight-recorder rings onto one cluster
timeline.

Telemetry is no longer exit-only: with ``spec.telemetry_interval > 0``
the worker also streams periodic ``telemetry`` frames up the control
channel -- delta-encoded against the last snapshot the coordinator
acknowledged (:class:`~repro.obs.live.DeltaEncoder`), carrying the
changed registry metrics, flat per-role stats (queue depth, rounds,
breaker states) and, for BDN members, the full leadership-interval
list.  With ``spec.profiled(role)`` a
:class:`~repro.obs.profiling.SamplingProfiler` samples the event-loop
thread for the whole run and lands its collapsed stacks in the exit
report.
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
from repro.cluster.spec import ClusterSpec
from repro.core.invariants import bdn_evidence, failed, recorded
from repro.core.messages import DiscoveryRequest
from repro.discovery.bdn import BDN
from repro.discovery.requester import CLIENT_UDP_PORT, DiscoveryClient
from repro.discovery.responder import DiscoveryResponder
from repro.obs import Observability
from repro.obs.export import telemetry_snapshot
from repro.obs.live import DeltaEncoder
from repro.obs.profiling import SamplingProfiler
from repro.runtime.aio import AioRuntime
from repro.substrate.broker import Broker

__all__ = ["main"]

_POLL = 0.02


class Worker:
    def __init__(
        self,
        spec: ClusterSpec,
        role: str,
        cold: bool,
        report_path: str,
        incarnation: int = 0,
    ) -> None:
        self.spec = spec
        self.role = role
        self.cold = cold
        self.report_path = report_path
        self.incarnation = incarnation
        self.kind, _, index_text = role.partition(":")
        self.index = int(index_text) if index_text else 0
        self.rt = AioRuntime(
            bind_ip=spec.bind_ip, port_plan=spec.port_plan(role), max_errors=512
        )
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
        self.encoder = DeltaEncoder()
        self.frames_sent = 0
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
                interval=spec.broker_heartbeat,
                ttl=spec.broker_lease_ttl,
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

        loop = asyncio.get_event_loop()
        loop.call_later(float(duration), calm)
        if self.clients and (self.surge_task is None or self.surge_task.done()):
            self.surge_task = loop.create_task(
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
        loop = asyncio.get_event_loop()
        end = loop.time() + duration
        carry = 0.0
        while loop.time() < end and not self.drain_requested.is_set():
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
    def live_stats(self) -> dict:
        """Flat per-role gauges/counters for one telemetry frame."""
        stats: dict = {}
        if self.bdn is not None:
            bdn = self.bdn
            stats.update(
                name=bdn.name,
                requests_received=bdn.requests_received,
                requests_shed=bdn.requests_shed,
                stale_targets=bdn.stale_targets,
                is_leader=bool(bdn.replication and bdn.replication.is_leader()),
            )
            # No ingress queue means no queue keys, not healthy zeros:
            # the monitor flags their absence.
            queue = bdn_evidence([bdn]).queues[bdn.name]
            if queue is not None:
                stats.update(
                    queue_depth=queue.depth,
                    queue_max_depth=queue.max_depth,
                    queue_overflows=queue.overflows,
                )
        if self.responder is not None:
            stats.update(
                name=self.broker.name,
                requests_processed=self.responder.requests_processed,
                responses_sent=self.responder.responses_sent,
                responses_suppressed=self.responder.responses_suppressed,
                pending_responses=self.responder.pending_responses,
            )
        if self.clients:
            breakers: dict[str, str] = {}
            for client in self.clients:
                for bdn, state in client.breaker_states().items():
                    breakers[f"{client.name}:{bdn}"] = state
            stats.update(
                rounds=len(recorded(self.rounds)),
                failures=len(failed(self.rounds)),
                busy_received=sum(c.busy_received for c in self.clients),
                retries_denied=sum(c.retries_denied for c in self.clients),
                breaker_trips=sum(c.breaker_trips for c in self.clients),
                breaker_states=breakers,
                surge_sent=self.surge_sent,
            )
        return stats

    async def send_telemetry(self) -> None:
        """One delta frame: changed metrics since the last acked snapshot."""
        seq, delta = self.encoder.encode(self.obs.registry.snapshot())
        frame = {
            "type": "telemetry",
            "role": self.role,
            "incarnation": self.incarnation,
            "seq": seq,
            "now": self.rt.now,
            "wall_offset": time.time() - self.rt.now,
            "metrics": delta,
            "stats": self.live_stats(),
        }
        if self.bdn is not None and self.bdn.replication is not None:
            frame["intervals"] = [
                list(row) for row in self.bdn.replication.leadership_intervals
            ]
        await self.send(frame)
        self.frames_sent += 1

    async def telemetry_loop(self) -> None:
        interval = self.spec.telemetry_interval
        while not self.drain_requested.is_set():
            await asyncio.sleep(interval)
            if self.drain_requested.is_set():
                return
            await self.send_telemetry()

    # ------------------------------------------------------------------
    # Drain / report
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Graceful exit: finish in-flight work, withdraw, report, stop."""
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
        deadline = self.rt.now + self.spec.drain_deadline
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
            await asyncio.wait(self.load_tasks, timeout=self.spec.drain_deadline)
            for task in self.load_tasks:
                task.cancel()
        for client in self.clients:
            client.stop()

    def build_report(self) -> dict:
        report: dict = {
            "role": self.role,
            "pid": os.getpid(),
            "cold": self.cold,
            "wall_offset": time.time() - self.rt.now,
            "telemetry": telemetry_snapshot(self.obs),
            "telemetry_frames_sent": self.frames_sent,
            "telemetry_frames_acked": self.encoder.acked_seq + 1,
            "errors": list(self.rt.errors),
            "errors_dropped": self.rt.errors_dropped,
            "datagrams": {
                "sent": self.rt.datagrams_sent,
                "delivered": self.rt.datagrams_delivered,
                "dropped": self.rt.datagrams_dropped,
            },
        }
        if self.bdn is not None:
            bdn = self.bdn
            queue = bdn_evidence([bdn]).queues[bdn.name]
            report["bdn"] = {
                "name": bdn.name,
                "leadership_intervals": [list(row) for row in (
                    bdn.replication.leadership_intervals if bdn.replication else []
                )],
                "registered_brokers": sorted(bdn.store.broker_ids(self.rt.now)),
                "requests_received": bdn.requests_received,
                "requests_shed": bdn.requests_shed,
                "requests_refused_catchup": bdn.requests_refused_catchup,
                "stale_targets": bdn.stale_targets,
                # No ingress queue means no evidence, not a healthy zero:
                # check_invariants flags a null here.
                "queue": queue and {**queue._asdict(), "shed": bdn.ingress.shed},
            }
        if self.responder is not None:
            report["broker"] = {
                "name": self.broker.name,
                "requests_processed": self.responder.requests_processed,
                "responses_sent": self.responder.responses_sent,
                "responses_suppressed": self.responder.responses_suppressed,
                "withdrawals_sent": self.responder.withdrawals_sent,
                "pending_at_exit": self.responder.pending_responses,
            }
        if self.clients:
            report["load"] = {
                "rounds": self.rounds,
                "completed": len(recorded(self.rounds)),
                "failures": len(failed(self.rounds)),
                "aborted": self.aborted_rounds,
                "clients": {
                    c.name: {
                        "busy_received": c.busy_received,
                        "retries_denied": c.retries_denied,
                        "bdn_skips": c.bdn_skips,
                        "breaker_trips": c.breaker_trips,
                        "leader_hint_updates": c.leader_hint_updates,
                    }
                    for c in self.clients
                },
            }
        if self.profiler is not None:
            report["profile"] = self.profiler.report()
        return report

    def write_report(self) -> None:
        tmp = self.report_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.build_report(), fh)
        os.replace(tmp, self.report_path)  # atomic: the collector never sees a torn file

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
            elif cmd == "telemetry_ack":
                self.encoder.ack(int(command.get("seq", -1)))
            elif cmd in ("drain", "stop"):
                stop.set()
                return


async def run(
    spec: ClusterSpec,
    role: str,
    cold: bool,
    report: str,
    control_port: int,
    incarnation: int = 0,
) -> int:
    worker = Worker(spec, role, cold, report, incarnation=incarnation)
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
    if spec.telemetry_interval > 0:
        worker.telemetry_task = loop.create_task(worker.telemetry_loop())

    await stop.wait()
    await worker.drain()
    if spec.telemetry_interval > 0:
        # One last frame so the coordinator's rolling view matches the
        # exit report (the ack may never come; the report notes both).
        await worker.send_telemetry()
    worker.write_report()
    await worker.send({"type": "bye", "role": role})
    control.cancel()
    await worker.rt.aclose()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True, help="path to the ClusterSpec JSON")
    parser.add_argument("--role", required=True, help="bdn:<j> | broker:<i> | load")
    parser.add_argument("--control-port", type=int, required=True)
    parser.add_argument("--report", required=True, help="exit report JSON path")
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
            args.report,
            args.control_port,
            incarnation=args.incarnation,
        )
    )


if __name__ == "__main__":
    sys.exit(main())
