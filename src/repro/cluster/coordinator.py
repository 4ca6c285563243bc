"""Cluster coordinator: spawn, command, and fault-inject worker processes.

The :class:`ClusterHarness` turns a :class:`~repro.cluster.spec.ClusterSpec`
into a running multi-process deployment: it assigns real ports, writes
the spec file, spawns one OS process per role (``python -m
repro.cluster.worker``), and talks to them over a newline-delimited JSON
TCP control channel.  The :class:`ClusterFaultInjector` is the live
counterpart of the sim :class:`~repro.discovery.faults.FaultInjector`:

* ``crash``          -- SIGKILL: the process vanishes mid-datagram, its
                        final frame is never sent (the collector notes
                        the lost report);
* ``drain``          -- SIGTERM: graceful drain-and-exit, asserted to
                        exit 0 within the deadline;
* ``rolling_restart``-- staggered drain + cold respawn across the BDN
                        group, one member at a time so quorum holds;
* ``storm``          -- multiplies the load generator's offered rate.

Every worker also streams ``telemetry`` frames up its control
connection, each carrying the worker's whole metrics registry and its
role's record.  The harness folds them into its
:class:`~repro.obs.live.LiveTelemetry` plane (rolling view plus SLO
monitor) and sends nothing back.  A worker's last frame after its drain
(``"final": true``) is its exit report: :meth:`ClusterHarness.collect`
returns one per incarnation, and :meth:`ClusterHarness.shutdown` joins
the control readers before it closes the server, so none is lost to
the close.

Everything here is plain blocking code on threads: the coordinator is
not part of the protocol under test, so it deliberately avoids sharing
an event loop (or a runtime) with it.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time

import repro
from repro.cluster.spec import DRAIN_DEADLINE, ClusterSpec
from repro.obs.live import LiveTelemetry
from repro.obs.slo import SloMonitor

__all__ = ["ClusterHarness", "ClusterFaultInjector", "ClusterError"]

#: Wall seconds every worker of a fresh cluster has to report ready.
READY_TIMEOUT = 30.0
#: Wall seconds a respawned worker has to report ready.
RESPAWN_READY_TIMEOUT = 20.0
#: Wall seconds shutdown waits for every worker to drain before killing it.
SHUTDOWN_DEADLINE = 15.0
#: Wall seconds shutdown waits for the control readers once every worker
#: has exited (each ends at its worker's EOF).
READER_JOIN_TIMEOUT = 5.0


class ClusterError(RuntimeError):
    """A worker did not reach the state the harness required in time."""


class _ControlServer:
    """Threaded JSON-lines TCP server the workers dial into.

    ``on_telemetry`` is invoked *on the reader thread* for every
    ``type == "telemetry"`` frame.  Routed frames never enter the inbox,
    so streaming telemetry cannot starve or reorder the coordinator's
    ``wait_for`` calls.
    """

    def __init__(self, bind_ip: str, on_telemetry) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind((bind_ip, 0))
        self.sock.listen(32)
        self.port = self.sock.getsockname()[1]
        self.on_telemetry = on_telemetry
        self.inbox: queue.Queue[dict] = queue.Queue()
        #: Messages received but not yet claimed by a ``wait_for`` call
        #: (e.g. a ``load_done`` arriving while waiting on a ``ready``).
        self._unclaimed: list[dict] = []
        self.conns: dict[str, socket.socket] = {}
        self.readers: list[threading.Thread] = []
        self._lock = threading.Lock()
        #: Per-connection write locks: commands sent from different
        #: threads must not interleave on one socket.
        self._send_locks: dict[socket.socket, threading.Lock] = {}
        self._closing = False
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _send_lock(self, conn: socket.socket) -> threading.Lock:
        with self._lock:
            lock = self._send_locks.get(conn)
            if lock is None:
                lock = self._send_locks[conn] = threading.Lock()
            return lock

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            reader = threading.Thread(target=self._reader, args=(conn,), daemon=True)
            self.readers.append(reader)
            reader.start()

    def _reader(self, conn: socket.socket) -> None:
        role = None
        try:
            with conn.makefile("rb") as lines:
                for line in lines:
                    try:
                        message = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if message.get("type") == "ready" and role is None:
                        role = message["role"]
                        with self._lock:
                            self.conns[role] = conn  # respawn replaces the old conn
                    if message.get("type") == "telemetry":
                        try:
                            self.on_telemetry(message)
                        except Exception:  # noqa: BLE001 - telemetry must not kill the reader
                            pass
                        continue
                    self.inbox.put(message)
        except OSError:
            return

    def send(self, role: str, command: dict) -> None:
        with self._lock:
            conn = self.conns.get(role)
        if conn is None:
            raise ClusterError(f"no control connection for role {role!r}")
        with self._send_lock(conn):
            conn.sendall((json.dumps(command) + "\n").encode("utf-8"))

    def wait_for(self, predicate, timeout: float) -> dict:
        """Next message satisfying ``predicate`` within ``timeout``.

        Non-matching messages are parked, not dropped, so a ``load_done``
        that lands while the harness waits on a respawn's ``ready`` is
        still there for the later ``wait_load_done``.  (Coordinator calls
        all come from one thread; ``_unclaimed`` needs no lock.)
        """
        for i, message in enumerate(self._unclaimed):
            if predicate(message):
                return self._unclaimed.pop(i)
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClusterError("timed out waiting for a worker message")
            try:
                message = self.inbox.get(timeout=min(remaining, 0.25))
            except queue.Empty:
                continue
            if predicate(message):
                return message
            self._unclaimed.append(message)

    def join_readers(self, timeout: float) -> None:
        """Wait for every reader to reach its worker's EOF."""
        end = time.monotonic() + timeout
        for reader in list(self.readers):
            reader.join(max(0.0, end - time.monotonic()))

    def close(self) -> None:
        self._closing = True
        try:
            self.sock.close()
        except OSError:
            pass
        with self._lock:
            for conn in self.conns.values():
                try:
                    conn.shutdown(socket.SHUT_RDWR)  # wakes a reader blocked in read
                    conn.close()
                except OSError:
                    pass
            self.conns.clear()
            self._send_locks.clear()


class ClusterHarness:
    """One live cluster run: spawn workers, drive load, collect final frames."""

    def __init__(self, spec: ClusterSpec, workdir: str) -> None:
        self.spec = spec
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.spec_path = os.path.join(workdir, "cluster_spec.json")
        self.procs: dict[str, subprocess.Popen] = {}
        self.incarnations: dict[str, int] = {}
        #: ``role#incarnation`` of every spawn ever.
        self.spawned: list[str] = []
        #: Each incarnation's final frame, by ``role#incarnation``.
        self.finals: dict[str, dict] = {}
        self.control: _ControlServer | None = None
        self.injector = ClusterFaultInjector(self)
        #: The live telemetry plane: folds worker frames into a rolling
        #: cluster view and evaluates SLO windows continuously.
        self.live = LiveTelemetry(SloMonitor(spec.slo_config()))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if not self.spec.ports:
            self.spec.assign_ports()
        self.spec.save(self.spec_path)
        self.control = _ControlServer(self.spec.bind_ip, on_telemetry=self.on_frame)
        for role in self.spec.roles():
            self.spawn(role)
        self.wait_ready(self.spec.roles(), timeout=READY_TIMEOUT)
        self.live.start()

    def _worker_env(self) -> dict[str, str]:
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        return env

    def on_frame(self, frame: dict) -> None:
        """Keep a final frame, then fold it like any other (reader thread)."""
        if frame.get("final"):
            self.finals[f"{frame['role']}#{frame['incarnation']}"] = frame
        self.live.on_frame(frame)

    def spawn(self, role: str, cold: bool = False) -> subprocess.Popen:
        incarnation = self.incarnations.get(role, -1) + 1
        self.incarnations[role] = incarnation
        argv = [
            sys.executable,
            "-m",
            "repro.cluster.worker",
            "--spec",
            self.spec_path,
            "--role",
            role,
            "--control-port",
            str(self.control.port),
            "--incarnation",
            str(incarnation),
        ]
        if cold:
            argv.append("--cold")
        proc = subprocess.Popen(argv, env=self._worker_env())
        self.procs[role] = proc
        self.spawned.append(f"{role}#{incarnation}")
        return proc

    def wait_ready(self, roles, timeout: float = 30.0) -> None:
        pending = set(roles)
        deadline = time.monotonic() + timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClusterError(f"workers never became ready: {sorted(pending)}")
            message = self.control.wait_for(
                lambda m: m.get("type") == "ready", timeout=remaining
            )
            pending.discard(message["role"])

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def start_load(self) -> None:
        self.control.send("load", {"cmd": "start_load"})

    def wait_load_done(self, timeout: float) -> dict:
        return self.control.wait_for(lambda m: m.get("type") == "load_done", timeout)

    # ------------------------------------------------------------------
    # Shutdown and collection
    # ------------------------------------------------------------------
    def shutdown(self) -> dict[str, int | None]:
        """Drain every live worker (SIGTERM), reap exit codes, and read
        every final frame off the wire before the server closes."""
        codes: dict[str, int | None] = {}
        for role, proc in self.procs.items():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        end = time.monotonic() + SHUTDOWN_DEADLINE
        for role, proc in self.procs.items():
            remaining = max(0.1, end - time.monotonic())
            try:
                codes[role] = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                codes[role] = None  # refused to drain: recorded, not hidden
        if self.control is not None:
            self.control.join_readers(READER_JOIN_TIMEOUT)
        # After the join, so the flushed window has seen every final frame.
        self.live.stop()  # idempotent; flushes the open SLO window
        if self.control is not None:
            self.control.close()
        return codes

    def collect(self) -> tuple[list[dict], list[str]]:
        """Every incarnation's final frame, plus the labels of lost ones.

        A SIGKILLed incarnation never sends its final frame; the label
        list is the collector's honest record of those gaps.
        """
        frames, missing = [], []
        for label in self.spawned:
            frame = self.finals.get(label)
            if frame is None:
                missing.append(label)
            else:
                frames.append({**frame, "label": label})
        return frames, missing


class ClusterFaultInjector:
    """Process-level faults against a running :class:`ClusterHarness`."""

    def __init__(self, harness: ClusterHarness) -> None:
        self.harness = harness
        #: ``(wall_time, kind, role)`` rows, mirroring the sim injector's log.
        self.injected: list[tuple[float, str, str]] = []

    def _note(self, kind: str, role: str) -> None:
        self.injected.append((time.time(), kind, role))

    def crash(self, role: str) -> None:
        """SIGKILL: the hard-crash path; no drain, no final frame."""
        proc = self.harness.procs[role]
        self._note("crash", role)
        proc.kill()
        proc.wait()

    def drain(self, role: str) -> int:
        """SIGTERM graceful drain; asserts exit 0 within the deadline."""
        proc = self.harness.procs[role]
        limit = DRAIN_DEADLINE + 5.0
        self._note("drain", role)
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=limit)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise ClusterError(f"{role} did not drain within {limit:.1f}s") from None
        if code != 0:
            raise ClusterError(f"{role} drained with exit code {code}, expected 0")
        return code

    def respawn(self, role: str, cold: bool = True) -> None:
        """Start a fresh incarnation (cold by default: cleared registry)."""
        self._note("respawn", role)
        self.harness.spawn(role, cold=cold)
        self.harness.wait_ready([role], timeout=RESPAWN_READY_TIMEOUT)

    def rolling_restart(self, settle: float = 2.0) -> None:
        """Drain + cold-respawn each BDN member, one at a time.

        Staggered so a quorum of the replication group is always up:
        the drained member steps down, a peer wins the next election,
        and the cold restart exercises the catch-up protocol under
        whatever load is running.
        """
        for j in range(self.harness.spec.n_bdns):
            role = f"bdn:{j}"
            self._note("rolling_restart", role)
            self.drain(role)
            self.respawn(role, cold=True)
            time.sleep(settle)

    def storm(self, factor: float = 4.0, duration: float = 2.0) -> None:
        """Multiply the load generator's offered rate for ``duration``."""
        self._note("storm", "load")
        self.harness.control.send(
            "load", {"cmd": "storm", "factor": factor, "duration": duration}
        )
