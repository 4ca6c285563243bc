"""Control-channel backpressure: telemetry mid-collect loses nothing.

These tests run a real :class:`repro.cluster.coordinator._ControlServer`
against fake worker sockets (no subprocesses), pinning the routing
contract of the streaming telemetry plane: ``telemetry`` frames are
consumed by the handler on the reader thread and never enter the inbox,
so a coordinator blocked in ``wait_for`` cannot be starved or handed the
wrong message by a telemetry flood, and a worker's final frame (its exit
report) is read off the wire before shutdown closes the server.  One
test dials a booted :class:`~repro.cluster.worker.Worker` in: each of
its frames carries the whole registry, so any single frame rebuilds the
process's view.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.cluster.coordinator import ClusterHarness, _ControlServer
from repro.cluster.spec import ClusterSpec
from repro.cluster.worker import Worker
from repro.obs.live import LiveTelemetry, RollingClusterView
from repro.obs.slo import SloMonitor

pytestmark = pytest.mark.real_loop(
    "a coordinator's reader threads and a worker's loop meet over real sockets in wall time"
)


class FakeWorker:
    """One blocking-socket 'worker' dialled into the control server."""

    def __init__(self, server: _ControlServer, role: str) -> None:
        self.role = role
        self.sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        self.sock.settimeout(5)
        self._buffer = b""
        self.send({"type": "ready", "role": role, "pid": 0})

    def send(self, message: dict) -> None:
        self.sock.sendall((json.dumps(message) + "\n").encode("utf-8"))

    def recv(self) -> dict:
        while b"\n" not in self._buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def close(self) -> None:
        self.sock.close()


def telemetry(role: str, tag: int) -> dict:
    return {"type": "telemetry", "role": role, "incarnation": 0,
            "metrics": {}, "stats": {"tag": tag}}


@pytest.fixture
def handled():
    """A server whose telemetry handler records frames."""
    frames: list[dict] = []
    lock = threading.Lock()

    def on_telemetry(frame: dict) -> None:
        frame["stats"]["tag"]  # a malformed frame raises KeyError here
        with lock:
            frames.append(frame)

    server = _ControlServer("127.0.0.1", on_telemetry=on_telemetry)
    try:
        yield server, frames
    finally:
        server.close()


def _drain_ready(server: _ControlServer, count: int) -> None:
    for _ in range(count):
        server.wait_for(lambda m: m.get("type") == "ready", timeout=5)


class TestHandledTelemetry:
    def test_frames_mid_wait_are_routed_not_lost(self, handled):
        server, frames = handled
        worker = FakeWorker(server, "load")
        _drain_ready(server, 1)

        # Stream a burst of frames, then the message the coordinator is
        # actually blocked on.  wait_for must return load_done -- not a
        # telemetry frame -- and every frame must reach the handler.
        for tag in range(20):
            worker.send(telemetry("load", tag))
        worker.send({"type": "load_done", "rounds": 3, "failures": 0})

        done = server.wait_for(lambda m: m.get("type") == "load_done", timeout=5)
        assert done["rounds"] == 3
        deadline = time.monotonic() + 5
        while len(frames) < 20 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [f["stats"]["tag"] for f in frames] == list(range(20))
        assert server._unclaimed == []  # nothing leaked into the buffer
        worker.close()

    def test_interleaved_workers_keep_per_worker_frame_order(self, handled):
        server, frames = handled
        workers = [FakeWorker(server, f"bdn:{i}") for i in range(3)]
        _drain_ready(server, 3)
        for tag in range(10):
            for worker in workers:
                worker.send(telemetry(worker.role, tag))
        deadline = time.monotonic() + 5
        while len(frames) < 30 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(frames) == 30
        for worker in workers:
            tags = [f["stats"]["tag"] for f in frames if f["role"] == worker.role]
            assert tags == list(range(10))  # per-conn order is preserved
            worker.close()

    def test_handler_exception_does_not_kill_the_reader(self, handled):
        server, frames = handled
        worker = FakeWorker(server, "load")
        _drain_ready(server, 1)
        worker.send({"type": "telemetry", "role": "load"})  # no stats: KeyError
        worker.send(telemetry("load", 1))
        deadline = time.monotonic() + 5
        while not any(f["stats"]["tag"] == 1 for f in frames):
            assert time.monotonic() < deadline, "reader thread died on bad frame"
            time.sleep(0.01)
        # The connection still serves commands after the bad frame.
        worker.send({"type": "load_done", "rounds": 1, "failures": 0})
        assert server.wait_for(
            lambda m: m.get("type") == "load_done", timeout=5
        )["rounds"] == 1
        worker.close()


class TestSnapshotFrames:
    def test_second_frame_holds_whole_registry(self):
        # The coordinator folds only the worker's second frame into a
        # fresh view; that view must still hold every registry metric.
        live = LiveTelemetry(SloMonitor(ClusterSpec().slo_config()))
        frames: list[dict] = []

        def on_telemetry(frame: dict):
            frames.append(frame)
            return live.on_frame(frame)

        server = _ControlServer("127.0.0.1", on_telemetry=on_telemetry)

        async def two_frames() -> dict:
            spec = ClusterSpec(n_bdns=1)
            spec.assign_ports()
            worker = Worker(spec, "bdn:0", cold=True)
            worker.boot()
            try:
                await worker.rt.ready()
                reader, worker.writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                control = asyncio.ensure_future(worker.control_loop(reader, asyncio.Event()))
                await worker.send_telemetry()
                deadline = time.monotonic() + 5
                while not frames and time.monotonic() < deadline:
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.2)  # room for any reply to reach the worker
                await worker.send_telemetry()
                while len(frames) < 2 and time.monotonic() < deadline:
                    await asyncio.sleep(0.01)
                control.cancel()
                worker.writer.close()
                return worker.obs.registry.snapshot()
            finally:
                await worker.rt.aclose()

        try:
            registry = asyncio.run(two_frames())
        finally:
            server.close()
        assert len(frames) == 2
        assert registry, "a booted BDN has counted its start events"
        view = RollingClusterView()
        view.fold(frames[1])
        assert view.processes["bdn:0#0"].metrics == registry


class TestFinalFrames:
    def test_large_final_frame_survives_an_immediate_close(self, tmp_path):
        # A worker sends its exit report as one large frame and exits at
        # once, while the reader is still folding the frame before it;
        # shutdown must read the report off the wire before it closes
        # the server.
        harness = ClusterHarness(ClusterSpec(n_bdns=1), str(tmp_path))

        def slow_fold(frame: dict) -> None:
            if not frame.get("final"):
                time.sleep(0.5)
            harness.on_frame(frame)

        harness.control = _ControlServer("127.0.0.1", on_telemetry=slow_fold)
        harness.spawned += ["load#0", "broker:0#0"]
        final = {
            **telemetry("load", 1), "final": True, "wall_offset": 0.0,
            "rings": {"c0": {"events": [], "pad": "x" * (256 * 1024)}},
        }
        worker = FakeWorker(harness.control, "load")
        harness.wait_ready(["load"], timeout=5)
        worker.send(telemetry("load", 0))
        worker.send(final)
        worker.close()
        harness.shutdown()
        frames, missing = harness.collect()
        assert missing == ["broker:0#0"]  # spawned, never sent a final frame
        (frame,) = frames
        assert frame["label"] == "load#0"
        assert frame["rings"] == final["rings"]
