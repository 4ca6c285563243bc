"""roundbench's tracer: spans recorded from the benchmark's side only.

Nothing under ``src/`` is edited.  The tracer measures each layer from
outside, at four kinds of seam:

* a **runtime proxy** (:class:`TracingRuntime`) stands in for the
  :class:`repro.runtime.api.Runtime` every node is handed.  It wraps
  ``send_udp`` / ``multicast`` / link ``send`` (transport spans),
  ``schedule`` / ``schedule_at`` / ``call_every`` / ``cancel``
  (scheduler spans), and every handler and timer callback it is handed
  (engine spans, labelled by the module that defined the callback);
* **public functions and methods** of ``core.codec``,
  ``discovery.selection``, ``discovery.sharding``, ``core.dedup`` (and
  the engine-to-engine seams ``Pinger``, ``ReplicationState`` and the
  broker's handler registries) are wrapped wherever a ``repro.*`` module
  bound them, and restored by :meth:`Tracer.uninstall`;
* the **event loop** itself: ``Simulator.step`` / ``run`` and
  ``loop.run_until_complete`` get root spans, and the simulator's
  ``schedule_fire*`` (used only by the fabric for deliveries) wraps its
  callback in a ``simnet.network`` delivery span;
* the **garbage collector**: each collection is a span (layer ``other``).

Each span records label (name + layer), start, end, parent, and the
discovery uuid when the message it handles carries one.  Spans live in
flat ``array`` columns (about 30 bytes each) and are only aggregated
when the run ends.

**Self time** of a span is its duration minus what its children cover,
minus the tracer's own calibrated cost (one inner cost per span, one
outer cost per child); the removed cost is reported as layer
``bench.tracer``.  Loop time under no child span belongs to the loop's
own layer: ``simnet.simulator`` under simulation, ``other`` under
asyncio.
"""

from __future__ import annotations

import gc
import sys
import time
import types
from array import array
from collections.abc import Callable
from functools import partial

__all__ = ["LAYERS", "Tracer", "TracingRuntime", "layer_of_module"]

#: Layers the traced pass reports, in catalogue order.
LAYERS = (
    "core.codec",
    "core.dedup",
    "simnet.simulator",
    "simnet.network",
    "simnet.service",
    "runtime.aio",
    "substrate.broker",
    "discovery.bdn",
    "discovery.sharding",
    "discovery.replication",
    "discovery.responder",
    "discovery.requester",
    "discovery.selection",
    "discovery.ping",
    "repro.other",
    "bench.loadgen",
    "bench.calibration",
    "bench.tracer",
    "other",
)

_perf = time.perf_counter


def layer_of_module(module: str | None) -> str:
    """Map a defining module name to a reported layer."""
    if not module:
        return "other"
    if module.startswith("repro."):
        name = module[len("repro.") :]
        return name if name in LAYERS else "repro.other"
    if module.startswith("benchmarks.roundbench") or module.startswith("roundbench"):
        return "bench.loadgen"
    return "other"


def _describe(fn) -> tuple[str, str]:
    """``(name, layer)`` of a callback, from where it was defined."""
    while isinstance(fn, partial):
        fn = fn.func
    name = getattr(fn, "__qualname__", None) or type(fn).__name__
    return name, layer_of_module(getattr(fn, "__module__", None))


def _uuid_of(message) -> str | None:
    """The discovery uuid a message carries, if any."""
    uuid = getattr(message, "request_uuid", None) or getattr(message, "uuid", None)
    if type(uuid) is not str:
        return None
    # Request-bearing events are keyed "<request uuid>#<attempt>".
    cut = uuid.find("#")
    return uuid if cut < 0 else uuid[:cut]


class Tracer:
    """Span recorder plus the install/uninstall of every wrapper."""

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.label = array("l")
        self.uuid = array("l")
        self.labels: list[tuple[str, str]] = []
        self._label_ids: dict[tuple[str, str], int] = {}
        self.uuids: list[str] = []
        self._uuid_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._proxies: dict[int, "TracingRuntime"] = {}
        self._undo: list[Callable[[], None]] = []
        self.installed = False
        self.inner_cost = 0.0
        self.outer_cost = 0.0
        self._gc_label = self.label_id("gc.collect", "other")

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def label_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        found = self._label_ids.get(key)
        if found is None:
            found = self._label_ids[key] = len(self.labels)
            self.labels.append(key)
        return found

    def _uuid_id(self, uuid: str | None) -> int:
        if uuid is None:
            return -1
        found = self._uuid_ids.get(uuid)
        if found is None:
            found = self._uuid_ids[uuid] = len(self.uuids)
            self.uuids.append(uuid)
        return found

    def wrap(self, fn: Callable, name: str | None = None, layer: str | None = None,
             message_arg: int | None = None) -> Callable:
        """``fn`` inside a span.  ``message_arg`` is the position of the
        argument that is a message (it may carry a discovery uuid)."""
        auto_name, auto_layer = _describe(fn)
        lid = self.label_id(name or auto_name, layer or auto_layer)
        start, end, parent, label, uuid = self.start, self.end, self.parent, self.label, self.uuid
        stack = self._stack
        uuid_id = self._uuid_id

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            label.append(lid)
            uuid.append(-1 if message_arg is None else uuid_id(_uuid_of(args[message_arg])))
            end.append(0.0)
            stack.append(idx)
            start.append(_perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = _perf()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: a collection is a span of its own
        (``other``), not self time of whichever span's allocation set it
        off.  A full collection of a 60 000-client world takes ~0.25 s;
        in ten traced passes of ``sim_flash_crowd`` it landed in five
        different layers and moved each one's share by 9 points."""
        if phase == "start":
            if len(self.parent) != len(self.start):
                return  # set off while a span was being opened: leave it there
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.label.append(self._gc_label)
            self.uuid.append(-1)
            self.end.append(0.0)
            self._stack.append(len(self.start))
            self.start.append(_perf())
        elif self._stack and self.label[self._stack[-1]] == self._gc_label:
            self.end[self._stack.pop()] = _perf()

    def _truncate(self, keep: int) -> None:
        """Forget every span after the first ``keep``.  Only legal
        between spans: an open span would lose its row."""
        if self._stack:
            raise RuntimeError("cannot drop spans inside a span")
        for column in (self.start, self.end, self.parent, self.label, self.uuid):
            del column[keep:]

    def reset(self) -> None:
        """Forget every span recorded so far (labels and wrappers stay)."""
        self._truncate(0)
        self.uuids.clear()
        self._uuid_ids.clear()

    def discard(self, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` and forget the spans it recorded: work that
        is not part of the measured window (building a segment's worlds)."""
        keep = len(self.start)
        fn(*args)
        self._truncate(keep)

    def calibrate(self, n: int = 20_000) -> None:
        """Measure the tracer's own per-span cost (inner and outer)."""
        probe = Tracer()
        empty = probe.wrap(lambda: None, "probe", "bench.tracer")
        outer = probe.wrap(lambda: [empty() for _ in range(100)], "outer", "bench.tracer")
        for _ in range(n // 100):
            outer()
        inner_total = 0.0
        outer_total = 0.0
        for i in range(len(probe.start)):
            duration = probe.end[i] - probe.start[i]
            if probe.parent[i] < 0:
                outer_total += duration
            else:
                inner_total += duration
        spans = len(probe.start) - n // 100
        self.inner_cost = inner_total / spans
        # What a parent sees per child beyond the child's own duration
        # (the bare loop around the 100 calls costs a few ns and is
        # knowingly included).
        self.outer_cost = max(0.0, (outer_total - inner_total) / spans)

    # ------------------------------------------------------------------
    # Runtime, simulator and event-loop seams
    # ------------------------------------------------------------------
    def wrap_runtime(self, runtime) -> "TracingRuntime":
        """The (cached) proxy for ``runtime``."""
        if isinstance(runtime, TracingRuntime):
            return runtime
        proxy = self._proxies.get(id(runtime))
        if proxy is None:
            proxy = self._proxies[id(runtime)] = TracingRuntime(self, runtime)
            sim = getattr(runtime, "sim", None)
            if sim is not None:
                self._attach_sim(sim)
        return proxy

    def _attach_sim(self, sim) -> None:
        """Root spans on the loop; delivery spans on the fabric's path."""
        sim.step = self.wrap(sim.step, "Simulator.step", "simnet.simulator")
        sim.run = self.wrap(sim.run, "Simulator.run", "simnet.simulator")
        for attr in ("schedule_fire", "schedule_fire_at"):
            setattr(sim, attr, self._wrap_schedule_fire(getattr(sim, attr), attr))

    def _wrap_schedule_fire(self, schedule_fire, attr: str):
        enqueue = self.wrap(schedule_fire, f"Simulator.{attr}", "simnet.simulator")
        deliveries: dict[object, Callable] = {}

        def traced(when, fn, *args):
            wrapped = deliveries.get(fn)
            if wrapped is None:
                name = getattr(fn, "__name__", "deliver")
                wrapped = deliveries[fn] = self.wrap(
                    fn, f"Network.{name}", "simnet.network",
                    message_arg={"_deliver_udp": 0, "_deliver_tcp": 1}.get(name),
                )
            enqueue(when, wrapped, *args)

        return traced

    def run_loop(self, loop, coro):
        """``loop.run_until_complete(coro)`` under a root span."""
        return self.wrap(loop.run_until_complete, "asyncio.run_until_complete", "other")(coro)

    # ------------------------------------------------------------------
    # Function and method seams
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the public seams; idempotent.  Undo with :meth:`uninstall`."""
        if self.installed:
            return
        self.installed = True
        import repro.core.codec as codec
        import repro.core.dedup as dedup
        import repro.discovery.advertisement as advertisement
        import repro.discovery.ping as ping
        import repro.discovery.replication as replication
        import repro.discovery.requester as requester
        import repro.discovery.selection as selection
        import repro.discovery.sharding as sharding
        import repro.simnet.node as node
        import repro.substrate.broker as broker

        for module, layer, names in (
            (codec, "core.codec", ("encode_message", "decode_message", "lazy_decode", "wire_size")),
            (selection, "discovery.selection", ("make_candidate", "select_target_set")),
        ):
            for name in names:
                self._rebind_function(getattr(module, name), f"{layer.split('.')[-1]}.{name}", layer)
        for cls, layer, names in (
            (codec.LazyMessage, "core.codec", ("message", "request_key")),
            (dedup.DedupCache, "core.dedup", ("seen", "add", "discard")),
            (sharding.ShardedDedup, "discovery.sharding", ("seen", "add", "discard")),
            (
                sharding.ShardedRegistry,
                "discovery.sharding",
                ("accept", "accept_if_newer", "remove", "get", "all", "broker_ids", "evict_expired"),
            ),
            (
                advertisement.AdvertisementStore,
                "discovery.sharding",
                ("accept", "accept_if_newer", "remove", "all", "broker_ids", "evict_expired"),
            ),
            (ping.Pinger, "discovery.ping", ("ping", "on_response")),
            # The one engine entry point a load generator calls directly.
            (requester.DiscoveryClient, "discovery.requester", ("discover",)),
            (
                replication.ReplicationState,
                "discovery.replication",
                (
                    "on_lease_claim", "on_lease_vote", "on_local_write", "on_replica_append",
                    "on_replica_ack", "on_digest", "on_delta", "start", "stop",
                ),
            ),
        ):
            for name in names:
                self._wrap_attribute(cls, name, layer)
        # Engine-to-engine seams: handlers a responder (or a heartbeat)
        # registers with its broker run inside the broker's span unless
        # they get their own.
        for name in ("add_udp_handler", "add_control_handler"):
            self._wrap_registrar(broker.Broker, name)
        # Nodes obtain their runtime here; hand them the proxy instead.
        original = node.as_runtime
        node.as_runtime = lambda fabric: self.wrap_runtime(original(fabric))
        self._undo.append(lambda: setattr(node, "as_runtime", original))
        gc.callbacks.append(self._on_gc)
        self._undo.append(partial(gc.callbacks.remove, self._on_gc))

    def uninstall(self) -> None:
        """Restore everything :meth:`install` replaced."""
        while self._undo:
            self._undo.pop()()
        self.installed = False

    def _rebind_function(self, fn, name: str, layer: str) -> None:
        wrapped = self.wrap(fn, name, layer)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro.") or not isinstance(module, types.ModuleType):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append(partial(setattr, module, attr, fn))

    def _wrap_attribute(self, cls, name: str, layer: str) -> None:
        original = cls.__dict__[name]
        label = f"{cls.__name__}.{name}"
        if isinstance(original, property):
            replacement = property(self.wrap(original.fget, label, layer))
        else:
            replacement = self.wrap(original, label, layer)
        setattr(cls, name, replacement)
        self._undo.append(partial(setattr, cls, name, original))

    def _wrap_registrar(self, cls, name: str) -> None:
        original = cls.__dict__[name]
        tracer = self

        def registrar(self, key, handler):
            return original(self, key, tracer.wrap(handler, message_arg=0))

        setattr(cls, name, registrar)
        self._undo.append(partial(setattr, cls, name, original))

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def summarize(self) -> dict:
        """Per-layer ``self_s`` / ``calls`` and the checks the test makes."""
        n = len(self.start)
        self_s = [self.end[i] - self.start[i] for i in range(n)]
        children = [0] * n
        nested_ok = True
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_s[p] -= self.end[i] - self.start[i]
                children[p] += 1
                if self.start[i] < self.start[p] or self.end[i] > self.end[p]:
                    nested_ok = False
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        removed = 0.0
        negative = 0
        for i in range(n):
            raw = self_s[i]
            if raw < -1e-9:
                negative += 1
            overhead = min(max(raw, 0.0), self.inner_cost + self.outer_cost * children[i])
            removed += overhead
            entry = layers[self.labels[self.label[i]][1]]
            entry["self_s"] += max(raw, 0.0) - overhead
            entry["calls"] += 1
        layers["bench.tracer"]["self_s"] += removed
        return {
            "layers": layers,
            "spans": n,
            "nested_ok": nested_ok,
            "negative_self": negative,
            "uuids": len(set(self.uuid) - {-1}),
        }


class _TracedHandle:
    """A timer handle whose ``cancel`` is a scheduler span."""

    __slots__ = ("_inner", "_cancel")

    def __init__(self, inner, cancel) -> None:
        self._inner = inner
        self._cancel = cancel

    @property
    def cancelled(self) -> bool:
        return self._inner.cancelled

    def cancel(self) -> None:
        self._cancel(self._inner)


class _TracedLink:
    """A :class:`~repro.runtime.api.Link` whose ``send`` is a transport
    span and whose receive handler gets an engine span."""

    def __init__(self, tracer: Tracer, inner, layer: str) -> None:
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(
            self, "send", tracer.wrap(inner.send, "Link.send", layer, message_arg=0)
        )

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __setattr__(self, name: str, value) -> None:
        if name == "on_receive" and value is not None:
            value = self._tracer.wrap(value, message_arg=0)
        elif name == "on_close" and value is not None:
            value = self._tracer.wrap(value)
        setattr(self._inner, name, value)


class TracingRuntime:
    """Stands in for a :class:`~repro.runtime.api.Runtime`.

    Everything not wrapped here (host registry, ``now``, counters, the
    ``sim`` / ``network`` conveniences, ``ready`` / ``aclose``) is
    forwarded untouched.
    """

    def __init__(self, tracer: Tracer, inner) -> None:
        self._tracer = tracer
        self._inner = inner
        self.kind = inner.kind
        sim = inner.kind == "sim"
        scheduler = "simnet.simulator" if sim else "runtime.aio"
        self._transport_layer = transport = "simnet.network" if sim else "runtime.aio"
        wrap = tracer.wrap
        self._schedule = wrap(inner.schedule, "Scheduler.schedule", scheduler)
        self._schedule_at = wrap(inner.schedule_at, "Scheduler.schedule_at", scheduler)
        self._call_every = wrap(inner.call_every, "Scheduler.call_every", scheduler)
        self._cancel = wrap(lambda handle: handle.cancel(), "TimerHandle.cancel", scheduler)
        self._send_udp = wrap(inner.send_udp, "Transport.send_udp", transport, message_arg=2)
        self.multicast = wrap(inner.multicast, "Transport.multicast", transport, message_arg=2)
        self._callbacks: dict[object, Callable] = {}

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    @property
    def now(self) -> float:
        return self._inner.now

    def _callback(self, fn) -> Callable:
        """Engine span for a timer callback (cached per callable where
        the callable is hashable and long-lived, i.e. bound methods)."""
        try:
            wrapped = self._callbacks.get(fn)
        except TypeError:
            return self._tracer.wrap(fn)
        if wrapped is None:
            wrapped = self._tracer.wrap(fn)
            if getattr(fn, "__self__", None) is not None:
                self._callbacks[fn] = wrapped
        return wrapped

    # -- scheduler -------------------------------------------------------
    def schedule(self, delay, fn, *args):
        return _TracedHandle(self._schedule(delay, self._callback(fn), *args), self._cancel)

    def schedule_at(self, when, fn, *args):
        return _TracedHandle(self._schedule_at(when, self._callback(fn), *args), self._cancel)

    def call_every(self, interval, fn, *args, first_delay=None):
        return _TracedHandle(
            self._call_every(interval, self._callback(fn), *args, first_delay=first_delay),
            self._cancel,
        )

    # -- transport -------------------------------------------------------
    def send_udp(self, src, dst, message) -> None:
        self._send_udp(src, dst, message)

    def bind_udp(self, endpoint, handler) -> None:
        self._inner.bind_udp(endpoint, self._tracer.wrap(handler, message_arg=0))

    def listen_tcp(self, endpoint, on_accept) -> None:
        wrapped = self._tracer.wrap(on_accept)
        self._inner.listen_tcp(endpoint, lambda conn: wrapped(self._link(conn)))

    def connect_tcp(self, src, dst, on_connected) -> None:
        wrapped = self._tracer.wrap(on_connected)
        self._inner.connect_tcp(src, dst, lambda conn: wrapped(self._link(conn)))

    def _link(self, conn) -> _TracedLink:
        return _TracedLink(self._tracer, conn, self._transport_layer)
