"""Continuous profiling: timer-driven stack sampling, collapsed stacks.

An opt-in :class:`SamplingProfiler` for the cluster workers (most
usefully the load generator, whose sharding is the next ROADMAP item):
a daemon thread wakes at a fixed rate, grabs the target thread's
current frame via ``sys._current_frames()``, and walks it into a
``module:function`` stack tuple.  Aggregation is a plain dict of
``stack -> sample count``, rendered two ways:

* :meth:`collapsed` -- Brendan-Gregg collapsed-stack text
  (``root;child;leaf count`` per line), the input format every
  flamegraph renderer understands;
* :meth:`attribution` -- a per-subsystem CPU attribution table
  (samples bucketed by the innermost ``repro.*`` module on the stack),
  so "where does the load generator spend its time" is a table in the
  worker's final frame (its exit report), not a guess.

Cost model: **zero when off** -- nothing is constructed, no signal
handlers are installed, no thread exists.  When on, the sampler runs in
its own thread and never touches the event loop; a sample is one
``sys._current_frames()`` call plus a bounded frame walk, and the GIL
makes the walk safe without stopping the world.  A wall-clock sampler
slightly over-counts blocking waits relative to a CPU-timer one; for an
asyncio worker that is the honest picture (time parked on the selector
shows up as ``selectors:select``).
"""

from __future__ import annotations

import sys
import threading
import time

__all__ = ["SamplingProfiler", "DEFAULT_RATE_HZ", "MAX_STACK_DEPTH"]

DEFAULT_RATE_HZ = 97.0  # prime-ish, avoids phase-locking with 10ms timers
MAX_STACK_DEPTH = 64


class SamplingProfiler:
    """Sample one thread's stack at a fixed rate into collapsed stacks."""

    def __init__(self, rate_hz: float = DEFAULT_RATE_HZ) -> None:
        if rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {rate_hz}")
        self.rate_hz = float(rate_hz)
        self.samples = 0
        #: ``(frame, ..., leaf) -> count``; frames are ``module:function``.
        self.stacks: dict[tuple[str, ...], int] = {}
        self._target: int | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.started_at: float | None = None
        self.stopped_at: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> None:
        """Begin sampling the calling thread."""
        if self._thread is not None:
            return
        self._target = threading.get_ident()
        self._stop.clear()
        self.started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="sampling-profiler"
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None
        self.stopped_at = time.monotonic()

    def _loop(self) -> None:
        period = 1.0 / self.rate_hz
        while not self._stop.wait(period):
            self.sample_once()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_once(self) -> None:
        """Take one sample of the target thread's stack (public for tests)."""
        frame = sys._current_frames().get(self._target)
        if frame is None:
            return
        stack: list[str] = []
        depth = 0
        while frame is not None and depth < MAX_STACK_DEPTH:
            code = frame.f_code
            module = frame.f_globals.get("__name__", "?")
            stack.append(f"{module}:{code.co_name}")
            frame = frame.f_back
            depth += 1
        stack.reverse()  # root first, leaf last: collapsed-stack order
        key = tuple(stack)
        self.stacks[key] = self.stacks.get(key, 0) + 1
        self.samples += 1

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def collapsed(self) -> list[str]:
        """Collapsed-stack lines (``a;b;c count``), heaviest first."""
        rows = sorted(self.stacks.items(), key=lambda kv: (-kv[1], kv[0]))
        return [f"{';'.join(stack)} {count}" for stack, count in rows]

    def attribution(self) -> dict[str, dict[str, float]]:
        """Samples bucketed by the innermost ``repro.*`` module on stack.

        Frames outside the package (asyncio, selectors, json...) fall
        into an ``<other>`` bucket keyed by their top-level module, so
        event-loop overhead is visible rather than silently folded into
        protocol code.
        """
        buckets: dict[str, int] = {}
        for stack, count in self.stacks.items():
            bucket = None
            for entry in reversed(stack):  # innermost repro frame wins
                module = entry.partition(":")[0]
                if module == "repro" or module.startswith("repro."):
                    bucket = module
                    break
            if bucket is None:
                leaf = stack[-1].partition(":")[0] if stack else "?"
                bucket = f"<other> {leaf.partition('.')[0]}"
            buckets[bucket] = buckets.get(bucket, 0) + count
        total = self.samples or 1
        return {
            name: {"samples": n, "percent": 100.0 * n / total}
            for name, n in sorted(buckets.items(), key=lambda kv: -kv[1])
        }

    def report(self) -> dict:
        """JSON-serialisable block of a worker's final frame."""
        elapsed = None
        if self.started_at is not None:
            end = self.stopped_at if self.stopped_at is not None else time.monotonic()
            elapsed = end - self.started_at
        return {
            "rate_hz": self.rate_hz,
            "samples": self.samples,
            "elapsed": elapsed,
            "collapsed": self.collapsed(),
            "attribution": self.attribution(),
        }
