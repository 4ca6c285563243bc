"""The sampling profiler: stack capture, collapsed output, attribution."""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs.profiling import SamplingProfiler


def spin(stop: threading.Event) -> None:
    while not stop.is_set():
        busy_leaf()


def busy_leaf() -> None:
    sum(range(200))


class TestValidation:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            SamplingProfiler(rate_hz=0)


class TestSampling:
    def test_sample_once_captures_the_target_stack(self):
        profiler = SamplingProfiler()
        stop = threading.Event()
        worker = threading.Thread(target=spin, args=(stop,), daemon=True)
        worker.start()
        profiler._target = worker.ident
        try:
            for _ in range(50):
                profiler.sample_once()
        finally:
            stop.set()
            worker.join()
        assert profiler.samples == 50
        flat = "\n".join(profiler.collapsed())
        assert "spin" in flat

    def test_collapsed_lines_are_stack_space_count(self):
        profiler = SamplingProfiler()
        profiler.stacks[("mod:root", "mod:leaf")] = 3
        profiler.stacks[("mod:root",)] = 1
        profiler.samples = 4
        assert profiler.collapsed() == ["mod:root;mod:leaf 3", "mod:root 1"]

    @pytest.mark.real_loop("a sampler thread against a busy wait: both run in wall time, no loop")
    def test_thread_driven_run_collects_at_roughly_the_rate(self):
        profiler = SamplingProfiler(rate_hz=200.0)
        profiler.start()  # samples this thread, which stays busy
        deadline = time.monotonic() + 0.25
        while time.monotonic() < deadline:
            busy_leaf()
        profiler.stop()
        assert profiler.samples > 5  # loose: CI boxes stall
        assert not profiler.running

    def test_start_twice_is_a_noop(self):
        profiler = SamplingProfiler(rate_hz=200.0)
        profiler.start()
        thread = profiler._thread
        profiler.start()
        assert profiler._thread is thread
        profiler.stop()
        profiler.stop()  # idempotent


class TestAttribution:
    def test_innermost_repro_frame_wins(self):
        profiler = SamplingProfiler()
        profiler.stacks[
            ("asyncio.base_events:run", "repro.cluster.worker:run",
             "repro.discovery.requester:discover", "json:dumps")
        ] = 7
        profiler.samples = 7
        attribution = profiler.attribution()
        assert list(attribution) == ["repro.discovery.requester"]
        assert attribution["repro.discovery.requester"]["percent"] == 100.0

    def test_non_repro_stacks_bucket_as_other(self):
        profiler = SamplingProfiler()
        profiler.stacks[("selectors:select",)] = 3
        profiler.stacks[("repro.obs.live:fold",)] = 1
        profiler.samples = 4
        attribution = profiler.attribution()
        assert attribution["<other> selectors"]["samples"] == 3
        assert attribution["repro.obs.live"]["samples"] == 1
        assert attribution["<other> selectors"]["percent"] == 75.0


class TestReport:
    def test_report_is_json_shaped(self):
        profiler = SamplingProfiler(rate_hz=50.0)
        profiler.stacks[("a:b",)] = 2
        profiler.samples = 2
        report = profiler.report()
        assert report["rate_hz"] == 50.0
        assert report["samples"] == 2
        assert report["collapsed"] == ["a:b 2"]
        assert report["elapsed"] is None  # never started
