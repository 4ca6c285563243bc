"""Equivalence of the hierarchical timer wheel and the reference heap.

The wheel (``Simulator("wheel")``) is a drop-in replacement for the
binary-heap scheduler (``Simulator("heap")``): same ``(time, seq)`` fire
order, same ``events_processed``, same clock, same pending count, for
*any* interleaving of schedule / schedule_at / fire-and-forget / cancel
/ call_every operations.  The golden digests pin this for whole
experiments; this suite pins it property-style at the scheduler level,
letting hypothesis hunt for adversarial interleavings (same-tick
batches, sub-tick intervals, cross-level cascades, cancels between
levels).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.simulator import Simulator
from repro.simnet.wheel import TimerWheel

# Delays chosen to straddle the wheel's level boundaries (granularity
# 1 ms, 8 bits per level): same-tick, sub-tick, L0, the L0/L1 edge at
# 256 ticks, the L1/L2 edge at 65536 ticks, and the far-future L3
# catch-all.
_DELAYS = [
    0.0,
    1e-5,
    4.2e-4,
    1e-3,
    0.001999,
    0.004,
    0.2549,
    0.2551,
    0.256,
    1.0,
    3.14159,
    65.535,
    65.537,
    20000.0,
]

_INTERVALS = [1e-5, 1e-3, 0.0037, 0.255, 0.3, 2.5]

_op = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("schedule_at"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("fire"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(
        st.just("every"),
        st.sampled_from(_INTERVALS),
        st.integers(min_value=1, max_value=5),
    ),
    st.tuples(st.just("run"), st.sampled_from([0.0005, 0.01, 0.3, 2.0])),
)


def _execute(program, mode: str):
    """Interpret ``program`` on a fresh simulator; return its trace."""
    sim = Simulator(mode)
    log: list[tuple] = []
    handles: list = []

    def record(tag: str) -> None:
        log.append((tag, sim.now))

    for step, op in enumerate(program):
        kind = op[0]
        if kind == "schedule":
            handles.append(sim.schedule(op[1], record, f"s{step}"))
        elif kind == "schedule_at":
            handles.append(sim.schedule_at(sim.now + op[1], record, f"a{step}"))
        elif kind == "fire":
            sim.schedule_fire(op[1], record, f"f{step}")
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "every":
            interval, limit = op[1], op[2]
            state = {"fired": 0, "handle": None}

            def tick(state=state, tag=f"e{step}", limit=limit) -> None:
                state["fired"] += 1
                log.append((tag, state["fired"], sim.now))
                if state["fired"] >= limit:
                    state["handle"].cancel()

            state["handle"] = sim.call_every(interval, tick)
            handles.append(state["handle"])
        elif kind == "run":
            sim.run_for(op[1])
    sim.run()  # drain everything still queued (periodics self-cancel)
    return log, sim.events_processed, sim.now, sim.pending


@settings(max_examples=60, deadline=None)
@given(program=st.lists(_op, min_size=1, max_size=40))
def test_wheel_matches_reference_heap(program):
    """Identical trace on every random schedule/cancel/call_every mix."""
    wheel = _execute(program, "wheel")
    heap = _execute(program, "heap")
    assert wheel == heap


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=50, max_value=300),
)
def test_wheel_matches_heap_on_bulk_random_delays(seed, n):
    """Bulk inserts with numpy-random delays fire in identical order."""
    import numpy as np

    delays = np.random.default_rng(seed).uniform(0.0, 300.0, size=n)
    logs = []
    for mode in ("wheel", "heap"):
        sim = Simulator(mode)
        log = []
        for i, d in enumerate(delays):
            sim.schedule(float(d), lambda i=i, s=sim: log.append((i, s.now)))
        sim.run()
        logs.append((log, sim.events_processed, sim.now))
    assert logs[0] == logs[1]


class TestTimerWheelUnit:
    """Direct checks of the wheel structure's invariants."""

    def test_tick_mapping(self):
        wheel = TimerWheel()
        assert wheel.tick_of(0.0) == 0
        assert wheel.tick_of(1.0) == 1000
        assert wheel.tick_of(0.0005) == 0  # sub-granularity shares tick 0

    def test_invalid_granularity(self):
        with pytest.raises(ValueError):
            TimerWheel(granularity=0.0)
        with pytest.raises(ValueError):
            TimerWheel(granularity=-1e-3)

    def test_promote_returns_batches_in_tick_order(self):
        wheel = TimerWheel()
        # One entry per level: L0 (tick 5), L1 (tick 300), L2 (tick
        # 70000), L3 (tick 2**25).
        for tick in (2**25, 70000, 300, 5):
            t = tick * wheel.granularity
            wheel.insert((t, tick, lambda: None, ()), tick)
        seen = []
        while True:
            batch = wheel.promote()
            if batch is None:
                break
            seen.extend(e[1] for e in batch)
        assert seen == [5, 300, 70000, 2**25]

    def test_same_tick_entries_batch_together(self):
        wheel = TimerWheel()
        for seq in range(4):
            wheel.insert((0.01, seq, lambda: None, ()), 10)
        batch = wheel.promote()
        assert [e[1] for e in batch] == [0, 1, 2, 3]
        assert wheel.promote() is None

    def test_sweep_drops_cancelled_bucketed_entries(self):
        sim = Simulator("wheel")
        handles = [sim.schedule(5.0 + i * 0.001, lambda: None) for i in range(200)]
        before = sim.queue_size
        for h in handles:
            h.cancel()
        assert sim.compactions >= 1
        assert sim.queue_size < before

    def test_cancelled_entry_never_fires_after_cascade(self):
        # Cancel an entry parked in a coarse level; the cascade must
        # drop it instead of delivering it to L0.
        sim = Simulator("wheel")
        fired = []
        victim = sim.schedule(70.0, fired.append, "victim")
        sim.schedule(70.0, fired.append, "survivor")
        sim.run_for(30.0)  # let time pass, victim still parked coarse
        victim.cancel()
        sim.run_for(50.0)
        assert fired == ["survivor"]
