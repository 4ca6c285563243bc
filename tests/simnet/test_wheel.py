"""Equivalence of the timer wheel and the reference heap.

The wheel (``Simulator("wheel")``) is a drop-in replacement for the
binary-heap scheduler (``Simulator("heap")``): same ``(time, seq)`` fire
order, same ``events_processed``, same clock, same pending count, for
*any* interleaving of schedule / schedule_at / fire-and-forget / cancel
/ call_every operations.  The golden digests pin this for whole
experiments; this suite pins it property-style at the scheduler level,
letting hypothesis hunt for adversarial interleavings (same-slot
batches, sub-slot intervals, times a hair either side of a slot edge,
runs that stop inside a promoted slot, cancels of far-slot entries).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.simulator import Simulator
from repro.simnet.wheel import INV_SLOT_WIDTH, SLOT_WIDTH, TimerWheel

_EDGE = 1e-9

# Delays chosen to straddle the wheel's slot edges: same-slot and
# sub-slot, ``k * SLOT_WIDTH`` and a hair either side of it for the
# first slots, a float sum that lands just under an edge
# (0.1 * 10 accumulates to 0.9999999999999999), and far-future slots.
_DELAYS = [
    0.0,
    1e-5,
    4.2e-4,
    0.1 + 0.2,
    sum([0.1] * 10) * SLOT_WIDTH,
    *(k * SLOT_WIDTH + d for k in (1, 2, 3) for d in (-_EDGE, 0.0, _EDGE)),
    30.0 * SLOT_WIDTH - _EDGE,
    30.0 * SLOT_WIDTH,
    20000.0,
]

_INTERVALS = [1e-5, 1e-3, 0.0037, 0.3, SLOT_WIDTH, 2.5 * SLOT_WIDTH]

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
    # Runs of 0.1 and 1/3 slot drift ``now`` off the decimal grid, so
    # ``now + delay`` is a float sum that can round across a slot edge.
    st.tuples(
        st.just("run"),
        st.sampled_from([0.0005, 0.01, 0.1 * SLOT_WIDTH, SLOT_WIDTH / 3, 2.0 * SLOT_WIDTH]),
    ),
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

    def test_same_tick_entries_batch_together(self):
        wheel = TimerWheel()
        t = 10 * SLOT_WIDTH + 0.01
        for seq in range(4):
            wheel.insert((t, seq, lambda: None, ()), int(t * INV_SLOT_WIDTH))
        batch = wheel.promote()
        assert [e[1] for e in batch] == [0, 1, 2, 3]
        assert wheel.cur_slot == 10
        assert wheel.promote() is None

    def test_sweep_drops_cancelled_bucketed_entries(self):
        sim = Simulator("wheel")
        handles = [sim.schedule(5.0 + i * 0.001, lambda: None) for i in range(200)]
        before = sim.queue_size
        for h in handles:
            h.cancel()
        assert sim.compactions >= 1
        assert sim.queue_size < before

    def test_cancelled_far_slot_entry_never_fires(self):
        # Cancel an entry parked in a far slot before that slot is
        # promoted; promotion must drop it instead of delivering it.
        sim = Simulator("wheel")
        fired = []
        victim = sim.schedule(70.0 * SLOT_WIDTH, fired.append, "victim")
        sim.schedule(70.0 * SLOT_WIDTH, fired.append, "survivor")
        sim.run_for(30.0 * SLOT_WIDTH)  # time passes, victim still bucketed
        victim.cancel()
        sim.run_for(50.0 * SLOT_WIDTH)
        assert fired == ["survivor"]
        assert sim.pending == 0 and sim.queue_size == 0

    def test_run_until_inside_a_promoted_slot_then_schedule_behind_it(self):
        # ``run(until=)`` promotes the slot holding the next entry, then
        # stops short of it (here before the slot even starts).  An
        # event scheduled afterwards at an earlier slot must go to the
        # active heap and fire first; one in a later slot must join that
        # slot's bucket behind the entry already waiting there.
        logs = []
        for mode in ("wheel", "heap"):
            sim = Simulator(mode)
            log = []
            sim.schedule(5.5 * SLOT_WIDTH, lambda s=sim: log.append(("far", s.now)))
            sim.schedule(6.2 * SLOT_WIDTH, lambda s=sim: log.append(("next", s.now)))
            sim.run(until=2.0 * SLOT_WIDTH)
            assert sim.now == 2.0 * SLOT_WIDTH and log == []
            sim.schedule_at(3.0 * SLOT_WIDTH, lambda s=sim: log.append(("behind", s.now)))
            sim.schedule_at(5.5 * SLOT_WIDTH - _EDGE, lambda s=sim: log.append(("edge", s.now)))
            sim.schedule_at(6.7 * SLOT_WIDTH, lambda s=sim: log.append(("after", s.now)))
            sim.run(until=5.2 * SLOT_WIDTH)
            sim.schedule_at(5.3 * SLOT_WIDTH, lambda s=sim: log.append(("same", s.now)))
            sim.run()
            logs.append(log)
        assert logs[0] == logs[1]
        assert [tag for tag, _ in logs[0]] == ["behind", "same", "edge", "far", "next", "after"]
