"""The ``trace`` CLI target: one discovery request, fully reconstructed.

``python -m repro.experiments trace`` runs a single traced discovery
and prints the cross-node flight-recorder timeline -- which BDN
injected the request where, which brokers suppressed duplicates, the
fate of every response -- plus an ASCII per-phase chart mirroring
Figures 9/11, cross-checked against the requester's own
:class:`~repro.discovery.phases.PhaseTimer` percentages.

The same reconstruction runs under both runtimes:

* ``--trace-runtime sim`` (default) builds the observed simulated star
  world (virtual clock; agreement with the PhaseTimer is exact);
* ``--trace-runtime aio`` boots a real-socket localhost world (wall
  clock; agreement is within measurement noise, bounded at 1 point);
* ``--trace-runtime both`` runs the two back to back.

``--prom-out PATH`` additionally dumps the final metrics registry in
Prometheus text exposition format.
"""

from __future__ import annotations

import asyncio
import sys

from repro.experiments.scenarios import DiscoveryScenario, ScenarioSpec
from repro.obs import Observability
from repro.obs.export import prometheus_text
from repro.obs.timeline import assemble, phase_agreement, render_ascii

__all__ = ["run_trace", "trace_sim", "trace_aio", "EXIT_NO_TIMELINE", "NoTimelineError"]

#: Largest tolerated |timeline% - PhaseTimer%| over all phases, in
#: percentage points (the subsystem's acceptance bound).
AGREEMENT_BOUND = 1.0

#: Exit code when the traced request id assembled an *empty* timeline
#: (no recorder saw the trace at all) -- distinct from 1, which means
#: the discovery ran and was reconstructed but failed a check.
EXIT_NO_TIMELINE = 3

#: Wall seconds the real-socket discovery may take.
_AIO_TIMEOUT = 15.0


class NoTimelineError(RuntimeError):
    """The requested run id produced no flight-recorder events."""


def _render(obs: Observability, outcome, runtime_label: str) -> tuple[bool, str]:
    timeline = assemble(obs, outcome.request_uuid)
    if not len(timeline):
        raise NoTimelineError(
            f"run id {outcome.request_uuid!r} has no assembled timeline: "
            "no flight recorder captured any event for it (was tracing "
            "enabled, or did the ring evict the run?)"
        )
    agreement = phase_agreement(timeline, outcome.phases.percentages())
    within = agreement < AGREEMENT_BOUND
    verdict = "within" if within else "EXCEEDS"
    lines = [
        f"=== {runtime_label} ===",
        render_ascii(timeline),
        "",
        f"PhaseTimer cross-check: max |timeline% - timer%| = "
        f"{agreement:.3f} points ({verdict} the {AGREEMENT_BOUND:.0f}-point bound)",
    ]
    ok = bool(outcome.success) and timeline.is_complete() and within
    return ok, "\n".join(lines)


def trace_sim(
    seed: int = 42, topology: str = "star"
) -> tuple[bool, str, Observability]:
    """One observed discovery in the simulator; returns (ok, text, obs)."""
    spec_for = {
        "unconnected": ScenarioSpec.unconnected,
        "star": ScenarioSpec.star,
        "linear": ScenarioSpec.linear,
    }
    scenario = DiscoveryScenario(spec_for[topology](seed=seed), observe=True)
    outcome = scenario.run_one()
    ok, text = _render(scenario.obs, outcome, f"Network (sim runtime), {topology} topology")
    return ok, text, scenario.obs


async def _trace_aio(seed: int) -> tuple[bool, str, Observability]:
    from repro.experiments.harness import star_world
    from repro.runtime import create_runtime

    rt = create_runtime("aio")
    obs = Observability.for_runtime(rt)
    rt.attach_observability(obs)
    world = star_world(rt, seed, obs)
    await rt.ready()
    for node in world.nodes():
        node.ntp.sync_now()
    world.advertise()

    done: asyncio.Future = asyncio.get_event_loop().create_future()
    world.client.discover(done.set_result)
    try:
        outcome = await asyncio.wait_for(done, timeout=_AIO_TIMEOUT)
    except asyncio.TimeoutError:
        await rt.aclose()
        return False, "=== AioRuntime ===\nFAIL: discovery timed out", obs
    try:
        ok, text = _render(obs, outcome, "AioRuntime, localhost sockets")
    finally:
        await rt.aclose()
    if rt.errors:
        ok = False
        text += f"\nFAIL: handler errors: {rt.errors}"
    return ok, text, obs


def trace_aio(seed: int = 42) -> tuple[bool, str, Observability]:
    """One observed discovery over real sockets; returns (ok, text, obs)."""
    return asyncio.run(_trace_aio(seed))


def run_trace(
    runtime: str = "sim",
    seed: int = 42,
    topology: str = "star",
    prom_out: str | None = None,
) -> int:
    """Run the trace target; prints the report, returns an exit code.

    With ``--prom-out`` the metrics registry of the *last* world run is
    written in Prometheus text exposition format.
    """
    runtimes = ("sim", "aio") if runtime == "both" else (runtime,)
    all_ok = True
    last_obs: Observability | None = None
    blocks = []
    for kind in runtimes:
        try:
            if kind == "sim":
                ok, text, obs = trace_sim(seed=seed, topology=topology)
            else:
                ok, text, obs = trace_aio(seed=seed)
        except NoTimelineError as exc:
            print("\n\n".join(blocks + [f"=== {kind} ===\nERROR: {exc}"]))
            return EXIT_NO_TIMELINE
        all_ok = all_ok and ok
        last_obs = obs
        blocks.append(text)
    print("\n\n".join(blocks))
    if prom_out and last_obs is not None:
        with open(prom_out, "w", encoding="utf-8") as fh:
            fh.write(prometheus_text(last_obs.registry))
        print(f"\nwrote Prometheus metrics to {prom_out}", file=sys.stderr)
    return 0 if all_ok else 1
