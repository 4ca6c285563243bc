"""Delay estimation, weighting, and target-set selection.

Section 6 of the paper: the requesting node estimates one-way delays by
subtracting the NTP timestamp inside each response from its own NTP
clock; combines the delays with the usage metrics into a score; and
shortlists the top brokers into a **target set** T (|T| <= N, typically
around 10) that the ping phase then measures precisely.

Section 9 prints the scoring skeleton: memory factors add, link count
subtracts, "OTHER factors may be similarly added" -- the delay enters
here through :attr:`WeightConfig.delay_penalty_per_ms`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import Endpoint
from repro.core.messages import DiscoveryResponse
from repro.core.metrics import WeightConfig, broker_weight

__all__ = ["Candidate", "make_candidate", "select_target_set"]


@dataclass(slots=True)
class Candidate:
    """One responding broker, as seen by the requesting node.

    Attributes
    ----------
    response:
        The raw discovery response.
    received_at:
        Requester's NTP-corrected UTC time of arrival.
    estimated_delay:
        NTP-derived one-way delay estimate in seconds (clamped at 0:
        the 1-20 ms NTP residual can push nearby brokers negative).
    weight:
        The usage-metric weight (paper formula).
    score:
        Combined selection score: weight minus the delay penalty.
    """

    response: DiscoveryResponse
    received_at: float
    estimated_delay: float
    weight: float
    score: float

    @property
    def broker_id(self) -> str:
        return self.response.broker_id

    def has_transport(self, proto: str) -> bool:
        """True if the broker advertised a ``proto`` transport."""
        return self.response.port_for(proto) is not None

    def missing_transports(self, required: tuple[str, ...]) -> tuple[str, ...]:
        """The subset of ``required`` transports this broker lacks."""
        return tuple(p for p in required if not self.has_transport(p))

    @property
    def udp_endpoint(self) -> Endpoint:
        """Where to ping this broker."""
        return self._endpoint("udp")

    @property
    def tcp_endpoint(self) -> Endpoint:
        """Where to connect to this broker after selection."""
        return self._endpoint("tcp")

    def _endpoint(self, proto: str) -> Endpoint:
        port = self.response.port_for(proto)
        if port is None:
            # Port 0 used to be silently substituted here, producing
            # pings/connections into the void; callers must exclude
            # transport-less candidates up front (see required_transports
            # in select_target_set).
            raise ValueError(
                f"broker {self.broker_id!r} advertised no {proto!r} transport"
            )
        return Endpoint(self.response.hostname, port)


def make_candidate(
    response: DiscoveryResponse,
    received_at_utc: float,
    weights: WeightConfig,
) -> Candidate:
    """Build a scored candidate from one response.

    The delay estimate is ``received_at_utc - response.issued_at``:
    both are NTP-corrected UTC readings, so the estimate is accurate to
    the sum of the two nodes' NTP residuals (1-20 ms each) -- "a very
    good estimate" per the paper, but not final-decision grade.
    """
    estimated = max(0.0, received_at_utc - response.issued_at)
    weight = broker_weight(response.metrics, weights)
    score = weight - estimated * 1000.0 * weights.delay_penalty_per_ms
    return Candidate(
        response=response,
        received_at=received_at_utc,
        estimated_delay=estimated,
        weight=weight,
        score=score,
    )


def select_target_set(
    candidates: list[Candidate],
    size: int,
    required_transports: tuple[str, ...] = (),
) -> list[Candidate]:
    """Shortlist the top-``size`` candidates by combined score.

    "The received results are then sorted using the weights and we
    select the first size(T) brokers to arrive at the broker target
    set" (section 9).  Ties break toward the lower estimated delay,
    then lexical broker id (determinism).

    Duplicate broker ids (a broker that answered both a transmission
    and a retransmission) are collapsed, keeping the earliest arrival.
    Candidates missing any of ``required_transports`` are excluded: the
    ping phase needs a UDP endpoint and the final connection a TCP one,
    and a shortlisted broker without them would be pinged at port 0.
    """
    if size < 1:
        raise ValueError("target set size must be >= 1")
    if required_transports:
        candidates = [c for c in candidates if not c.missing_transports(required_transports)]
    best_per_broker: dict[str, Candidate] = {}
    for cand in candidates:
        prior = best_per_broker.get(cand.broker_id)
        if prior is None or cand.received_at < prior.received_at:
            best_per_broker[cand.broker_id] = cand
    ranked = sorted(
        best_per_broker.values(),
        key=lambda c: (-c.score, c.estimated_delay, c.broker_id),
    )
    return ranked[:size]
