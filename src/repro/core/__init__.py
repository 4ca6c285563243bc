"""Core data types shared by every subsystem.

This package holds the vocabulary of the whole reproduction: wire
messages (events, advertisements, discovery requests/responses, pings),
their binary codec, the UUID-based duplicate-detection cache each broker
keeps (paper section 4), broker usage metrics and the weighted scoring
formula (paper section 9), and the configuration records that every node
type is built from.

Nothing in :mod:`repro.core` knows about the simulator, brokers, or
BDNs -- it is pure data and pure functions, which keeps it trivially
testable and reusable from both the simulated substrate and the
experiment harness.
"""

from repro.core.errors import (
    ReproError,
    CodecError,
    ConfigError,
    SecurityError,
    TransportError,
    DiscoveryError,
)
from repro.core.ids import IdGenerator
from repro.core.dedup import DedupCache
from repro.core.metrics import UsageMetrics, WeightConfig, broker_weight
from repro.core.config import (
    Endpoint,
    BrokerConfig,
    BDNConfig,
    ClientConfig,
    ResponsePolicyConfig,
)
from repro.core.messages import (
    Message,
    Event,
    Ack,
    BrokerAdvertisement,
    DiscoveryRequest,
    DiscoveryResponse,
    PingRequest,
    PingResponse,
    Subscribe,
    Unsubscribe,
)
from repro.core.codec import (
    encode_message,
    decode_message,
    lazy_decode,
    LazyMessage,
    wire_size,
)

__all__ = [
    "ReproError",
    "CodecError",
    "ConfigError",
    "SecurityError",
    "TransportError",
    "DiscoveryError",
    "IdGenerator",
    "DedupCache",
    "UsageMetrics",
    "WeightConfig",
    "broker_weight",
    "Endpoint",
    "BrokerConfig",
    "BDNConfig",
    "ClientConfig",
    "ResponsePolicyConfig",
    "Message",
    "Event",
    "Ack",
    "BrokerAdvertisement",
    "DiscoveryRequest",
    "DiscoveryResponse",
    "PingRequest",
    "PingResponse",
    "Subscribe",
    "Unsubscribe",
    "encode_message",
    "decode_message",
    "lazy_decode",
    "LazyMessage",
    "wire_size",
]
