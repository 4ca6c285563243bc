"""Exception hierarchy for the reproduction.

Every error raised by library code derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
tests can assert on the precise subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class CodecError(ReproError):
    """Raised when a message cannot be encoded to or decoded from bytes.

    Decoding raises this for truncated buffers, unknown message type
    tags, or field values that fail validation (e.g. negative lengths).

    Encoding raises it for a type with no wire form, a string over
    64 KiB, or a scalar that does not fit its field.

    ``tag`` is the wire type tag of the message being encoded or decoded
    (``None`` if the failure happened before the tag was known) and
    ``offset`` is the byte offset into the buffer where decoding stopped
    (``None`` for encode-side errors, where there is no buffer).
    """

    def __init__(
        self, message: str, *, tag: int | None = None, offset: int | None = None
    ) -> None:
        super().__init__(message)
        self.tag = tag
        self.offset = offset


class ConfigError(ReproError):
    """Raised when a node configuration is internally inconsistent.

    Examples: a client configured with ``max_responses`` smaller than
    ``target_set_size``, or a broker dedup capacity of zero.
    """


class EndpointParseError(ConfigError):
    """Raised when a ``"host:port"`` endpoint string is malformed.

    Covers a missing ``:`` separator, an empty host, a non-numeric
    port, and a port outside ``[1, 65535]``.  A subclass of
    :class:`ConfigError` because the offending strings come from the
    same places configuration does: leader hints on the wire, node
    config files, and cluster specs.
    """


class TransportError(ReproError):
    """Raised on misuse of a simulated transport.

    Examples: sending on a closed TCP connection, binding two endpoints
    to the same (host, port) pair, or using a multicast group that was
    never registered with the network fabric.
    """


class UnknownHostError(TransportError):
    """Raised when a host name is not registered with the transport.

    A distinct subclass so callers probing for registration (e.g. a
    node deciding whether to self-register at construction) can catch
    exactly this case without swallowing real transport bugs.
    """


class DiscoveryError(ReproError):
    """Raised when the discovery protocol cannot make progress.

    The flagship case is a discovery attempt that exhausts every
    fallback (all configured BDNs, multicast, the cached target set)
    without collecting a single usable broker response.
    """


class SecurityError(ReproError):
    """Raised on any cryptographic or policy failure.

    Covers bad signatures, expired or untrusted certificates, rejected
    credentials, and malformed secure envelopes.
    """
