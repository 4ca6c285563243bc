"""X.509-like certificates and chain validation.

Figure 13 of the paper times "validating a X.509 Certificate" --
checking a client certificate's signature chain up to a trusted root,
plus validity dates.  This module provides exactly that pipeline:

* :class:`Certificate` -- subject, issuer, public key, validity window,
  serial, and an RSA signature by the issuer over the TBS bytes.
* :class:`CertificateAuthority` -- a (possibly intermediate) CA that
  can issue end-entity or subordinate-CA certificates.
* :func:`validate_chain` -- walks an end-entity certificate through
  intermediates to a trusted root, verifying every signature, validity
  window, and the CA flag of every issuer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.errors import SecurityError
from repro.security.rsa import RSAPrivateKey, RSAPublicKey, generate_keypair

__all__ = ["Certificate", "CertificateAuthority", "validate_chain"]


@dataclass(frozen=True, slots=True)
class Certificate:
    """A simplified X.509 certificate.

    Attributes
    ----------
    subject / issuer:
        Distinguished names (plain strings here).
    public_key:
        The subject's RSA public key.
    not_before / not_after:
        Validity window, in the same time unit the validator is given
        (experiments pass simulated seconds).
    serial:
        Issuer-unique serial number.
    is_ca:
        Whether the subject may itself issue certificates.
    signature:
        Issuer's RSA signature over :meth:`tbs_bytes`.
    """

    subject: str
    issuer: str
    public_key: RSAPublicKey
    not_before: float
    not_after: float
    serial: int
    is_ca: bool
    signature: bytes

    def tbs_bytes(self) -> bytes:
        """The to-be-signed byte encoding (everything but the signature)."""
        parts = [
            self.subject.encode(),
            self.issuer.encode(),
            self.public_key.n.to_bytes(self.public_key.byte_size, "big"),
            self.public_key.e.to_bytes(4, "big"),
            repr(self.not_before).encode(),
            repr(self.not_after).encode(),
            self.serial.to_bytes(8, "big"),
            b"\x01" if self.is_ca else b"\x00",
        ]
        return b"\x1f".join(parts)

    def verify_signed_by(self, issuer_key: RSAPublicKey) -> bool:
        """Check this certificate's signature against an issuer key."""
        return issuer_key.verify(self.tbs_bytes(), self.signature)


class CertificateAuthority:
    """A certificate authority with its own keypair.

    Parameters
    ----------
    name:
        The CA's distinguished name.
    keypair:
        Pre-generated keys, or None to generate.
    bits:
        Key size when generating.
    rng:
        Randomness for key generation.

    Examples
    --------
    >>> rng = np.random.default_rng(0)
    >>> root = CertificateAuthority("root", bits=512, rng=rng)
    >>> cert = root.issue("client-1", generate_keypair(512, rng).public,
    ...                   not_before=0.0, not_after=1e9)
    >>> validate_chain(cert, [], {root.certificate.subject: root.certificate}, now=5.0)
    """

    def __init__(
        self,
        name: str,
        bits: int = 1024,
        rng: np.random.Generator | None = None,
        parent: "CertificateAuthority | None" = None,
    ) -> None:
        self.name = name
        self.keypair = generate_keypair(bits, rng)
        self._serial = 0
        if parent is None:
            # Self-signed root.
            self.certificate = _make_cert(
                subject=name,
                issuer=name,
                public_key=self.keypair.public,
                signer=self.keypair.private,
                not_before=0.0,
                not_after=math.inf,
                serial=0,
                is_ca=True,
            )
        else:
            self.certificate = parent.issue(
                name,
                self.keypair.public,
                not_before=0.0,
                not_after=math.inf,
                is_ca=True,
            )

    def issue(
        self,
        subject: str,
        public_key: RSAPublicKey,
        not_before: float,
        not_after: float,
        is_ca: bool = False,
    ) -> Certificate:
        """Issue a certificate for ``subject`` signed by this CA."""
        if not_after <= not_before:
            raise SecurityError("certificate validity window is empty")
        self._serial += 1
        return _make_cert(
            subject=subject,
            issuer=self.name,
            public_key=public_key,
            signer=self.keypair.private,
            not_before=not_before,
            not_after=not_after,
            serial=self._serial,
            is_ca=is_ca,
        )


def _make_cert(
    subject: str,
    issuer: str,
    public_key: RSAPublicKey,
    signer: RSAPrivateKey,
    not_before: float,
    not_after: float,
    serial: int,
    is_ca: bool,
) -> Certificate:
    unsigned = Certificate(
        subject=subject,
        issuer=issuer,
        public_key=public_key,
        not_before=not_before,
        not_after=not_after,
        serial=serial,
        is_ca=is_ca,
        signature=b"",
    )
    signature = signer.sign(unsigned.tbs_bytes())
    return Certificate(
        subject=subject,
        issuer=issuer,
        public_key=public_key,
        not_before=not_before,
        not_after=not_after,
        serial=serial,
        is_ca=is_ca,
        signature=signature,
    )


def validate_chain(
    certificate: Certificate,
    intermediates: list[Certificate],
    trusted_roots: dict[str, Certificate],
    now: float,
) -> None:
    """Validate ``certificate`` up to a trusted root.

    Walks issuer links through ``intermediates`` until a trusted root
    signs the top of the chain.  Checks, at every step: the validity
    window against ``now``, that the issuer is a CA, and the RSA
    signature.  Raises :class:`SecurityError` on any failure; returns
    None on success (mirrors the JCE ``CertPathValidator`` contract the
    paper's Figure 13 timed).
    """
    by_subject = {c.subject: c for c in intermediates}
    chain: list[Certificate] = [certificate]
    current = certificate
    seen: set[str] = {certificate.subject}
    while current.issuer not in trusted_roots:
        issuer_cert = by_subject.get(current.issuer)
        if issuer_cert is None:
            raise SecurityError(f"no path to a trusted root from {certificate.subject!r}")
        if issuer_cert.subject in seen:
            raise SecurityError("certificate chain contains a cycle")
        seen.add(issuer_cert.subject)
        chain.append(issuer_cert)
        current = issuer_cert
    root = trusted_roots[current.issuer]
    chain.append(root)
    # Verify bottom-up: each certificate against its issuer's key.
    for cert, issuer_cert in zip(chain, chain[1:]):
        if not (cert.not_before <= now <= cert.not_after):
            raise SecurityError(f"certificate {cert.subject!r} outside validity window")
        if not issuer_cert.is_ca:
            raise SecurityError(f"issuer {issuer_cert.subject!r} is not a CA")
        if not cert.verify_signed_by(issuer_cert.public_key):
            raise SecurityError(f"bad signature on certificate {cert.subject!r}")
    if not (root.not_before <= now <= root.not_after):
        raise SecurityError(f"root {root.subject!r} outside validity window")
    if not root.verify_signed_by(root.public_key):
        raise SecurityError(f"trusted root {root.subject!r} failed self-verification")
