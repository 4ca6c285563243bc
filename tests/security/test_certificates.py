"""Tests for X.509-like certificates and chain validation (Figure 13)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import SecurityError
from repro.security.certificates import CertificateAuthority, validate_chain
from repro.security.rsa import generate_keypair


@pytest.fixture(scope="module")
def pki():
    """root -> intermediate CA, plus an end-entity keypair."""
    rng = np.random.default_rng(2024)
    root = CertificateAuthority("root-ca", bits=512, rng=rng)
    inter = CertificateAuthority("inter-ca", bits=512, rng=rng, parent=root)
    client_keys = generate_keypair(512, rng)
    return root, inter, client_keys


def trusted(root) -> dict:
    return {root.certificate.subject: root.certificate}


class TestIssuance:
    def test_root_is_self_signed(self, pki):
        root, _, _ = pki
        cert = root.certificate
        assert cert.subject == cert.issuer == "root-ca"
        assert cert.is_ca
        assert cert.verify_signed_by(root.keypair.public)

    def test_intermediate_signed_by_root(self, pki):
        root, inter, _ = pki
        assert inter.certificate.issuer == "root-ca"
        assert inter.certificate.verify_signed_by(root.keypair.public)
        assert inter.certificate.is_ca

    def test_end_entity_not_ca(self, pki):
        root, inter, keys = pki
        cert = inter.issue("client", keys.public, not_before=0.0, not_after=100.0)
        assert not cert.is_ca
        assert cert.issuer == "inter-ca"

    def test_serials_increment(self, pki):
        root, inter, keys = pki
        c1 = inter.issue("a", keys.public, 0.0, 100.0)
        c2 = inter.issue("b", keys.public, 0.0, 100.0)
        assert c2.serial == c1.serial + 1

    def test_empty_validity_rejected(self, pki):
        root, inter, keys = pki
        with pytest.raises(SecurityError):
            inter.issue("x", keys.public, not_before=5.0, not_after=5.0)


class TestChainValidation:
    def test_valid_two_level_chain(self, pki):
        root, inter, keys = pki
        cert = root.issue("direct-client", keys.public, 0.0, 100.0)
        validate_chain(cert, [], trusted(root), now=50.0)

    def test_valid_three_level_chain(self, pki):
        root, inter, keys = pki
        cert = inter.issue("client", keys.public, 0.0, 100.0)
        validate_chain(cert, [inter.certificate], trusted(root), now=50.0)

    def test_missing_intermediate_fails(self, pki):
        root, inter, keys = pki
        cert = inter.issue("client", keys.public, 0.0, 100.0)
        with pytest.raises(SecurityError, match="no path"):
            validate_chain(cert, [], trusted(root), now=50.0)

    def test_expired_certificate_fails(self, pki):
        root, inter, keys = pki
        cert = inter.issue("client", keys.public, 0.0, 100.0)
        with pytest.raises(SecurityError, match="validity"):
            validate_chain(cert, [inter.certificate], trusted(root), now=200.0)

    def test_not_yet_valid_fails(self, pki):
        root, inter, keys = pki
        cert = inter.issue("client", keys.public, 50.0, 100.0)
        with pytest.raises(SecurityError, match="validity"):
            validate_chain(cert, [inter.certificate], trusted(root), now=10.0)

    def test_forged_signature_fails(self, pki):
        root, inter, keys = pki
        cert = inter.issue("client", keys.public, 0.0, 100.0)
        forged = type(cert)(
            subject="client",
            issuer=cert.issuer,
            public_key=cert.public_key,
            not_before=cert.not_before,
            not_after=cert.not_after,
            serial=cert.serial,
            is_ca=True,  # privilege escalation attempt changes TBS bytes
            signature=cert.signature,
        )
        with pytest.raises(SecurityError, match="signature"):
            validate_chain(forged, [inter.certificate], trusted(root), now=50.0)

    def test_untrusted_root_fails(self, pki):
        root, inter, keys = pki
        rogue = CertificateAuthority("rogue-ca", bits=512, rng=np.random.default_rng(666))
        cert = rogue.issue("client", keys.public, 0.0, 100.0)
        with pytest.raises(SecurityError, match="no path"):
            validate_chain(cert, [], trusted(root), now=50.0)

    def test_non_ca_issuer_fails(self, pki):
        """An end-entity cert cannot vouch for another certificate."""
        root, inter, keys = pki
        middle = inter.issue("not-a-ca", keys.public, 0.0, 100.0, is_ca=False)
        leaf_keys = generate_keypair(512, np.random.default_rng(77))
        # Hand-sign a leaf with the non-CA's key.
        from repro.security.certificates import _make_cert

        leaf = _make_cert(
            subject="leaf",
            issuer="not-a-ca",
            public_key=leaf_keys.public,
            signer=keys.private,
            not_before=0.0,
            not_after=100.0,
            serial=1,
            is_ca=False,
        )
        with pytest.raises(SecurityError, match="not a CA"):
            validate_chain(
                leaf, [middle, inter.certificate], trusted(root), now=50.0
            )

    def test_cycle_detected(self, pki):
        root, inter, keys = pki
        from repro.security.certificates import _make_cert

        # a issued-by b, b issued-by a: a cycle never reaching a root.
        ka = generate_keypair(512, np.random.default_rng(10))
        kb = generate_keypair(512, np.random.default_rng(11))
        a = _make_cert("a", "b", ka.public, kb.private, 0.0, 100.0, 1, True)
        b = _make_cert("b", "a", kb.public, ka.private, 0.0, 100.0, 2, True)
        with pytest.raises(SecurityError, match="cycle|no path"):
            validate_chain(a, [b], trusted(root), now=50.0)

    def test_expired_root_fails(self, pki):
        _, _, keys = pki
        rng = np.random.default_rng(55)
        from repro.security.certificates import _make_cert

        root_keys = generate_keypair(512, rng)
        root = _make_cert("short-root", "short-root", root_keys.public, root_keys.private, 0.0, 10.0, 0, True)
        cert = _make_cert("client", "short-root", keys.public, root_keys.private, 0.0, 100.0, 1, False)
        with pytest.raises(SecurityError, match="validity|root"):
            validate_chain(cert, [], {"short-root": root}, now=50.0)
