#!/usr/bin/env python3
"""Securing the discovery protocol (paper sections 2.4, 5, 9.1).

Demonstrates every security mechanism the paper describes or times:

* a **PKI**: root CA -> intermediate CA -> client certificate, with
  chain validation (the Figure 13 cost);
* **signed credential tokens** presented by the requesting node;
* a **response policy**: brokers answer only requests carrying the
  right credential from the right realm;
* a **private BDN** that refuses to disseminate unauthenticated
  requests (section 2.4);
* the **sign+encrypt envelope** protecting a discovery request in
  transit (the Figure 14 cost).

Run with::

    python examples/secure_discovery.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import (
    BDNConfig,
    BrokerConfig,
    ClientConfig,
    DiscoveryRequest,
    ResponsePolicyConfig,
)
from repro.discovery import (
    BDN,
    DiscoveryClient,
    DiscoveryResponder,
    start_heartbeat,
)
from repro.experiments import run_discovery_once
from repro.security import (
    CertificateAuthority,
    generate_keypair,
    issue_credential,
    open_envelope,
    seal,
    validate_chain,
    verify_credential,
)
from repro.substrate import BrokerNetwork, Topology

CREDENTIAL = "grid-member"


def main() -> None:
    rng = np.random.default_rng(99)

    # --- PKI setup ----------------------------------------------------------
    print("Building the PKI (RSA-1024)...")
    t0 = time.perf_counter()
    root = CertificateAuthority("grid-root-ca", bits=1024, rng=rng)
    inter = CertificateAuthority("grid-ops-ca", bits=1024, rng=rng, parent=root)
    client_keys = generate_keypair(1024, rng)
    broker_keys = generate_keypair(1024, rng)
    client_cert = inter.issue("requesting-node", client_keys.public, 0.0, 1e9)
    print(f"  done in {time.perf_counter() - t0:.2f}s")

    # Figure 13: validating the client's certificate chain.
    t0 = time.perf_counter()
    validate_chain(
        client_cert, [inter.certificate],
        {root.certificate.subject: root.certificate}, now=100.0,
    )
    print(f"  X.509 chain validation: {(time.perf_counter() - t0) * 1000:.2f} ms  (Figure 13)")

    # A signed credential token the requesting node will present.
    token = issue_credential(
        subject="requesting-node",
        credential=CREDENTIAL,
        issuer="grid-ops-ca",
        issuer_key=inter.keypair.private,
        expires_at=1e9,
    )
    verify_credential(token, inter.keypair.public, now=100.0, expected_subject="requesting-node")
    print(f"  credential token verified: {token.credential!r} for {token.subject!r}")

    # Figure 14: sign + encrypt + extract a discovery request.
    request = DiscoveryRequest(
        uuid="0000-secure-demo", requester_host="client.example",
        requester_port=7500, credentials=frozenset({CREDENTIAL}), realm="lab",
    )
    t0 = time.perf_counter()
    envelope = seal(request, "requesting-node", client_keys.private, broker_keys.public, rng)
    extracted = open_envelope(envelope, broker_keys.private, client_keys.public)
    assert extracted == request
    print(f"  sign+encrypt+extract roundtrip: {(time.perf_counter() - t0) * 1000:.2f} ms  (Figure 14)")

    # --- A credential-gated broker network -----------------------------------
    print("\nBuilding a credential-gated broker network...")
    policy = ResponsePolicyConfig(required_credentials=frozenset({CREDENTIAL}))
    net = BrokerNetwork(seed=5)
    for i in range(3):
        broker = net.add_broker(
            f"b{i}", site=f"site-{i}", config=BrokerConfig(response_policy=policy)
        )
        DiscoveryResponder(broker)
    net.apply_topology(Topology.STAR)

    # A *private* BDN (section 2.4): dissemination requires credentials.
    bdn = BDN(
        "private-bdn", "bdn.example", net.network, np.random.default_rng(6),
        config=BDNConfig(required_credentials=frozenset({CREDENTIAL})),
        site="bdn-site",
    )
    bdn.start()
    for broker in net.broker_list():
        start_heartbeat(broker, (bdn.udp_endpoint,))
    net.settle(8.0)

    def make_client(name: str, credentials: frozenset[str]) -> DiscoveryClient:
        client = DiscoveryClient(
            name, f"{name}.example", net.network, np.random.default_rng(hash(name) % 2**31),
            config=ClientConfig(
                bdn_endpoints=(bdn.udp_endpoint,),
                response_timeout=1.5,
                max_responses=3,
                target_set_size=2,
                retransmit_interval=0.75,
                max_retransmits=1,
                use_multicast_fallback=False,
                credentials=credentials,
            ),
            site="client-site",
        )
        client.start()
        net.sim.run_for(6.0)
        return client

    # Anonymous request: the private BDN acks but never disseminates.
    anon = make_client("anonymous", frozenset())
    outcome = run_discovery_once(anon)
    print(f"  anonymous client:   success={outcome.success} "
          f"(BDN rejections={bdn.credential_rejections})")
    assert not outcome.success

    # Authorised request: disseminated, answered, broker selected.
    member = make_client("member", frozenset({CREDENTIAL}))
    outcome = run_discovery_once(member)
    print(f"  authorised client:  success={outcome.success} "
          f"broker={outcome.selected.broker_id} "
          f"time={outcome.total_time * 1000:.1f} ms")
    assert outcome.success


if __name__ == "__main__":
    main()
