"""Tests for broker advertisements and the BDN-side store."""

from __future__ import annotations

import pytest

from repro.core.config import Endpoint
from repro.core.messages import BrokerAdvertisement
from repro.discovery.advertisement import (
    AdvertisementStore,
    StoredAdvertisement,
    build_advertisement,
)
from repro.substrate.builder import BrokerNetwork


def make_ad(broker_id="b1", region="north-america", host="h1.x") -> BrokerAdvertisement:
    return BrokerAdvertisement(
        broker_id=broker_id,
        hostname=host,
        transports=(("tcp", 5045), ("udp", 5046)),
        logical_address=f"/site/{broker_id}",
        region=region,
        issued_at=1.0,
    )


class TestBuildAdvertisement:
    def test_fields_from_broker(self):
        net = BrokerNetwork()
        broker = net.add_broker("bk", site="urbana")
        ad = build_advertisement(broker)
        assert ad.broker_id == "bk"
        assert ad.hostname == broker.host
        assert ad.port_for("tcp") == 5045
        assert ad.port_for("udp") == 5046
        assert ad.logical_address == "/urbana/bk"
        assert ad.region == "north-america"

    def test_region_hint_for_cardiff(self):
        net = BrokerNetwork()
        broker = net.add_broker("bk", site="cardiff")
        assert build_advertisement(broker).region == "europe"


class TestStoredAdvertisement:
    def test_udp_endpoint(self):
        stored = StoredAdvertisement(advertisement=make_ad(host="hh.x"), received_at=0.0)
        assert stored.udp_endpoint == Endpoint("hh.x", 5046)

    def test_udp_endpoint_default_port(self):
        ad = BrokerAdvertisement(
            broker_id="b", hostname="h.x", transports=(("tcp", 5045),), logical_address="/x"
        )
        stored = StoredAdvertisement(advertisement=ad, received_at=0.0)
        assert stored.udp_endpoint.port == 5046  # falls back to convention


class TestAdvertisementStore:
    def test_accept_and_lookup(self):
        store = AdvertisementStore()
        assert store.accept(make_ad("b1"), now=1.0) is True
        assert "b1" in store
        assert store.get("b1").received_at == 1.0
        assert len(store) == 1

    def test_readvertisement_replaces(self):
        """Section 2.4: brokers may re-advertise at a (new) BDN."""
        store = AdvertisementStore()
        store.accept(make_ad("b1", host="old.x"), now=1.0)
        store.accept(make_ad("b1", host="new.x"), now=2.0)
        assert len(store) == 1
        assert store.get("b1").advertisement.hostname == "new.x"
        assert store.get("b1").received_at == 2.0

    def test_interest_filter_ignores_other_regions(self):
        """Section 2.3: 'a BDN in the US may be interested only in broker
        additions in North America'."""
        store = AdvertisementStore(interest_regions=frozenset({"north-america"}))
        assert store.accept(make_ad("us", region="north-america"), now=0.0) is True
        assert store.accept(make_ad("uk", region="europe"), now=0.0) is False
        assert "uk" not in store
        assert store.ignored == 1

    def test_empty_filter_accepts_all(self):
        store = AdvertisementStore()
        assert store.accept(make_ad("uk", region="europe"), now=0.0) is True

    def test_remove(self):
        store = AdvertisementStore()
        store.accept(make_ad("b1"), now=0.0)
        assert store.remove("b1") is True
        assert store.remove("b1") is False
        assert len(store) == 0

    def test_all_sorted_by_id(self):
        store = AdvertisementStore()
        for name in ("zz", "aa", "mm"):
            store.accept(make_ad(name), now=0.0)
        assert [s.broker_id for s in store.all()] == ["aa", "mm", "zz"]
        assert store.broker_ids() == ["aa", "mm", "zz"]
