import json

import pytest

from urbanmas.domain import LocationSample
from urbanmas.errors import EnrichmentError, OfflineMissError, UpstreamUnavailableError
from urbanmas.geo import GeoClient, IngestConfig, haversine_m

from conftest import DEEP_JSON, answer_every_upstream
from oracles import brute_haversine_m

TOKYO = (35.65860, 139.74540)


def offline_client(cache_dir, **cfg) -> GeoClient:
    def no_network(url, params):  # pragma: no cover - must never run
        raise AssertionError(f"network touched: {url}")

    config = IngestConfig(cache_dir=cache_dir, offline=True, **cfg)
    return GeoClient(config, http_get=no_network)


class TestHaversine:
    def test_zero_iff_points_coincide(self):
        assert haversine_m(10.0, 20.0, 10.0, 20.0) == 0.0
        assert haversine_m(10.0, 20.0, 10.0, 20.001) > 0.0

    def test_symmetry(self):
        a, b = (35.6586, 139.7454), (45.4642, 9.19)
        assert haversine_m(*a, *b) == pytest.approx(haversine_m(*b, *a))

    def test_one_degree_of_latitude(self):
        # 2 * pi * R / 360 with R = 6371 km.
        assert haversine_m(0.0, 0.0, 1.0, 0.0) == pytest.approx(111194.93, abs=0.01)

    def test_agrees_with_law_of_cosines_reference(self):
        pairs = [
            ((35.6586, 139.7454), (35.6575, 139.748)),
            ((47.6087, -122.3401), (47.6071, -122.3382)),
            ((0.0, 0.0), (0.5, 0.5)),
        ]
        for a, b in pairs:
            # The law-of-cosines route loses ~0.1 m to acos rounding near 1.
            assert haversine_m(*a, *b) == pytest.approx(
                brute_haversine_m(*a, *b), rel=1e-6, abs=0.1
            )


class TestIngestConfig:
    def test_radius_and_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            IngestConfig(cache_dir=".", poi_radius_m=0)
        with pytest.raises(ValueError):
            IngestConfig(cache_dir=".", poi_limit=0)


class TestReverseGeocode:
    def test_fixture_address_is_served_offline(self, geocache_dir):
        client = offline_client(geocache_dir)
        address = client.reverse_geocode(*TOKYO)
        assert "Tokyo" in address
        assert client.network_calls == 0

    def test_offline_miss_for_uncached_coordinates(self, geocache_dir):
        client = offline_client(geocache_dir)
        with pytest.raises(OfflineMissError):
            client.reverse_geocode(1.0, 2.0)

    def test_live_fetch_caches_by_rounded_coordinates(self, tmp_path):
        calls = []

        def fake_get(url, params):
            calls.append(params)
            return 200, json.dumps({"display_name": "Somewhere, Testville"})

        cfg = IngestConfig(cache_dir=tmp_path)
        client = GeoClient(cfg, http_get=fake_get)
        first = client.reverse_geocode(1.234567, 2.345678)
        # Differs only beyond the 5th decimal (~sub-meter): same cache key.
        second = client.reverse_geocode(1.2345670001, 2.3456780001)
        assert first == second == "Somewhere, Testville"
        assert len(calls) == 1

    def test_upstream_http_error_is_wrapped(self, tmp_path):
        cfg = IngestConfig(cache_dir=tmp_path)
        client = GeoClient(cfg, http_get=lambda url, params: (503, "down"))
        with pytest.raises(UpstreamUnavailableError, match="HTTP 503"):
            client.reverse_geocode(1.0, 2.0)

    def test_live_calls_are_spaced_at_least_one_second(self, tmp_path, monkeypatch):
        import urbanmas.geo as geo_mod

        sleeps = []
        monkeypatch.setattr(geo_mod.time, "sleep", sleeps.append)
        cfg = IngestConfig(cache_dir=tmp_path)
        client = GeoClient(
            cfg, http_get=lambda url, params: (200, json.dumps({"display_name": "A"}))
        )
        client.reverse_geocode(1.0, 2.0)
        client.reverse_geocode(3.0, 4.0)
        assert sleeps and sleeps[-1] > 0.9


class TestNearbyPois:
    def test_fixture_pois_sorted_by_independent_distance_oracle(self, geocache_dir):
        client = offline_client(geocache_dir)
        pois = client.nearby_pois(*TOKYO)
        assert [p.name for p in pois] == ["Tokyo Tower", "Zojoji Temple", "Shiba Park"]
        raw = json.loads(
            (geocache_dir / "pois_35.65860_139.74540.json").read_text()
        )["elements"]
        expected = sorted(
            (
                (brute_haversine_m(*TOKYO, e["lat"], e["lon"]), e["name"])
                for e in raw
                if brute_haversine_m(*TOKYO, e["lat"], e["lon"]) <= 300.0
            ),
        )
        assert [name for _, name in expected] == [p.name for p in pois]
        for (expected_distance, _), poi in zip(expected, pois):
            assert poi.distance_m == pytest.approx(expected_distance, rel=1e-6, abs=0.1)

    def test_all_distances_within_radius(self, geocache_dir):
        client = offline_client(geocache_dir, poi_radius_m=300.0)
        pois = client.nearby_pois(*TOKYO)
        assert all(p.distance_m <= 300.0 for p in pois)
        # Hamamatsucho Station (~1.1 km) is in the cache but filtered out.
        assert "Hamamatsucho Station" not in [p.name for p in pois]

    def test_limit_is_applied_after_sorting(self, geocache_dir):
        client = offline_client(geocache_dir, poi_limit=1)
        pois = client.nearby_pois(*TOKYO)
        assert [p.name for p in pois] == ["Tokyo Tower"]

    def test_empty_upstream_result_is_valid(self, tmp_path):
        cfg = IngestConfig(cache_dir=tmp_path)
        client = GeoClient(cfg, http_get=lambda url, params: (200, json.dumps({"elements": []})))
        assert client.nearby_pois(1.0, 2.0) == []

    def test_live_fetch_parses_overpass_elements(self, tmp_path):
        body = json.dumps(
            {
                "elements": [
                    {"lat": 1.0005, "lon": 2.0, "tags": {"name": "Cafe", "amenity": "cafe"}},
                    {"lat": 1.0001, "lon": 2.0, "tags": {"name": "Park", "leisure": "park"}},
                    {"lat": 1.0, "lon": 2.0, "tags": {"noname": "x"}},
                ]
            }
        )
        cfg = IngestConfig(cache_dir=tmp_path)
        client = GeoClient(cfg, http_get=lambda url, params: (200, body))
        pois = client.nearby_pois(1.0, 2.0)
        assert [(p.name, p.category) for p in pois] == [
            ("Park", "leisure:park"),
            ("Cafe", "amenity:cafe"),
        ]


class TestCorruptCacheEntry:
    POIS = "pois_35.65860_139.74540.json"

    def test_truncated_entry_is_an_offline_miss_naming_the_file(self, geocache_dir, caplog):
        path = geocache_dir / self.POIS
        path.write_bytes(path.read_bytes()[:40])
        client = offline_client(geocache_dir)
        with pytest.raises(OfflineMissError):
            client.nearby_pois(*TOKYO)
        assert str(path) in caplog.text
        assert (client.cache_hits, client.cache_misses) == (0, 1)

    def test_entry_nested_past_the_recursion_limit_is_a_miss(self, geocache_dir, caplog):
        path = geocache_dir / self.POIS
        path.write_text('{"elements": ' + DEEP_JSON)
        with pytest.raises(OfflineMissError):
            offline_client(geocache_dir).nearby_pois(*TOKYO)
        assert str(path) in caplog.text

    def test_entry_without_its_key_is_a_miss(self, geocache_dir):
        (geocache_dir / self.POIS).write_text(json.dumps({"address": "wrong kind"}))
        with pytest.raises(OfflineMissError):
            offline_client(geocache_dir).nearby_pois(*TOKYO)

    @pytest.mark.parametrize(
        "kind, entry",
        [
            ("pois", {"elements": [1]}),
            ("pois", {"elements": "ab"}),
            ("pois", {"elements": [{"name": "x"}]}),
            ("reverse", {"address": 5}),
            ("streetview", {"refs": "abc"}),
        ],
    )
    def test_entry_of_the_wrong_shape_is_a_miss(self, tmp_path, caplog, kind, entry):
        path = tmp_path / f"{kind}_35.65860_139.74540.json"
        path.write_text(json.dumps(entry))
        client = offline_client(tmp_path)
        if kind == "streetview":
            assert client.streetview_refs(*TOKYO) == []
        else:
            lookup = client.nearby_pois if kind == "pois" else client.reverse_geocode
            with pytest.raises(OfflineMissError):
                lookup(*TOKYO)
        assert f"ignoring corrupt geo cache entry {path}" in caplog.text
        misses = 0 if kind == "streetview" else 1  # a street-view read is not a lookup
        assert (client.cache_hits, client.cache_misses) == (0, misses)

    def test_online_read_rewrites_the_entry(self, tmp_path):
        path = tmp_path / self.POIS
        path.write_text('{"elements": [{"name": "Tok')
        body = json.dumps(
            {"elements": [{"lat": 35.6586, "lon": 139.7454, "tags": {"name": "Tokyo Tower"}}]}
        )
        cfg = IngestConfig(cache_dir=tmp_path)
        client = GeoClient(cfg, http_get=lambda url, params: (200, body))
        assert [p.name for p in client.nearby_pois(*TOKYO)] == ["Tokyo Tower"]
        assert json.loads(path.read_text())["elements"][0]["name"] == "Tokyo Tower"
        assert client.network_calls == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [self.POIS]


class TestStreetview:
    def test_cached_local_path_is_returned_offline(self, tmp_path):
        image = tmp_path / "sv_tokyo.jpg"
        image.write_bytes(b"\xff\xd8fake")
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "streetview_35.65860_139.74540.json").write_text(
            json.dumps({"refs": [str(image)]})
        )
        client = offline_client(cache)
        assert client.streetview_refs(*TOKYO) == [str(image)]

    def test_no_coverage_gives_empty_list(self, geocache_dir):
        client = offline_client(geocache_dir)
        assert client.streetview_refs(47.6087, -122.3401) == []

    def test_offline_without_cache_is_empty_not_error(self, tmp_path):
        client = offline_client(tmp_path)
        assert client.streetview_refs(5.0, 6.0) == []

    def test_online_miss_is_empty_and_sends_nothing(self, tmp_path):
        calls = []
        client = GeoClient(IngestConfig(cache_dir=tmp_path), http_get=lambda u, p: calls.append(u))
        assert client.streetview_refs(*TOKYO) == []
        assert calls == []
        assert client.network_calls == 0

    def test_empty_entry_is_no_imagery_not_a_corrupt_entry(self, tmp_path, caplog):
        (tmp_path / "streetview_35.65860_139.74540.json").write_text(json.dumps({"refs": []}))
        assert offline_client(tmp_path).streetview_refs(*TOKYO) == []
        assert "corrupt" not in caplog.text


class TestUnusableStreetviewEntry:
    """A street-view entry is written by hand, not fetched: one that cannot be
    read is no imagery and a warning, online or offline, and is never asked for."""

    BODIES = ["[]", "null", '"x"', "{}", '{"refs": [1]}']
    ENTRY = "streetview_1.00000_2.00000.json"

    @pytest.mark.parametrize("body", BODIES)
    @pytest.mark.parametrize("offline", [True, False], ids=["offline", "online"])
    def test_read_is_empty_with_a_warning(self, tmp_path, caplog, body, offline):
        path = tmp_path / self.ENTRY
        path.write_text(body)
        calls = []
        cfg = IngestConfig(cache_dir=tmp_path, offline=offline)
        client = GeoClient(cfg, http_get=lambda url, params: calls.append(url))
        assert client.streetview_refs(1.0, 2.0) == []
        assert f"ignoring corrupt geo cache entry {path}" in caplog.text
        assert calls == []
        assert path.read_text() == body

    @pytest.mark.parametrize("body", BODIES)
    def test_enrich_keeps_the_upstream_context(self, tmp_path, body):
        (tmp_path / self.ENTRY).write_text(body)
        client = GeoClient(IngestConfig(cache_dir=tmp_path), http_get=answer_every_upstream)
        enriched = client.enrich(LocationSample(id="x", latitude=1.0, longitude=2.0))
        assert (enriched.address, enriched.pois, enriched.streetview_refs) == ("Addr", (), ())
        assert client.network_calls == 2


# Per upstream: a fragment of its default URL, which its errors name, a body
# it answers well, and the warning enrich logs when it fails.
UPSTREAMS = {
    "reverse_geocode": ("reverse", {"display_name": "Addr"}, "address unavailable"),
    "nearby_pois": ("interpreter", {"elements": []}, "POIs unavailable"),
}


class TestUnusableBody:
    CASES = [
        *((method, body) for method in UPSTREAMS for body in ("[]", "null", '"x"', "{}")),
        ("nearby_pois", '{"elements": [1]}'),
        ("reverse_geocode", '{"display_name": 5}'),
        ("nearby_pois", '{"elements": [{"lat": "1.0", "lon": 2.0}]}'),
        *((method, ConnectionError("connection refused")) for method in UPSTREAMS),
    ]

    @staticmethod
    def _client(tmp_path, method: str, body: str) -> GeoClient:
        """Answers ``body`` from ``method``'s upstream, or raises it if it is an
        exception, and answers well from the others."""

        def fake_get(url, params):
            if UPSTREAMS[method][0] in url:
                if isinstance(body, Exception):
                    raise body
                return 200, body
            return 200, json.dumps(next(good for frag, good, _ in UPSTREAMS.values() if frag in url))

        cfg = IngestConfig(cache_dir=tmp_path)
        return GeoClient(cfg, http_get=fake_get)

    @pytest.mark.parametrize("method, body", CASES)
    def test_is_a_named_upstream_failure_and_is_not_cached(self, tmp_path, method, body):
        client = self._client(tmp_path, method, body)
        with pytest.raises(UpstreamUnavailableError, match=UPSTREAMS[method][0]):
            getattr(client, method)(1.0, 2.0)
        assert list(tmp_path.iterdir()) == []
        assert client.network_calls == 1

    @pytest.mark.parametrize("method, body", CASES)
    def test_enrich_degrades_with_a_warning(self, tmp_path, caplog, method, body):
        client = self._client(tmp_path, method, body)
        with caplog.at_level("WARNING"):
            client.enrich(LocationSample(id="x", latitude=1.0, longitude=2.0))
        assert any(UPSTREAMS[method][2] in r.message for r in caplog.records)


class TestEnrich:
    def test_fresh_sample_fully_enriched_from_fixtures(self, geocache_dir):
        client = offline_client(geocache_dir)
        sample = LocationSample(id="tokyo_tower", latitude=35.6586, longitude=139.7454, city="Tokyo")
        enriched = client.enrich(sample)
        assert enriched.address and "Tokyo" in enriched.address
        assert [p.name for p in enriched.pois] == ["Tokyo Tower", "Zojoji Temple", "Shiba Park"]
        assert enriched.streetview_refs == (
            "https://streetview.example.org/pano/tokyo_tower_01.jpg",
        )
        assert client.network_calls == 0

    def test_enrich_is_idempotent_with_warm_cache(self, geocache_dir):
        client = offline_client(geocache_dir)
        sample = LocationSample(id="tokyo_tower", latitude=35.6586, longitude=139.7454, city="Tokyo")
        once = client.enrich(sample)
        twice = client.enrich(once)
        assert once == twice

    def test_partial_failure_degrades_with_warning(self, tmp_path, caplog):
        def geocoder_only(url, params):
            if "reverse" in url:
                return 200, json.dumps({"display_name": "Edge Case Street 1"})
            return 503, "down"

        cfg = IngestConfig(cache_dir=tmp_path)
        client = GeoClient(cfg, http_get=geocoder_only)
        sample = LocationSample(id="x", latitude=1.0, longitude=2.0)
        with caplog.at_level("WARNING"):
            enriched = client.enrich(sample)
        assert enriched.address == "Edge Case Street 1"
        assert enriched.pois == ()
        assert any("POIs unavailable" in r.message for r in caplog.records)

    def test_all_upstreams_failing_is_an_error(self, tmp_path):
        cfg = IngestConfig(cache_dir=tmp_path)
        client = GeoClient(cfg, http_get=lambda url, params: (503, "down"))
        sample = LocationSample(id="x", latitude=1.0, longitude=2.0)
        with pytest.raises(EnrichmentError, match="all upstreams failed"):
            client.enrich(sample)

    def test_live_enrich_asks_two_upstreams_and_stores_no_key(self, tmp_path):
        calls = []

        def fake_get(url, params):
            calls.append(url)
            if "reverse" in url:
                return 200, json.dumps({"display_name": "Addr"})
            if "interpreter" in url:
                return 200, json.dumps({"elements": []})
            return 200, json.dumps({"status": "OK", "pano_id": "p1"})

        client = GeoClient(IngestConfig(cache_dir=tmp_path), http_get=fake_get)
        enriched = client.enrich(LocationSample(id="x", latitude=1.0, longitude=2.0))
        assert len(calls) == 2
        assert enriched.address == "Addr"
        assert "key=" not in json.dumps(enriched.to_dict())
        assert all("key=" not in p.read_text() for p in tmp_path.iterdir())

    def test_cached_refs_alone_are_enough_online(self, tmp_path):
        (tmp_path / "streetview_1.00000_2.00000.json").write_text(json.dumps({"refs": ["a.jpg"]}))
        client = GeoClient(IngestConfig(cache_dir=tmp_path), http_get=lambda u, p: (503, "down"))
        enriched = client.enrich(LocationSample(id="x", latitude=1.0, longitude=2.0))
        assert (enriched.address, enriched.pois, enriched.streetview_refs) == (None, (), ("a.jpg",))

    def test_offline_empty_cache_returns_the_sample_unchanged(self, tmp_path):
        sample = LocationSample(id="x", latitude=1.0, longitude=2.0)
        assert offline_client(tmp_path).enrich(sample) == sample

    def test_second_run_is_all_cache_hits(self, tmp_path):
        def fake_get(url, params):
            if "reverse" in url:
                return 200, json.dumps({"display_name": "Addr"})
            return 200, json.dumps({"elements": []})

        cfg = IngestConfig(cache_dir=tmp_path)
        client = GeoClient(cfg, http_get=fake_get)
        sample = LocationSample(id="x", latitude=1.0, longitude=2.0)
        client.enrich(sample)
        first_network = client.network_calls

        second = GeoClient(cfg, http_get=fake_get)
        second.enrich(sample)
        assert first_network == 2
        assert second.network_calls == 0
        assert second.cache_misses == 0
        assert second.cache_hits == 2


class TestDefaultTransport:
    def test_client_uses_the_module_transport_in_place_when_built(
        self, tmp_path, monkeypatch, no_geo_network
    ):
        import urbanmas.geo as geo_mod

        calls = []

        def recorder(url, params):
            calls.append(url)
            return answer_every_upstream(url, params)

        monkeypatch.setattr(geo_mod, "_http_get", recorder)
        client = GeoClient(IngestConfig(cache_dir=tmp_path))
        client.enrich(LocationSample(id="x", latitude=1.0, longitude=2.0))
        assert len(calls) == 2


class TestPacing:
    """Only the geocoder is paced; the POI calls are not."""

    @pytest.fixture
    def sleeps(self, monkeypatch):
        import urbanmas.geo as geo_mod

        sleeps = []
        monkeypatch.setattr(geo_mod.time, "sleep", sleeps.append)
        return sleeps

    def test_one_location_sleeps_nothing(self, tmp_path, sleeps):
        client = GeoClient(IngestConfig(cache_dir=tmp_path), http_get=answer_every_upstream)
        client.enrich(LocationSample(id="x", latitude=1.0, longitude=2.0))
        assert sleeps == []
        assert client.network_calls == 2

    def test_two_locations_sleep_once_before_the_second_geocoder_call(self, tmp_path, sleeps):
        client = GeoClient(IngestConfig(cache_dir=tmp_path), http_get=answer_every_upstream)
        client.enrich(LocationSample(id="x", latitude=1.0, longitude=2.0))
        client.enrich(LocationSample(id="y", latitude=3.0, longitude=4.0))
        assert len(sleeps) == 1 and 0.9 < sleeps[0] <= 1.0
        assert client.network_calls == 4
