"""Resolve location coordinates into address, POI and street-view context.

Two upstreams are consulted (a Nominatim-compatible reverse geocoder and an
Overpass-compatible POI endpoint), each behind a disk cache keyed by
coordinates rounded to 5 decimal places (~1 m). With ``offline=True`` no
network is ever touched: cache hits are served and misses raise
:class:`OfflineMissError`. Only live geocoder calls are paced, at least
``GEOCODER_INTERVAL_S`` apart, to respect the public service's usage policy.

Street-view references are never fetched: they come from the dataset or from
a ``streetview_<lat>_<lon>.json`` entry (``{"refs": [...]}``) in the same
cache, and no entry means no imagery.

POI caches store raw entries (name, category, coordinates); distance,
radius filtering and the result limit are applied on read so configuration
changes take effect on a warm cache.
"""

from __future__ import annotations

import logging
import math
import threading
import time
import urllib.parse
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping

from .backend import RateLimiter
from .domain import LocationSample, PoiEntry, http_request, load_json, write_json_atomic
from .errors import EnrichmentError, OfflineMissError, UpstreamUnavailableError

logger = logging.getLogger(__name__)

EARTH_RADIUS_M = 6371000.0

DEFAULT_GEOCODER_URL = "https://nominatim.openstreetmap.org/reverse"
DEFAULT_OVERPASS_URL = "https://overpass-api.de/api/interpreter"
USER_AGENT = "urbanmas/0.1 (research pipeline)"
GEOCODER_INTERVAL_S = 1.0

# Per kind of cache entry: the key it holds and the shape its value must
# have, checked on every read and before every write.
_CACHE_SHAPES: dict[str, tuple[str, Callable[[object], bool]]] = {
    "reverse": ("address", lambda v: isinstance(v, str)),
    "pois": ("elements", lambda v: isinstance(v, list) and all(map(_is_poi_entry, v))),
    "streetview": ("refs", lambda v: isinstance(v, list) and all(isinstance(r, str) for r in v)),
}

# Tag keys inspected, in order, to derive a POI category label.
_CATEGORY_TAGS = (
    "amenity", "shop", "leisure", "tourism", "natural", "railway",
    "highway", "office", "building", "landuse",
)


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two points, in meters."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlambda = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2) ** 2
    return EARTH_RADIUS_M * 2 * math.atan2(math.sqrt(a), math.sqrt(1 - a))


@dataclass(frozen=True)
class IngestConfig:
    """Parameters for context ingestion."""

    cache_dir: Path
    poi_radius_m: float = 300.0
    poi_limit: int = 25
    offline: bool = False
    geocoder_url: str = DEFAULT_GEOCODER_URL
    overpass_url: str = DEFAULT_OVERPASS_URL

    def __post_init__(self) -> None:
        if self.poi_radius_m <= 0:
            raise ValueError("poi_radius_m must be positive")
        if self.poi_limit <= 0:
            raise ValueError("poi_limit must be positive")
        object.__setattr__(self, "cache_dir", Path(self.cache_dir))


HttpGet = Callable[[str, Mapping[str, object]], tuple[int, str]]


def _http_get(url: str, params: Mapping[str, object]) -> tuple[int, str]:
    return http_request(
        url + "?" + urllib.parse.urlencode(params), {"User-Agent": USER_AGENT}, timeout=30
    )


def _coord_key(lat: float, lon: float) -> str:
    return f"{lat:.5f}_{lon:.5f}"


class GeoClient:
    """Cached, offline-capable client for the two geo upstreams and the
    cached street-view references.

    ``http_get`` is injectable so tests can prove that offline mode makes
    zero network attempts. Counters track the cache hits, misses and live
    calls of the upstream lookups for the ingest summary.
    """

    def __init__(self, config: IngestConfig, http_get: HttpGet | None = None):
        self.config = config
        self._http_get = http_get or _http_get
        # A bucket of one token, refilled each GEOCODER_INTERVAL_S. time.sleep is read
        # here, not at import, so that a patched sleep applies.
        self._geocoder_pacer = RateLimiter(60.0 / GEOCODER_INTERVAL_S, sleep=time.sleep)
        self._stats_lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        self.network_calls = 0

    # -- cache plumbing ----------------------------------------------------

    def _cache_path(self, kind: str, lat: float, lon: float) -> Path:
        return self.config.cache_dir / f"{kind}_{_coord_key(lat, lon)}.json"

    def _cache_read(self, kind: str, lat: float, lon: float) -> object | None:
        path = self._cache_path(kind, lat, lon)
        key, valid = _CACHE_SHAPES[kind]
        value = None
        if path.exists():
            try:
                value = load_json(path.read_text(encoding="utf-8"))[key]
            except (OSError, ValueError, KeyError, TypeError):
                pass
            if not valid(value):
                logger.warning("ignoring corrupt geo cache entry %s", path)
                value = None
        return value

    def _lookup(
        self, kind: str, lat: float, lon: float,
        url: str, params: Mapping[str, object], parse: Callable[[dict], object],
    ) -> object:
        """The cached value, or one GET (paced if geocoding) whose body ``parse``
        turns into the value to cache; an unusable body is an upstream failure,
        and a cache write that fails is a warning."""
        value = self._cache_read(kind, lat, lon)
        with self._stats_lock:
            if value is not None:
                self.cache_hits += 1
                return value
            self.cache_misses += 1
        if self.config.offline:
            raise OfflineMissError(f"no cached {kind} entry for {_coord_key(lat, lon)}")
        if kind == "reverse":
            self._geocoder_pacer.acquire()
        with self._stats_lock:
            self.network_calls += 1
        try:
            status, body = self._http_get(url, params)
        except Exception as exc:
            raise UpstreamUnavailableError(f"{url}: {exc}") from exc
        if status != 200:
            raise UpstreamUnavailableError(f"{url}: HTTP {status}")
        key, valid = _CACHE_SHAPES[kind]
        try:
            doc = load_json(body)
            if not isinstance(doc, dict):
                raise TypeError(f"not a JSON object: {doc!r:.40}")
            value = parse(doc)
            if not valid(value):
                raise TypeError(f"malformed {key}: {value!r:.40}")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise UpstreamUnavailableError(
                f"{url} returned an unusable body: {type(exc).__name__}: {exc}"
            ) from exc
        path = self._cache_path(kind, lat, lon)
        try:
            write_json_atomic(path, {key: value})
        except OSError as exc:
            logger.warning("cannot write geo cache entry %s: %s", path, exc)
        return value

    # -- operations ----------------------------------------------------------

    def reverse_geocode(self, lat: float, lon: float) -> str:
        """Resolve coordinates to a human-readable address string."""
        params = {"lat": lat, "lon": lon, "format": "jsonv2"}
        return self._lookup(
            "reverse", lat, lon, self.config.geocoder_url, params, lambda doc: doc["display_name"]
        )

    def nearby_pois(self, lat: float, lon: float) -> list[PoiEntry]:
        """Named POIs within the configured radius, closest first."""
        query = (
            f"[out:json][timeout:25];"
            f'node(around:{self.config.poi_radius_m:.0f},{lat},{lon})["name"];'
            f"out qt;"
        )
        raw = self._lookup("pois", lat, lon, self.config.overpass_url, {"data": query}, _poi_entries)
        pois = []
        for entry in raw:
            if not entry.get("name"):
                continue
            distance = haversine_m(lat, lon, float(entry["lat"]), float(entry["lon"]))
            if distance <= self.config.poi_radius_m:
                pois.append(
                    PoiEntry(
                        name=entry["name"],
                        category=entry.get("category") or "poi",
                        distance_m=distance,
                    )
                )
        pois.sort(key=lambda p: (p.distance_m, p.name))
        return pois[: self.config.poi_limit]

    def streetview_refs(self, lat: float, lon: float) -> list[str]:
        """The street-view references cached for these coordinates; no entry
        means no imagery. Nothing is fetched, online or offline."""
        return self._cache_read("streetview", lat, lon) or []

    def enrich(self, sample: LocationSample) -> LocationSample:
        """Populate address, POIs and street-view refs on a copy of the sample.

        Already-populated context is kept, which makes enrichment
        idempotent. A failing upstream or an offline miss degrades to a
        warning and an empty field. Online, the call fails only when nothing
        could be populated: the geocoder and the POI lookup both failed and
        no street-view refs are cached.
        """
        failures: list[str] = []

        address = sample.address
        if address is None:
            try:
                address = self.reverse_geocode(sample.latitude, sample.longitude)
            except (UpstreamUnavailableError, OfflineMissError) as exc:
                failures.append(f"geocoder: {exc}")
                logger.warning("enrich %s: address unavailable (%s)", sample.id, exc)

        pois = sample.pois
        if not pois:
            try:
                pois = tuple(self.nearby_pois(sample.latitude, sample.longitude))
            except (UpstreamUnavailableError, OfflineMissError) as exc:
                failures.append(f"pois: {exc}")
                logger.warning("enrich %s: POIs unavailable (%s)", sample.id, exc)

        refs = sample.streetview_refs or tuple(
            self.streetview_refs(sample.latitude, sample.longitude)
        )

        if len(failures) == 2 and not refs and not self.config.offline:
            raise EnrichmentError(f"all upstreams failed for {sample.id}: {'; '.join(failures)}")
        return replace(sample, address=address, pois=pois, streetview_refs=refs)


def _poi_entries(doc: Mapping) -> list[dict]:
    """Overpass elements as POI cache entries: name, category and coordinates."""
    return [
        {
            "name": el.get("tags", {}).get("name", ""),
            "category": _category(el.get("tags", {})),
            "lat": el.get("lat"),
            "lon": el.get("lon"),
        }
        for el in doc["elements"]
        if el.get("lat") is not None and el.get("lon") is not None
    ]


def _is_poi_entry(entry: object) -> bool:
    return (
        isinstance(entry, dict)
        and all(type(entry.get(k)) in (int, float) for k in ("lat", "lon"))
        and all(isinstance(entry.get(k, ""), str) for k in ("name", "category"))
    )


def _category(tags: Mapping[str, str]) -> str:
    for key in _CATEGORY_TAGS:
        if key in tags:
            return f"{key}:{tags[key]}"
    return "poi"
