"""Seeded synthetic locations for the benchmark.

The paper's datasets are not in the repository, so every workload runs on
locations made here from the benchmark's ``--seed``. Each location has
ground truth for the three built-in tasks. POI counts alternate between
0-12 and 13-25, so prompts fall on both sides of the extractor's
``PROMPT_POI_LIMIT`` of 12, and a share of the locations carry street-view
references, which street-level extraction prompts pass on as images.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

TASKS = ("running_amount", "boringness", "liveliness")
STREETVIEW_SHARE = 0.6

_CITIES = (
    ("Tokyo", 35.68, 139.76),
    ("Milan", 45.46, 9.19),
    ("Seattle", 47.61, -122.33),
    ("Lagos", 6.52, 3.38),
    ("Lima", -12.05, -77.04),
    ("Melbourne", -37.81, 144.96),
)
_POI_KINDS = (
    ("amenity:cafe", "Cafe"),
    ("leisure:park", "Park"),
    ("shop:supermarket", "Market"),
    ("amenity:school", "School"),
    ("highway:bus_stop", "Bus Stop"),
    ("amenity:restaurant", "Kitchen"),
    ("leisure:sports_centre", "Sports Centre"),
    ("tourism:museum", "Museum"),
    ("amenity:place_of_worship", "Chapel"),
    ("shop:bakery", "Bakery"),
    ("amenity:library", "Library"),
    ("railway:station", "Station"),
)
_NAMES = (
    "North", "Harbor", "Elm", "Riverside", "Old Town", "Garden", "Hillside",
    "Central", "Maple", "Lakeside", "Union", "Victoria", "Cedar", "Bridge",
)


def make_locations(seed: int, count: int) -> list[dict]:
    """``count`` location records in the ``--dataset`` line format."""
    rng = random.Random(seed)
    locations = []
    for i in range(count):
        city, lat, lon = _CITIES[rng.randrange(len(_CITIES))]
        n_pois = rng.randint(0, 12) if i % 2 == 0 else rng.randint(13, 25)
        pois = []
        for _ in range(n_pois):
            category, noun = _POI_KINDS[rng.randrange(len(_POI_KINDS))]
            pois.append({
                "name": f"{rng.choice(_NAMES)} {noun}",
                "category": category,
                "distance_m": round(rng.uniform(2.0, 300.0), 1),
            })
        loc_id = f"loc_{seed}_{i:03d}"
        record = {
            "id": loc_id,
            "lat": round(lat + rng.uniform(-0.05, 0.05), 5),
            "lon": round(lon + rng.uniform(-0.05, 0.05), 5),
            "city": city,
            "address": f"{rng.randint(1, 240)} {rng.choice(_NAMES)} Street, {city}",
            "pois": pois,
            "ground_truth": {task: round(rng.uniform(0.0, 10.0), 2) for task in TASKS},
        }
        if rng.random() < STREETVIEW_SHARE:
            record["streetview_refs"] = [
                f"https://streetview.example.org/pano/{loc_id}_{k:02d}.jpg"
                for k in range(rng.randint(1, 4))
            ]
        locations.append(record)
    return locations


def write_dataset(path: Path, seed: int, count: int) -> int:
    """Write the seeded locations as line-delimited JSON; returns the count."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in make_locations(seed, count):
            fh.write(json.dumps(record) + "\n")
    return count
